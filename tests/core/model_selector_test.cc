#include "core/model_selector.h"

#include <gtest/gtest.h>

#include <map>

#include "common/logging.h"
#include "common/random.h"

namespace velox {
namespace {

ModelSelectorOptions Ucb() {
  ModelSelectorOptions opts;
  opts.policy = SelectionPolicy::kUcb1;
  return opts;
}

ModelSelectorOptions Exp() {
  ModelSelectorOptions opts;
  opts.policy = SelectionPolicy::kExpWeights;
  opts.exp_learning_rate = 0.3;
  return opts;
}

TEST(ModelSelectorTest, EmptySelectorFails) {
  ModelSelector selector(Ucb());
  EXPECT_TRUE(selector.SelectModel().status().IsFailedPrecondition());
  EXPECT_TRUE(selector.ReportLoss("x", 1.0).IsNotFound());
  EXPECT_EQ(selector.num_models(), 0u);
}

TEST(ModelSelectorTest, RegistrationValidation) {
  ModelSelector selector(Ucb());
  ASSERT_TRUE(selector.AddModel("a").ok());
  EXPECT_TRUE(selector.AddModel("a").IsAlreadyExists());
  EXPECT_TRUE(selector.AddModel("").IsInvalidArgument());
  EXPECT_EQ(selector.num_models(), 1u);
}

TEST(ModelSelectorTest, Ucb1PullsEachArmOnceFirst) {
  ModelSelector selector(Ucb());
  ASSERT_TRUE(selector.AddModel("a").ok());
  ASSERT_TRUE(selector.AddModel("b").ok());
  ASSERT_TRUE(selector.AddModel("c").ok());
  std::map<std::string, int> first_picks;
  for (int i = 0; i < 3; ++i) {
    auto pick = selector.SelectModel();
    ASSERT_TRUE(pick.ok());
    ++first_picks[pick.value()];
    ASSERT_TRUE(selector.ReportLoss(pick.value(), 1.0).ok());
  }
  EXPECT_EQ(first_picks.size(), 3u);
}

TEST(ModelSelectorTest, Ucb1ConvergesToBetterModel) {
  ModelSelector selector(Ucb());
  ASSERT_TRUE(selector.AddModel("good").ok());
  ASSERT_TRUE(selector.AddModel("bad").ok());
  Rng rng(5);
  std::map<std::string, int> picks;
  for (int i = 0; i < 2000; ++i) {
    auto pick = selector.SelectModel();
    ASSERT_TRUE(pick.ok());
    ++picks[pick.value()];
    double loss = pick.value() == "good" ? 0.2 + rng.Gaussian(0.0, 0.05)
                                         : 2.0 + rng.Gaussian(0.0, 0.05);
    ASSERT_TRUE(selector.ReportLoss(pick.value(), std::max(loss, 0.0)).ok());
  }
  EXPECT_GT(picks["good"], picks["bad"] * 5);
}

TEST(ModelSelectorTest, ExpWeightsConvergesToBetterModel) {
  ModelSelector selector(Exp());
  ASSERT_TRUE(selector.AddModel("good").ok());
  ASSERT_TRUE(selector.AddModel("bad").ok());
  Rng rng(7);
  std::map<std::string, int> picks;
  for (int i = 0; i < 3000; ++i) {
    auto pick = selector.SelectModel();
    ASSERT_TRUE(pick.ok());
    ++picks[pick.value()];
    double loss = pick.value() == "good" ? 0.2 : 3.0;
    ASSERT_TRUE(selector.ReportLoss(pick.value(), loss).ok());
  }
  EXPECT_GT(picks["good"], picks["bad"] * 3);
  // The floor keeps exploring the bad arm a little.
  EXPECT_GT(picks["bad"], 0);
}

TEST(ModelSelectorTest, ExpWeightsAdaptsWhenQualityFlips) {
  // The "dynamic weighting" property: mid-stream the good and bad
  // models swap quality; the selector must shift its traffic.
  ModelSelector selector(Exp());
  ASSERT_TRUE(selector.AddModel("a").ok());
  ASSERT_TRUE(selector.AddModel("b").ok());
  auto run_phase = [&](const std::string& good, int rounds) {
    std::map<std::string, int> picks;
    for (int i = 0; i < rounds; ++i) {
      auto pick = selector.SelectModel();
      VELOX_CHECK_OK(pick.status());
      ++picks[pick.value()];
      VELOX_CHECK_OK(selector.ReportLoss(pick.value(),
                                         pick.value() == good ? 0.2 : 3.0));
    }
    return picks;
  };
  auto phase1 = run_phase("a", 2000);
  EXPECT_GT(phase1["a"], phase1["b"] * 2);
  auto phase2 = run_phase("b", 4000);
  EXPECT_GT(phase2["b"], phase2["a"]);
}

TEST(ModelSelectorTest, StatsReflectPullsLossesAndWeights) {
  ModelSelector selector(Exp());
  ASSERT_TRUE(selector.AddModel("a").ok());
  ASSERT_TRUE(selector.AddModel("b").ok());
  ASSERT_TRUE(selector.ReportLoss("a", 1.0).ok());
  ASSERT_TRUE(selector.ReportLoss("a", 3.0).ok());
  auto stats = selector.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "a");
  EXPECT_EQ(stats[0].pulls, 2);
  EXPECT_DOUBLE_EQ(stats[0].mean_loss, 2.0);
  EXPECT_EQ(stats[1].pulls, 0);
  double total_weight = stats[0].weight + stats[1].weight;
  EXPECT_NEAR(total_weight, 1.0, 1e-9);
  // b has been lossier-by-absence: a's reward accrued, so a outweighs b.
  EXPECT_GT(stats[0].weight, stats[1].weight);
}

TEST(ModelSelectorTest, LossCapBoundsOutliers) {
  ModelSelectorOptions opts = Exp();
  opts.loss_cap = 1.0;
  ModelSelector selector(opts);
  ASSERT_TRUE(selector.AddModel("a").ok());
  ASSERT_TRUE(selector.ReportLoss("a", 1e9).ok());
  auto stats = selector.Stats();
  EXPECT_DOUBLE_EQ(stats[0].mean_loss, 1.0);
}

TEST(ModelSelectorTest, ManyArmsFloorFallsBackToUniform) {
  ModelSelectorOptions opts = Exp();
  opts.exp_min_probability = 0.3;  // infeasible with 5 arms
  ModelSelector selector(opts);
  for (int i = 0; i < 5; ++i) {
    // Appended, not "m" + to_string(i): gcc 12's -Wrestrict misfires on
    // that form in optimized builds.
    std::string name = "m";
    name += std::to_string(i);
    ASSERT_TRUE(selector.AddModel(name).ok());
  }
  auto stats = selector.Stats();
  for (const auto& arm : stats) EXPECT_NEAR(arm.weight, 0.2, 1e-9);
  EXPECT_TRUE(selector.SelectModel().ok());
}

TEST(ModelSelectorDeathTest, OptionValidation) {
  ModelSelectorOptions bad;
  bad.exp_learning_rate = 0.0;
  EXPECT_DEATH(ModelSelector{bad}, "Check failed");
  ModelSelectorOptions bad2;
  bad2.loss_cap = 0.0;
  EXPECT_DEATH(ModelSelector{bad2}, "Check failed");
}

}  // namespace
}  // namespace velox
