#include "server/acceptor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/shell.h"
#include "data/movielens.h"
#include "server/bounded_queue.h"
#include "server/rate_limiter.h"

namespace velox {
namespace {

// ---- TenantRateLimiter ----

TEST(TenantRateLimiterTest, BurstThenRefillOnSimulatedClock) {
  SimulatedClock clock;
  TenantRateLimiterOptions options;
  options.default_rate_per_sec = 10.0;
  options.default_burst = 3.0;
  TenantRateLimiter limiter(options, &clock);

  // Full bucket: exactly `burst` admits, then shed.
  EXPECT_TRUE(limiter.Admit(7));
  EXPECT_TRUE(limiter.Admit(7));
  EXPECT_TRUE(limiter.Admit(7));
  EXPECT_FALSE(limiter.Admit(7));
  EXPECT_EQ(limiter.admitted(), 3u);
  EXPECT_EQ(limiter.rejected(), 1u);

  // 10 tokens/s: 100ms buys exactly one more.
  clock.AdvanceNanos(100'000'000);
  EXPECT_TRUE(limiter.Admit(7));
  EXPECT_FALSE(limiter.Admit(7));
}

TEST(TenantRateLimiterTest, TenantsAreIndependent) {
  SimulatedClock clock;
  TenantRateLimiterOptions options;
  options.default_rate_per_sec = 1.0;
  options.default_burst = 2.0;
  TenantRateLimiter limiter(options, &clock);

  // Tenant 1 drains its bucket; tenant 2's is untouched.
  EXPECT_TRUE(limiter.Admit(1));
  EXPECT_TRUE(limiter.Admit(1));
  EXPECT_FALSE(limiter.Admit(1));
  EXPECT_TRUE(limiter.Admit(2));
  EXPECT_TRUE(limiter.Admit(2));
}

TEST(TenantRateLimiterTest, ZeroDefaultRateMeansUnlimited) {
  SimulatedClock clock;
  TenantRateLimiter limiter(TenantRateLimiterOptions{}, &clock);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(limiter.Admit(42));
}

TEST(TenantRateLimiterTest, PerTenantOverride) {
  SimulatedClock clock;
  TenantRateLimiterOptions options;
  options.default_rate_per_sec = 0.0;  // unlimited default
  TenantRateLimiter limiter(options, &clock);
  limiter.SetLimit(9, 1.0, 1.0);
  EXPECT_TRUE(limiter.Admit(9));
  EXPECT_FALSE(limiter.Admit(9));
  EXPECT_TRUE(limiter.Admit(10));  // others stay unlimited
}

// ---- BoundedQueue ----

TEST(BoundedQueueTest, RefusesWhenFullAndLeavesItemIntact) {
  BoundedQueue<int> queue(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(queue.TryPush(std::move(a)));
  EXPECT_TRUE(queue.TryPush(std::move(b)));
  EXPECT_FALSE(queue.TryPush(std::move(c)));
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.peak_depth(), 2u);
}

TEST(BoundedQueueTest, WaitDrainedCoversInFlightItems) {
  BoundedQueue<int> queue(0);
  int v = 5;
  ASSERT_TRUE(queue.TryPush(std::move(v)));
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  // Queue is empty but the item is in flight: WaitDrained must block
  // until MarkDone.
  std::atomic<bool> drained{false};
  std::thread waiter([&] {
    queue.WaitDrained();
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load());
  queue.MarkDone();
  waiter.join();
  EXPECT_TRUE(drained.load());
}

TEST(BoundedQueueTest, CloseWakesPoppers) {
  BoundedQueue<int> queue(4);
  std::thread popper([&] {
    int out;
    EXPECT_FALSE(queue.Pop(&out));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  popper.join();
  int v = 1;
  EXPECT_FALSE(queue.TryPush(std::move(v)));
}

TEST(BoundedQueueTest, StragglerWindowEndsLingerWithoutArrivals) {
  // Total linger 10 s, straggler window 5 ms: an empty queue gives up
  // after the window, not the linger.
  BoundedQueue<int> queue(0);
  std::vector<int> out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.PopManyFor(&out, 8, 10'000'000'000, 5'000'000), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));

  // Arrivals closer together than the 200 ms window keep the linger
  // going — it restarts at each one — past the window's own length,
  // until `max` is in hand.
  std::thread producer([&queue] {
    for (int i = 0; i < 4; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      int v = i;
      EXPECT_TRUE(queue.TryPush(std::move(v)));
    }
  });
  EXPECT_EQ(queue.PopManyFor(&out, 4, 10'000'000'000, 200'000'000), 4u);
  producer.join();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  for (int i = 0; i < 4; ++i) queue.MarkDone();
}

// ---- the assembled plane ----

class ServerPlaneTest : public ::testing::Test {
 protected:
  ServerPlaneTest() {
    VeloxServerConfig config;
    config.num_nodes = 1;
    config.dim = 4;
    config.bandit_policy = "";
    config.batch_workers = 2;
    AlsConfig als;
    als.rank = 4;
    als.iterations = 5;
    server_ = std::make_unique<VeloxServer>(
        config, std::make_unique<MatrixFactorizationModel>("songs", als));

    SyntheticMovieLensConfig data_config;
    data_config.num_users = 40;
    data_config.num_items = 50;
    data_config.latent_rank = 4;
    data_config.min_ratings_per_user = 5;
    data_config.max_ratings_per_user = 10;
    auto ds = GenerateSyntheticMovieLens(data_config);
    VELOX_CHECK_OK(ds.status());
    VELOX_CHECK_OK(server_->Bootstrap(ds->ratings));

    FrontendOptions options;
    options.num_threads = 2;
    options.topk_k = 3;
    frontend_ = std::make_unique<VeloxFrontend>(options, server_.get());
  }

  static Request Predict(uint64_t uid, uint64_t item) {
    Request req;
    req.type = RequestType::kPredict;
    req.uid = uid;
    req.items = {item};
    return req;
  }

  FrontendResponse SubmitAndWait(RequestAcceptor* acceptor, Request request) {
    std::promise<FrontendResponse> promise;
    auto future = promise.get_future();
    acceptor->Submit(std::move(request), [&promise](FrontendResponse response) {
      promise.set_value(std::move(response));
    });
    return future.get();
  }

  std::unique_ptr<VeloxServer> server_;
  std::unique_ptr<VeloxFrontend> frontend_;
};

TEST_F(ServerPlaneTest, AdmittedRequestsServeNormally) {
  AcceptorOptions options;  // unlimited admission, bounded queues
  RequestAcceptor acceptor(options, frontend_.get());
  FrontendResponse response = SubmitAndWait(&acceptor, Predict(1, 2));
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.shed);
  ASSERT_EQ(response.items.size(), 1u);
  EXPECT_FALSE(response.items[0].degraded);
  acceptor.Drain();
  EXPECT_EQ(acceptor.accepted(), 1u);
  EXPECT_EQ(acceptor.shed_total(), 0u);
  // The plane charged the dispatch-queue residency as a stage.
  EXPECT_GT(acceptor.StageData(Stage::kQueueWait).count(), 0u);
  EXPECT_NE(acceptor.StageBreakdownJson().find("\"queue_wait\""),
            std::string::npos);
}

// Shed answers must be *bit-identical* to the degradation ladder's
// rungs — overload and storage faults degrade through one code path.
TEST_F(ServerPlaneTest, ShedPredictMatchesStaleRungBitForBit) {
  // A served predict seeds the stale-score board for (uid, item).
  Item item;
  item.id = 7;
  auto real = server_->Predict(3, item);
  ASSERT_TRUE(real.ok());

  AcceptorOptions options;
  RequestAcceptor acceptor(options, frontend_.get());
  // Zero-burst tenant limit: every request from uid 3 sheds.
  acceptor.admission()->SetTenantLimit(3, 1.0, 0.0);

  FrontendResponse shed = SubmitAndWait(&acceptor, Predict(3, 7));
  ASSERT_TRUE(shed.status.ok());
  EXPECT_TRUE(shed.shed);
  ASSERT_EQ(shed.items.size(), 1u);
  EXPECT_TRUE(shed.items[0].degraded);
  // Stale rung: exactly the last computed score, no recomputation.
  EXPECT_EQ(shed.items[0].score, real.value().score);
  EXPECT_EQ(acceptor.admission()->shed_rate_limited(), 1u);
  // The shed path recorded its stage and the ladder counter.
  EXPECT_GT(acceptor.StageData(Stage::kShed).count(), 0u);
  EXPECT_GT(server_->prediction_service(0)->degraded_stale_count(), 0u);
}

TEST_F(ServerPlaneTest, ShedPredictFallsBackToBootstrapMeanRung) {
  AcceptorOptions options;
  RequestAcceptor acceptor(options, frontend_.get());
  acceptor.admission()->SetTenantLimit(11, 1.0, 0.0);

  // (11, 49) was never scored: the ladder's final rung answers with the
  // bootstrap-mean score, bit-identical to the service's own fallback.
  double expected = server_->prediction_service(0)->fallback_score();
  FrontendResponse shed = SubmitAndWait(&acceptor, Predict(11, 49));
  ASSERT_TRUE(shed.status.ok());
  EXPECT_TRUE(shed.shed);
  ASSERT_EQ(shed.items.size(), 1u);
  EXPECT_TRUE(shed.items[0].degraded);
  EXPECT_EQ(shed.items[0].score, expected);
  EXPECT_GT(server_->prediction_service(0)->degraded_mean_count(), 0u);
}

TEST_F(ServerPlaneTest, ShedTopKRanksLadderScores) {
  AcceptorOptions options;
  RequestAcceptor acceptor(options, frontend_.get());
  acceptor.admission()->SetTenantLimit(5, 1.0, 0.0);

  Request req;
  req.type = RequestType::kTopK;
  req.uid = 5;
  req.items = {0, 1, 2, 3, 4, 5, 6, 7};
  FrontendResponse shed = SubmitAndWait(&acceptor, std::move(req));
  ASSERT_TRUE(shed.status.ok());
  EXPECT_TRUE(shed.shed);
  ASSERT_EQ(shed.items.size(), 3u);  // topk_k = 3
  for (size_t i = 0; i + 1 < shed.items.size(); ++i) {
    EXPECT_GE(shed.items[i].score, shed.items[i + 1].score);
  }
  for (const ScoredItem& item : shed.items) EXPECT_TRUE(item.degraded);
}

TEST_F(ServerPlaneTest, ShedObserveAcknowledgesButDropsUpdate) {
  AcceptorOptions options;
  RequestAcceptor acceptor(options, frontend_.get());
  acceptor.admission()->SetTenantLimit(2, 1.0, 0.0);

  uint64_t before = frontend_->requests_served();
  Request req;
  req.type = RequestType::kObserve;
  req.uid = 2;
  req.items = {3};
  req.label = 4.0;
  FrontendResponse shed = SubmitAndWait(&acceptor, std::move(req));
  EXPECT_TRUE(shed.status.ok());
  EXPECT_TRUE(shed.shed);
  // The update never reached the pipeline.
  EXPECT_EQ(frontend_->requests_served(), before);
}

// A hot tenant must drain only its own bucket.
TEST_F(ServerPlaneTest, PerTenantLimitsIsolateHotTenant) {
  SimulatedClock clock;  // frozen: no refill during the test
  AcceptorOptions options;
  options.admission.rate_limit.default_rate_per_sec = 100.0;
  options.admission.rate_limit.default_burst = 5.0;
  RequestAcceptor acceptor(options, frontend_.get(), &clock);

  // Hot tenant 1 fires 20 requests: 5 admitted (its burst), 15 shed.
  std::atomic<int> hot_shed{0};
  for (int i = 0; i < 20; ++i) {
    FrontendResponse r = SubmitAndWait(&acceptor, Predict(1, i % 50));
    if (r.shed) hot_shed.fetch_add(1);
  }
  EXPECT_EQ(hot_shed.load(), 15);

  // Well-behaved tenant 4 still gets its full burst.
  std::atomic<int> cold_shed{0};
  for (int i = 0; i < 5; ++i) {
    FrontendResponse r = SubmitAndWait(&acceptor, Predict(4, i));
    if (r.shed) cold_shed.fetch_add(1);
  }
  EXPECT_EQ(cold_shed.load(), 0);
  acceptor.Drain();
}

// Under 2x overload with stalled workers the lanes must never exceed
// their configured depth — excess arrivals shed in O(1) — and every
// submission still gets exactly one answer.
TEST_F(ServerPlaneTest, BoundedQueuesNeverExceedCapacityUnderOverload) {
  constexpr size_t kCapacity = 4;
  AcceptorOptions options;
  options.dispatcher.read_queue_capacity = kCapacity;
  options.dispatcher.read_workers = 2;
  options.dispatcher.write_workers = 1;
  RequestAcceptor acceptor(options, frontend_.get());

  // Stall both read workers: their completion callbacks block on a
  // latch, so everything behind them piles into the read lane.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> stalled{0};
  std::atomic<int> completed{0};
  auto blocking_done = [&](FrontendResponse) {
    completed.fetch_add(1);
    stalled.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  acceptor.Submit(Predict(1, 1), blocking_done);
  acceptor.Submit(Predict(2, 2), blocking_done);
  while (stalled.load() < 2) std::this_thread::yield();

  // 2x overload: kCapacity fills the lane, kCapacity more must shed.
  std::atomic<int> shed{0};
  for (size_t i = 0; i < 2 * kCapacity; ++i) {
    EXPECT_LE(acceptor.dispatcher()->read_depth(), kCapacity);
    acceptor.Submit(Predict(3 + i, i % 50), [&](FrontendResponse response) {
      completed.fetch_add(1);
      if (response.shed) shed.fetch_add(1);
    });
  }
  EXPECT_LE(acceptor.dispatcher()->read_peak_depth(), kCapacity);
  EXPECT_EQ(shed.load(), static_cast<int>(kCapacity));
  EXPECT_EQ(acceptor.admission()->shed_queue_full(),
            static_cast<uint64_t>(kCapacity));

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  acceptor.Drain();
  // 100% availability: every submission answered exactly once.
  EXPECT_EQ(completed.load(), static_cast<int>(2 + 2 * kCapacity));
}

TEST_F(ServerPlaneTest, UnboundedQueueNeverShedsQueueFull) {
  AcceptorOptions options;
  options.dispatcher.read_queue_capacity = 0;  // the no-admission baseline
  options.dispatcher.write_queue_capacity = 0;
  RequestAcceptor acceptor(options, frontend_.get());
  std::atomic<int> completed{0};
  for (int i = 0; i < 200; ++i) {
    acceptor.Submit(Predict(i % 40, i % 50),
                    [&](FrontendResponse) { completed.fetch_add(1); });
  }
  acceptor.Drain();
  EXPECT_EQ(completed.load(), 200);
  EXPECT_EQ(acceptor.admission()->shed_queue_full(), 0u);
}

TEST_F(ServerPlaneTest, SubmitAfterStopStillAnswers) {
  AcceptorOptions options;
  RequestAcceptor acceptor(options, frontend_.get());
  acceptor.Stop();
  FrontendResponse response = SubmitAndWait(&acceptor, Predict(1, 2));
  // Answered inline off the degraded fast path; never dropped.
  EXPECT_TRUE(response.shed);
  EXPECT_TRUE(response.status.ok());
}

TEST_F(ServerPlaneTest, MetricsReportPublishesServerGauges) {
  AcceptorOptions options;
  RequestAcceptor acceptor(options, frontend_.get());
  acceptor.admission()->SetTenantLimit(30, 1.0, 0.0);
  (void)SubmitAndWait(&acceptor, Predict(1, 2));    // served
  (void)SubmitAndWait(&acceptor, Predict(30, 2));   // shed
  acceptor.Drain();

  MetricsRegistry registry;
  std::string report = acceptor.MetricsReport(&registry);
  EXPECT_EQ(registry.GetGauge("server.accepted")->value(), 1.0);
  EXPECT_EQ(registry.GetGauge("server.shed_total")->value(), 1.0);
  EXPECT_EQ(registry.GetGauge("server.shed_rate_limited")->value(), 1.0);
  EXPECT_NE(report.find("server.queue_depth.read"), std::string::npos);
  EXPECT_NE(report.find("server.served.p99_us"), std::string::npos);
  // The chained report still carries the frontend and node series.
  EXPECT_NE(report.find("frontend.requests"), std::string::npos);

  std::string text = acceptor.Report();
  EXPECT_NE(text.find("admission: on"), std::string::npos);
  EXPECT_NE(text.find("shed=1"), std::string::npos);
}

TEST_F(ServerPlaneTest, ShellServerCommandReportsAttachedPlane) {
  VeloxShell shell(server_.get(), {});
  auto unattached = shell.Execute("server");
  ASSERT_TRUE(unattached.ok());
  EXPECT_NE(unattached.value().find("no server plane attached"),
            std::string::npos);

  AcceptorOptions options;
  RequestAcceptor acceptor(options, frontend_.get());
  (void)SubmitAndWait(&acceptor, Predict(1, 2));
  acceptor.Drain();
  shell.AttachServingPlane(&acceptor);
  auto attached = shell.Execute("server");
  ASSERT_TRUE(attached.ok());
  EXPECT_NE(attached.value().find("server plane"), std::string::npos);
  EXPECT_NE(attached.value().find("accepted=1"), std::string::npos);
}

}  // namespace
}  // namespace velox
