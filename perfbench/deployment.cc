#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>

#include "perfbench/perfbench.h"

namespace perfbench {

using velox::PredictionService;
using velox::VeloxServer;

namespace {
constexpr size_t kAnnMinRows = 1000;
}  // namespace

Catalog MakeCatalog(int64_t num_users, int64_t num_items, double item_zipf,
                    int64_t min_ratings, int64_t max_ratings, uint64_t seed) {
  velox::SyntheticMovieLensConfig config;
  config.num_users = num_users;
  config.num_items = num_items;
  config.latent_rank = 10;
  config.zipf_exponent = item_zipf;
  config.min_ratings_per_user = min_ratings;
  config.max_ratings_per_user = max_ratings;
  config.seed = seed;
  auto data = velox::GenerateSyntheticMovieLens(config);
  if (!data.ok()) Fail("synthetic MovieLens: " + data.status().ToString());
  Catalog catalog;
  catalog.data = std::move(data).value();
  std::set<uint64_t> items;
  std::set<uint64_t> users;
  for (const velox::Observation& obs : catalog.data.ratings) {
    items.insert(obs.item_id);
    users.insert(obs.uid);
  }
  catalog.items.assign(items.begin(), items.end());
  catalog.users.assign(users.begin(), users.end());
  return catalog;
}

double PlantedLabel(const Catalog& catalog, uint64_t uid, uint64_t item,
                    velox::Rng* rng) {
  const velox::SyntheticMovieLensConfig& c = catalog.data.config;
  double raw = catalog.data.TrueScore(uid, item) + rng->Gaussian(0.0, c.noise_stddev);
  raw = std::clamp(raw, c.rating_min, c.rating_max);
  return std::round(raw * 2.0) / 2.0;
}

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

velox::AcceptorOptions PlaneOptions() {
  velox::AcceptorOptions options;
  options.dispatcher.write_workers = 1;
  // One core stays with the load generator, so the plane never makes
  // it late.
  options.dispatcher.read_workers = std::max(1u, Nproc() - 2);
  options.dispatcher.batch_max = 64;
  options.dispatcher.batch_delay_micros = 200;
  options.dispatcher.batch_slo_micros = 5000;
  return options;
}

velox::FrontendOptions FrontOptions() {
  velox::FrontendOptions options;
  // Requests reach the frontend through the acceptor's workers; its
  // own pool stays idle.
  options.num_threads = 1;
  options.topk_k = 10;
  return options;
}

std::unique_ptr<Deployment> SetUp(const Catalog& catalog, const std::string& wal_dir,
                                  const std::function<void(VeloxServer*)>& warmup) {
  if (!wal_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
    std::filesystem::create_directories(wal_dir, ec);
    if (ec) Fail("cannot create " + wal_dir + ": " + ec.message());
  }

  auto d = std::make_unique<Deployment>();
  velox::Stopwatch watch;
  velox::AlsConfig als;
  als.rank = 10;
  als.lambda = 0.1;
  als.iterations = 6;
  velox::VeloxServerConfig config;
  config.num_nodes = 2;
  config.dim = als.rank;
  config.distribute_item_features = true;
  // The workloads' catalogs have a few thousand items, far below the
  // shipped thresholds (32k rows to build the IVF index, 100k to serve
  // TopKAll from it). Lowered so the index is built at install, as it
  // would be for a production catalog, and serves full-catalog TopKAll.
  config.ann.min_items = kAnnMinRows;
  config.topk_auto_ann_min_rows = kAnnMinRows;
  config.durability.dir = wal_dir;
  config.durability.wal.sync = velox::WalSyncPolicy::kFsync;
  config.durability.wal.fsync_every_n = 1;
  // Bootstrap installs the trained version first; RecoverDurability
  // then attaches the (empty) journals so every later mutation is
  // journaled.
  config.durability.recover_on_start = false;
  d->server = std::make_unique<VeloxServer>(
      config, std::make_unique<velox::MatrixFactorizationModel>("perfbench", als));
  velox::Status status = d->server->Bootstrap(catalog.data.ratings);
  if (!status.ok()) Fail("bootstrap: " + status.ToString());
  if (!wal_dir.empty()) {
    auto recovered = d->server->RecoverDurability();
    if (!recovered.ok()) Fail("attach journals: " + recovered.status().ToString());
  }
  d->bootstrap_s = watch.ElapsedSeconds();

  watch.Restart();
  warmup(d->server.get());
  d->warmup_s = watch.ElapsedSeconds();
  return d;
}

std::unique_ptr<Deployment> TimedSetUp(const Catalog& catalog, const std::string& wal_dir,
                                       const std::function<void(VeloxServer*)>& warmup) {
  velox::Stopwatch watch;
  std::unique_ptr<Deployment> d = SetUp(catalog, wal_dir, warmup);
  d->setup_s = watch.ElapsedSeconds();
  return d;
}

void ReportSetup(const std::vector<std::unique_ptr<Deployment>>& deployments,
                 Report* report) {
  std::vector<const Deployment*> sorted;
  std::ostringstream all;
  all << "[";
  // Outside the two parts SetUp does only a little directory work.
  bool add_up = true;
  for (const auto& d : deployments) {
    const double parts = d->bootstrap_s + d->warmup_s;
    add_up = add_up && parts <= d->setup_s && d->setup_s - parts <= 0.01 * d->setup_s + 0.01;
    all << (sorted.empty() ? "" : ", ") << "{\"setup_s\": " << JsonNum(d->setup_s)
        << ", \"bootstrap_s\": " << JsonNum(d->bootstrap_s)
        << ", \"warmup_s\": " << JsonNum(d->warmup_s) << "}";
    sorted.push_back(d.get());
  }
  all << "]";
  report->Raw("setups", all.str());
  report->Check("setup_parts_add_up", add_up,
                "bootstrap_s + warmup_s within 1% + 10 ms under setup_s for each of " +
                    all.str());
  std::sort(sorted.begin(), sorted.end(),
            [](const Deployment* a, const Deployment* b) { return a->setup_s < b->setup_s; });
  // The median set-up, with its own two parts.
  const Deployment* median = sorted[sorted.size() / 2];
  const uint64_t n = sorted.size();
  report->Metric("setup_s", median->setup_s, "s", n);
  report->Metric("setup.bootstrap_s", median->bootstrap_s, "s", n);
  report->Metric("setup.warmup_s", median->warmup_s, "s", n);
}

void ReportRecall(VeloxServer* server, const std::vector<uint64_t>& uids,
                  Report* report) {
  size_t hits = 0;
  size_t total = 0;
  for (uint64_t uid : uids) {
    auto served = server->TopKAll(uid, 10, nullptr, PredictionService::TopKAllMode::kAuto);
    auto exact =
        server->TopKAll(uid, 10, nullptr, PredictionService::TopKAllMode::kPlaneSerial);
    if (!served.ok() || !exact.ok()) {
      report->Check("recall_queries", false,
                    "TopKAll failed for uid " + std::to_string(uid));
      return;
    }
    for (const velox::ScoredItem& e : exact.value().items) {
      ++total;
      for (const velox::ScoredItem& s : served.value().items) {
        if (s.item_id == e.item_id) {
          ++hits;
          break;
        }
      }
    }
  }
  report->Metric("recall_at_10",
                 total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total),
                 "ratio", uids.size());
}

void ReportHoldoutRmse(VeloxServer* server, const std::vector<Triple>& holdout,
                       Report* report) {
  double sq = 0.0;
  size_t errors = 0;
  for (const Triple& t : holdout) {
    velox::Item item;
    item.id = t.item;
    auto r = server->Predict(t.uid, item);
    if (!r.ok()) {
      ++errors;
      continue;
    }
    const double e = r.value().score - t.label;
    sq += e * e;
  }
  report->Check("holdout_predicts", errors == 0,
                std::to_string(errors) + " of " + std::to_string(holdout.size()) +
                    " held-out predicts failed");
  const size_t n = holdout.size() - errors;
  report->Metric("holdout_rmse", n == 0 ? 0.0 : std::sqrt(sq / static_cast<double>(n)),
                 "rating", n);
}

}  // namespace perfbench
