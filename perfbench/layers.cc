#include "perfbench/layers.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace perfbench {

using velox::HistogramData;
using velox::Stage;

namespace {

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// The stages whose percentiles are per-layer metrics, in the order
// README.md lists them.
constexpr Stage kReportedStages[] = {
    Stage::kPredictionCacheProbe, Stage::kFeatureResolveLocal,
    Stage::kFeatureResolveRemote, Stage::kUserWeightLookup,
    Stage::kKernelScore,          Stage::kBanditOrder,
    Stage::kOnlineSolve,          Stage::kPersist,
};

void Percentiles(const std::string& name, const HistogramData& h, Report* report) {
  const bool any = h.count() > 0;
  report->Metric(name + ".p50", any ? h.Quantile(0.50) : 0.0, "us", h.count());
  report->Metric(name + ".p99", any ? h.Quantile(0.99) : 0.0, "us", h.count());
}

void Percentiles(const std::string& name, const velox::HistogramSnapshot& s,
                 Report* report) {
  report->Metric(name + ".p50", s.p50, "us", s.count);
  report->Metric(name + ".p99", s.p99, "us", s.count);
}

}  // namespace

LayerStats::Counters LayerStats::Read() const {
  Counters c;
  c.storage = server_->AggregatedStorageStats();
  for (int n = 0; n < server_->config().num_nodes; ++n) {
    const velox::UserWeightJournal* journal = server_->user_weight_journal(n);
    if (journal == nullptr) continue;
    c.wal_records += journal->appends();
    c.group_commits += journal->group_commits();
  }
  return c;
}

void LayerStats::Begin() {
  server_->ResetStageStats();
  server_->ResetCacheStats();
  server_->ResetNetworkStats();
  before_ = Read();
}

void LayerStats::End(const PhaseResult& phase) {
  for (int s = 0; s < velox::kNumStages; ++s) {
    stages_[static_cast<size_t>(s)].Merge(server_->StageData(static_cast<Stage>(s)));
  }
  const velox::ServerCacheStats cache = server_->AggregatedCacheStats();
  for (auto [sum, add] : {std::pair{&cache_.feature, &cache.feature},
                          std::pair{&cache_.prediction, &cache.prediction}}) {
    sum->hits += add->hits;
    sum->misses += add->misses;
    sum->invalidations += add->invalidations;
  }
  const velox::NetworkStats net = server_->NetworkStatistics();
  network_.remote_messages += net.remote_messages;
  network_.batched_messages += net.batched_messages;
  network_.batched_keys += net.batched_keys;
  network_.charged_nanos += net.charged_nanos;

  const Counters after = Read();
  multiget_batches_ += after.storage.multiget_batches - before_.storage.multiget_batches;
  multiget_keys_ += after.storage.multiget_keys - before_.storage.multiget_keys;
  retries_ += after.storage.retries - before_.storage.retries;
  wal_records_ += after.wal_records - before_.wal_records;
  group_commits_ += after.group_commits - before_.group_commits;

  queue_wait_.Merge(phase.queue_wait);
  batch_execute_.Merge(phase.batch_execute);
  sent_ += phase.sent;
  shed_ += phase.shed;
  dispatched_ += phase.dispatched;
  pops_ += phase.pops;
  aimd_backoffs_ += phase.aimd_backoffs;
  read_peak_ = std::max(read_peak_, phase.read_peak);
  write_peak_ = std::max(write_peak_, phase.write_peak);
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    const double lateness = static_cast<double>(o.submit_ns - phase.arrival_ns[i]) / 1e3;
    lateness_us_.push_back(lateness);
    if (o.shed) continue;
    ++answered_;
    answered_us_ += static_cast<double>(o.done_ns - phase.arrival_ns[i]) / 1e3;
    answered_plane_us_ += o.plane_latency_us;
    answered_lateness_us_ += lateness;
  }
  read_limit_sum_ += phase.read_batch_limit;
  write_limit_sum_ += phase.write_batch_limit;
  ++plane_phases_;
}

void LayerStats::ReportTo(const velox::VeloxFrontend& frontend, Report* report) const {
  const double requests = static_cast<double>(sent_);

  // server: acceptor, admission, dispatcher, bounded queues.
  Percentiles("server.queue_wait_us", queue_wait_, report);
  report->Metric("server.batch_execute_us.p99",
                 batch_execute_.count() > 0 ? batch_execute_.Quantile(0.99) : 0.0, "us",
                 batch_execute_.count());
  report->Metric("server.batch_size.mean",
                 Ratio(static_cast<double>(dispatched_), static_cast<double>(pops_)), "req",
                 pops_);
  report->Metric("server.batch_limit.read",
                 Ratio(read_limit_sum_, static_cast<double>(plane_phases_)), "req",
                 plane_phases_);
  report->Metric("server.batch_limit.write",
                 Ratio(write_limit_sum_, static_cast<double>(plane_phases_)), "req",
                 plane_phases_);
  report->Metric("server.aimd_backoffs", static_cast<double>(aimd_backoffs_), "count",
                 pops_);
  report->Metric("server.read_peak_depth", static_cast<double>(read_peak_), "req", sent_);
  report->Metric("server.write_peak_depth", static_cast<double>(write_peak_), "req", sent_);
  report->Metric("server.shed_share",
                 Ratio(static_cast<double>(shed_), static_cast<double>(sent_)), "ratio",
                 sent_);
  report->Metric("loadgen.lateness_us.p99", Quantile(lateness_us_, 0.99), "us",
                 lateness_us_.size());
  report->Metric("loadgen.lateness_us.max",
                 lateness_us_.empty()
                     ? 0.0
                     : *std::max_element(lateness_us_.begin(), lateness_us_.end()),
                 "us", lateness_us_.size());

  // core.frontend: its own latency getters, and the part of the
  // served latency no layer accounts for. A request of a fused batch
  // is recorded with the batch's time divided by its size, but waits
  // for the whole batch before its answer: handle_mean is an amortized
  // share, and the rest of the batch's time lands in unattributed.
  const velox::HistogramSnapshot predict = frontend.PredictLatency();
  const velox::HistogramSnapshot topk = frontend.TopKLatency();
  const velox::HistogramSnapshot observe = frontend.ObserveLatency();
  Percentiles("frontend.predict_us", predict, report);
  Percentiles("frontend.topk_us", topk, report);
  Percentiles("frontend.observe_us", observe, report);
  const uint64_t handled = predict.count + topk.count + observe.count;
  const double handle_mean =
      Ratio(predict.mean * static_cast<double>(predict.count) +
                topk.mean * static_cast<double>(topk.count) +
                observe.mean * static_cast<double>(observe.count),
            static_cast<double>(handled));
  const double answered = static_cast<double>(answered_);
  const double queue_mean =
      Ratio(queue_wait_.sum(), static_cast<double>(queue_wait_.count()));
  const double served_mean = Ratio(answered_us_, answered);
  const double plane_mean = Ratio(answered_plane_us_, answered);
  const double lateness_mean = Ratio(answered_lateness_us_, answered);
  const double unattributed = served_mean - lateness_mean - queue_mean - handle_mean;
  report->Metric("request.mean_us", served_mean, "us", answered_);
  report->Metric("frontend.handle_mean_us", handle_mean, "us", handled);
  report->Metric("frontend.unattributed_us", unattributed, "us", answered_);
  // The unattributed part is the remainder, so what can be checked is
  // what was timed independently: the total from arrival as the
  // benchmark and as the acceptor timed it must agree, and the parts
  // nested inside it (generator lateness, the dispatcher's queue wait,
  // the frontend's handle time) must fit inside the acceptor's total.
  const bool totals_agree = std::fabs(served_mean - plane_mean) <= 0.01 * served_mean + 1.0;
  const bool parts_fit = lateness_mean + queue_mean + handle_mean <= plane_mean;
  const bool same_requests = queue_wait_.count() == answered_ && handled == answered_;
  report->Check("latency_parts_add_up", totals_agree && parts_fit && same_requests,
                "over " + std::to_string(answered_) + " answered requests (queue_wait " +
                    std::to_string(queue_wait_.count()) + ", handled " +
                    std::to_string(handled) + "): lateness " + JsonNum(lateness_mean) +
                    " + queue_wait " + JsonNum(queue_mean) + " + handle " +
                    JsonNum(handle_mean) + " + unattributed " + JsonNum(unattributed) +
                    " = served mean " + JsonNum(served_mean) +
                    " us; the acceptor timed " + JsonNum(plane_mean) + " us");

  // core scoring and write paths, linalg: stage histograms.
  for (Stage stage : kReportedStages) {
    Percentiles(std::string("stage.") + velox::StageName(stage) + "_us",
                stages_[static_cast<size_t>(stage)], report);
  }
  const velox::CacheStats& pc = cache_.prediction;
  const velox::CacheStats& fc = cache_.feature;
  report->Metric("cache.prediction.hit_ratio",
                 Ratio(static_cast<double>(pc.hits), static_cast<double>(pc.hits + pc.misses)),
                 "ratio", pc.hits + pc.misses);
  report->Metric("cache.prediction.invalidations", static_cast<double>(pc.invalidations),
                 "count", pc.hits + pc.misses);
  report->Metric("cache.feature.hit_ratio",
                 Ratio(static_cast<double>(fc.hits), static_cast<double>(fc.hits + fc.misses)),
                 "ratio", fc.hits + fc.misses);

  // storage: WAL and storage client. Observes of a fused write batch
  // share one group commit per node journal; a write popped alone syncs
  // on its own and no public counter sees that sync, so records per
  // sync cannot be read from outside.
  report->Metric("wal.records", static_cast<double>(wal_records_), "count", wal_records_);
  report->Metric("wal.group_commits", static_cast<double>(group_commits_), "count",
                 group_commits_);
  report->Metric("storage.multiget_keys_per_batch",
                 Ratio(static_cast<double>(multiget_keys_),
                       static_cast<double>(multiget_batches_)),
                 "keys", multiget_batches_);
  report->Metric("storage.retries", static_cast<double>(retries_), "count", sent_);

  // cluster: simulated network (charged, never waited out).
  report->Metric("network.remote_messages_per_req",
                 Ratio(static_cast<double>(network_.remote_messages), requests), "msgs",
                 sent_);
  report->Metric("network.batched_keys_per_msg",
                 Ratio(static_cast<double>(network_.batched_keys),
                       static_cast<double>(network_.batched_messages)),
                 "keys", network_.batched_messages);
  report->Metric("network.charged_us_per_req",
                 Ratio(static_cast<double>(network_.charged_nanos) / 1e3, requests), "us",
                 sent_);

}

void ReportAnnReplay(velox::VeloxServer* server, const std::vector<uint64_t>& uids,
                     SpanLog* spans, Report* report) {
  velox::Clock* clock = velox::SteadyClock::Default();
  server->ResetStageStats();
  const velox::VeloxServer::AnnServeStats before = server->AggregatedAnnStats();
  std::vector<double> call_us;
  uint64_t errors = 0;
  for (size_t i = 0; i < uids.size(); ++i) {
    const int64_t start = clock->NowNanos();
    const auto result = server->TopKAll(uids[i], 10, nullptr,
                                        velox::PredictionService::TopKAllMode::kAuto);
    const int64_t end = clock->NowNanos();
    errors += result.ok() ? 0 : 1;
    call_us.push_back(static_cast<double>(end - start) / 1e3);
    spans->Add({2'000'000'000ULL + i, "topk_all", "", start, end, "ann_replay"});
  }
  const velox::VeloxServer::AnnServeStats after = server->AggregatedAnnStats();
  const uint64_t queries = after.queries - before.queries;
  report->Check("ann_index_serves_topk_all", errors == 0 && queries == uids.size(),
                std::to_string(queries) + " of " + std::to_string(uids.size()) +
                    " TopKAll(kAuto) calls served by the IVF index, " +
                    std::to_string(errors) + " failed");
  report->Metric("ann.topk_all_us.p50", Quantile(call_us, 0.50), "us", call_us.size());
  report->Metric("ann.topk_all_us.p99", Quantile(call_us, 0.99), "us", call_us.size());
  for (Stage stage : {Stage::kAnnCandidateProbe, Stage::kAnnRescore}) {
    Percentiles(std::string("stage.") + velox::StageName(stage) + "_us",
                server->StageData(stage), report);
  }
  const double n = static_cast<double>(queries);
  report->Metric("ann.candidates_per_query",
                 Ratio(static_cast<double>(after.candidates - before.candidates), n), "rows",
                 queries);
  report->Metric("ann.rescored_per_query",
                 Ratio(static_cast<double>(after.rescored - before.rescored), n), "rows",
                 queries);
}

}  // namespace perfbench
