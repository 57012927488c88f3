#include "core/frontend.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"

namespace velox {

VeloxFrontend::VeloxFrontend(FrontendOptions options, VeloxServer* server)
    : options_(std::move(options)), server_(server), pool_(options_.num_threads) {
  VELOX_CHECK(server_ != nullptr);
  VELOX_CHECK_GT(options_.topk_k, 0u);
}

VeloxFrontend::~VeloxFrontend() { pool_.Shutdown(); }

Item VeloxFrontend::BuildItem(uint64_t item_id) const {
  if (options_.item_builder) return options_.item_builder(item_id);
  Item item;
  item.id = item_id;
  return item;
}

FrontendResponse VeloxFrontend::Handle(const Request& request) {
  return std::move(HandleBatch({&request}).front());
}

void VeloxFrontend::RecordOutcome(RequestType type,
                                  const FrontendResponse& response) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (!response.status.ok()) errors_.fetch_add(1, std::memory_order_relaxed);
  switch (type) {
    case RequestType::kPredict:
      predict_latency_.Record(response.latency_micros);
      break;
    case RequestType::kTopK:
      topk_latency_.Record(response.latency_micros);
      break;
    case RequestType::kObserve:
      observe_latency_.Record(response.latency_micros);
      break;
  }
}

std::vector<FrontendResponse> VeloxFrontend::HandleBatch(
    const std::vector<const Request*>& batch) {
  std::vector<FrontendResponse> out(batch.size());

  // Per-type dispatch. Predicts group by uid, in batch order, for
  // PredictBatch fusion below.
  std::vector<size_t> reads;
  std::vector<size_t> topks;
  std::vector<size_t> observes;
  std::vector<std::pair<uint64_t, std::vector<size_t>>> predict_groups;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Request& r = *batch[i];
    switch (r.type) {
      case RequestType::kPredict: {
        if (r.items.empty()) {
          out[i].status = Status::InvalidArgument("predict requires an item");
          RecordOutcome(r.type, out[i]);
          break;
        }
        reads.push_back(i);
        auto it = std::find_if(predict_groups.begin(), predict_groups.end(),
                               [&](const auto& g) { return g.first == r.uid; });
        if (it == predict_groups.end()) {
          predict_groups.push_back({r.uid, {i}});
        } else {
          it->second.push_back(i);
        }
        break;
      }
      case RequestType::kTopK:
        reads.push_back(i);
        topks.push_back(i);
        break;
      case RequestType::kObserve:
        if (r.items.empty()) {
          out[i].status = Status::InvalidArgument("observe requires an item");
          RecordOutcome(r.type, out[i]);
          break;
        }
        observes.push_back(i);
        break;
    }
  }

  // Phase 1: one coalesced feature resolve for the union of items the
  // batch's reads will touch. Purely a warm — failures degrade
  // per-request exactly as they would singleton. A lone read request
  // skips it: its own path resolves the same items in one batch, so
  // the warm would only resolve them twice.
  if (reads.size() > 1) {
    std::vector<std::pair<uint64_t, Item>> items;
    for (size_t i : reads) {
      const Request& r = *batch[i];
      const size_t n = r.type == RequestType::kPredict ? 1 : r.items.size();
      for (size_t j = 0; j < n; ++j) items.emplace_back(r.uid, BuildItem(r.items[j]));
    }
    server_->WarmReadFeatures(items);
  }

  // Phase 2: reads. Each uid's predicts run as one PredictBatch (a lone
  // predict is a batch of one); fused requests record their amortized
  // latency share. Returns false, answering nothing, when a group of
  // two or more fails as a whole.
  auto serve_predicts = [&](uint64_t uid, const std::vector<size_t>& slots) {
    Stopwatch watch;
    std::vector<Item> items;
    items.reserve(slots.size());
    for (size_t slot : slots) items.push_back(BuildItem(batch[slot]->items[0]));
    auto scored = server_->PredictBatch(uid, items);
    if (!scored.ok() && slots.size() > 1) return false;
    const double share = watch.ElapsedMicros() / static_cast<double>(slots.size());
    for (size_t j = 0; j < slots.size(); ++j) {
      FrontendResponse& response = out[slots[j]];
      response.status = scored.status();
      if (scored.ok()) response.items.push_back(scored.value()[j]);
      response.latency_micros = share;
      RecordOutcome(RequestType::kPredict, response);
    }
    return true;
  };
  for (const auto& [uid, slots] : predict_groups) {
    if (serve_predicts(uid, slots)) continue;
    // Whole-group error (e.g. one item's definitive NotFound): serve
    // each predict as a batch of one so one request's failure cannot
    // leak into its batchmates' responses.
    for (size_t slot : slots) serve_predicts(uid, {slot});
  }
  for (size_t i : topks) {
    const Request& r = *batch[i];
    Stopwatch watch;
    std::vector<Item> candidates;
    candidates.reserve(r.items.size());
    for (uint64_t id : r.items) candidates.push_back(BuildItem(id));
    auto result = server_->TopK(r.uid, candidates, options_.topk_k);
    FrontendResponse& response = out[i];
    response.status = result.status();
    if (result.ok()) {
      response.items = std::move(result.value().items);
      response.top_is_exploratory = result.value().top_is_exploratory;
    }
    response.latency_micros = watch.ElapsedMicros();
    RecordOutcome(RequestType::kTopK, response);
  }

  // Phase 3: writes, in batch order, inside one WAL group-commit window
  // per node — acks (the returned statuses) only after the sync. A lone
  // observe opens no window and syncs exactly as Observe does.
  if (!observes.empty()) {
    Stopwatch watch;
    std::vector<VeloxServer::ObserveOp> ops(observes.size());
    for (size_t j = 0; j < observes.size(); ++j) {
      const Request& r = *batch[observes[j]];
      ops[j].uid = r.uid;
      ops[j].item = BuildItem(r.items[0]);
      ops[j].label = r.label;
    }
    std::vector<Status> statuses = server_->ObserveBatch(ops);
    const double share = watch.ElapsedMicros() / static_cast<double>(observes.size());
    for (size_t j = 0; j < observes.size(); ++j) {
      FrontendResponse& response = out[observes[j]];
      response.status = statuses[j];
      response.latency_micros = share;
      RecordOutcome(RequestType::kObserve, response);
    }
  }
  return out;
}

Result<std::vector<TopKResult>> VeloxFrontend::HandleTopKAllBatch(
    const std::vector<uint64_t>& uids) {
  Stopwatch watch;
  auto results = server_->TopKAllBatch(uids, options_.topk_k);
  double elapsed = watch.ElapsedMicros();
  size_t n = std::max<size_t>(1, uids.size());
  requests_.fetch_add(uids.size(), std::memory_order_relaxed);
  if (!results.ok()) {
    errors_.fetch_add(uids.size(), std::memory_order_relaxed);
  } else {
    // Amortized per-user latency: the batch's point is that the shared
    // version/plane work is paid once, which this records.
    for (size_t i = 0; i < uids.size(); ++i) {
      topk_latency_.Record(elapsed / static_cast<double>(n));
    }
  }
  return results;
}

void VeloxFrontend::SubmitAsync(Request request,
                                std::function<void(FrontendResponse)> done) {
  // `done` stays copyable here (not moved into the closure) so a
  // rejected submit can still complete the callback: every SubmitAsync
  // invokes `done` exactly once, shutdown race included.
  bool accepted = pool_.Submit([this, request = std::move(request), done] {
    FrontendResponse response = Handle(request);
    if (done) done(std::move(response));
  });
  if (!accepted) {
    // Pool is shutting down: the request was not enqueued. Answer with
    // a rejection instead of crashing (old behavior) or dropping the
    // callback.
    requests_.fetch_add(1, std::memory_order_relaxed);
    errors_.fetch_add(1, std::memory_order_relaxed);
    if (done) {
      FrontendResponse response;
      response.status = Status::Unavailable("frontend is shutting down");
      done(std::move(response));
    }
  }
}

void VeloxFrontend::Drain() { pool_.WaitIdle(); }

uint64_t VeloxFrontend::requests_served() const {
  return requests_.load(std::memory_order_relaxed);
}

uint64_t VeloxFrontend::errors() const {
  return errors_.load(std::memory_order_relaxed);
}

std::string VeloxFrontend::MetricsReport(MetricsRegistry* registry) const {
  MetricsRegistry scratch;
  MetricsRegistry* target = registry != nullptr ? registry : &scratch;

  const std::pair<const char*, const Histogram*> types[] = {
      {"predict", &predict_latency_},
      {"topk", &topk_latency_},
      {"observe", &observe_latency_},
  };
  for (const auto& [name, histogram] : types) {
    HistogramSnapshot snap = histogram->Snapshot();
    if (snap.count == 0) continue;
    std::string prefix = std::string("frontend.") + name + ".";
    target->GetGauge(prefix + "count")->Set(static_cast<double>(snap.count));
    target->GetGauge(prefix + "mean_us")->Set(snap.mean);
    target->GetGauge(prefix + "p50_us")->Set(snap.p50);
    target->GetGauge(prefix + "p95_us")->Set(snap.p95);
    target->GetGauge(prefix + "p99_us")->Set(snap.p99);
  }
  target->GetGauge("frontend.requests")
      ->Set(static_cast<double>(requests_served()));
  target->GetGauge("frontend.errors")->Set(static_cast<double>(errors()));

  // The server contributes its caches/network/quality series and the
  // per-stage breakdown; one call yields the whole export.
  return server_->MetricsReport(target);
}

}  // namespace velox
