// VeloxFrontend — the request-facing layer standing in for the
// prototype's RESTful interface (§8): a thread pool executing Listing 1
// requests against a VeloxServer, with per-request-type latency
// histograms. Examples and closed-loop benchmarks drive the system
// through this class. Every request runs through one path, HandleBatch:
// a single request is a batch of one.
#ifndef VELOX_CORE_FRONTEND_H_
#define VELOX_CORE_FRONTEND_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/velox_server.h"
#include "data/workload.h"

namespace velox {

struct FrontendResponse {
  Status status;
  // Scored results: one entry for predict, up to k for topK, empty for
  // observe.
  std::vector<ScoredItem> items;
  // Whether a topK response's head pick was exploratory (echoed back on
  // the matching observe to feed the validation pool).
  bool top_is_exploratory = false;
  // True when the server plane answered this request off the degraded
  // fast path instead of the full pipeline (admission shed). Scores, if
  // any, are degradation-ladder answers; an observe's update was
  // dropped. Items additionally carry per-item `degraded` flags.
  bool shed = false;
  double latency_micros = 0.0;
};

struct FrontendOptions {
  size_t num_threads = 4;
  // k returned by topK requests.
  size_t topk_k = 10;
  // Builds Item.attributes for computational models; default leaves
  // attributes empty (materialized models ignore them).
  std::function<Item(uint64_t item_id)> item_builder;
};

class VeloxFrontend {
 public:
  VeloxFrontend(FrontendOptions options, VeloxServer* server);
  ~VeloxFrontend();

  // Executes one request synchronously on the calling thread: a batch
  // of one, HandleBatch({&request}).
  FrontendResponse Handle(const Request& request);

  // Executes a batch of requests (a cross-request batch formed by the
  // server plane's dispatcher, or one request) in one call, returning
  // one response per request in input order. This is the only request
  // path: it holds the per-type dispatch and validation, and a batch's
  // responses are bit-identical (status / items / flags) to handling
  // each request as a batch of one. The amortization is invisible to
  // clients:
  //   * when two or more read requests share the batch, the union of
  //     items they touch pre-resolves through one coalesced batch fetch
  //     per node (VeloxServer::WarmReadFeatures),
  //   * predicts from the same uid run as one PredictBatch call (a lone
  //     predict is a PredictBatch of one); a group that fails as a
  //     whole is re-run as one PredictBatch per request so per-request
  //     error isolation survives fusion,
  //   * observes apply in order inside one WAL group-commit window per
  //     node (VeloxServer::ObserveBatch) — one sync per batch, acks
  //     only after it; a lone observe opens no window.
  // Fused requests record their amortized latency share (the same
  // convention HandleTopKAllBatch uses); all counters advance exactly
  // as when each request is handled alone.
  std::vector<FrontendResponse> HandleBatch(
      const std::vector<const Request*>& batch);

  // Full-catalog top-K for a batch of users in one call (options_.
  // topk_k items each): the server resolves the model version and
  // scoring plane once and reuses them across the whole batch. Counts
  // one topK request per uid in the latency/throughput stats.
  Result<std::vector<TopKResult>> HandleTopKAllBatch(const std::vector<uint64_t>& uids);

  // Enqueues a request on the pool; `done` runs on a worker thread.
  void SubmitAsync(Request request, std::function<void(FrontendResponse)> done);

  // Blocks until all queued requests finish.
  void Drain();

  HistogramSnapshot PredictLatency() const { return predict_latency_.Snapshot(); }
  HistogramSnapshot TopKLatency() const { return topk_latency_.Snapshot(); }
  HistogramSnapshot ObserveLatency() const { return observe_latency_.Snapshot(); }
  uint64_t requests_served() const;
  uint64_t errors() const;

  // Publishes the frontend's per-request-type latency percentiles
  // (under "frontend.<type>.*") plus the server's full metric set —
  // including the per-stage latency breakdown — into `registry`
  // (nullptr = private scratch) and returns the textual report.
  std::string MetricsReport(MetricsRegistry* registry = nullptr) const;

  // The wrapped server and the options in force — the server plane's
  // acceptor answers shed requests through these (degraded fast path,
  // same k as the real topK handler).
  VeloxServer* server() const { return server_; }
  const FrontendOptions& options() const { return options_; }

 private:
  Item BuildItem(uint64_t item_id) const;

  // Request accounting for every answered request: bumps
  // requests_/errors_ and records `latency_micros` (already set on the
  // response) into the type's latency histogram.
  void RecordOutcome(RequestType type, const FrontendResponse& response);

  FrontendOptions options_;
  VeloxServer* server_;
  ThreadPool pool_;
  Histogram predict_latency_;
  Histogram topk_latency_;
  Histogram observe_latency_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
};

}  // namespace velox

#endif  // VELOX_CORE_FRONTEND_H_
