// Per-layer numbers of the traced run, read from outside the program:
// the server's stage histograms and counters through their public
// getters, the acceptor's plane counters from each phase, and the
// frontend's latency getters. Nothing under src/ is instrumented for
// the benchmark.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "perfbench/open_loop.h"
#include "perfbench/perfbench.h"

namespace perfbench {

// Sums the server's per-layer state over the traced phases. Begin()
// resets the stage histograms and cache/network counters and records
// the monotone counters (storage client, ANN, WAL); End() folds the
// phase in.
class LayerStats {
 public:
  explicit LayerStats(velox::VeloxServer* server) : server_(server) {}

  void Begin();
  // Folds in `phase` and the acceptor counters it carries.
  void End(const PhaseResult& phase);

  // Emits every per-layer metric but the ann layer's. `frontend` is the
  // frontend that served only the traced phases.
  void ReportTo(const velox::VeloxFrontend& frontend, Report* report) const;

 private:
  struct Counters {
    velox::StorageClientStats storage;
    uint64_t wal_records = 0;
    uint64_t group_commits = 0;
  };
  Counters Read() const;

  velox::VeloxServer* server_;
  Counters before_;
  std::array<velox::HistogramData, velox::kNumStages> stages_;
  velox::ServerCacheStats cache_;
  velox::NetworkStats network_;
  uint64_t multiget_batches_ = 0;
  uint64_t multiget_keys_ = 0;
  uint64_t retries_ = 0;
  uint64_t wal_records_ = 0;
  uint64_t group_commits_ = 0;

  // Server plane.
  velox::HistogramData queue_wait_;
  velox::HistogramData batch_execute_;
  uint64_t sent_ = 0;
  uint64_t shed_ = 0;
  uint64_t dispatched_ = 0;
  uint64_t pops_ = 0;
  uint64_t aimd_backoffs_ = 0;
  size_t read_peak_ = 0;
  size_t write_peak_ = 0;
  // AIMD batch limits at the end of each phase, summed.
  double read_limit_sum_ = 0.0;
  double write_limit_sum_ = 0.0;
  uint64_t plane_phases_ = 0;
  std::vector<double> lateness_us_;
  // Over answered requests that were not shed (the requests that went
  // through queue and frontend): sums of their time from arrival as the
  // benchmark and as the acceptor timed it, and of generator lateness.
  uint64_t answered_ = 0;
  double answered_us_ = 0.0;
  double answered_plane_us_ = 0.0;
  double answered_lateness_us_ = 0.0;
};

// The ann layer, which no open-loop request reaches: times `uids.size()`
// full-catalog TopKAll(k=10, kAuto) calls one after another and reports
// their latency, the IVF stage histograms and the index's candidates
// and rescored rows per query. Checks that the index served every call.
void ReportAnnReplay(velox::VeloxServer* server, const std::vector<uint64_t>& uids,
                     SpanLog* spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
