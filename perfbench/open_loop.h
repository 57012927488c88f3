// Open-loop load generation for read_zipf and observe_durable: one
// generator thread submits a pre-generated request pool on a Poisson
// schedule through a fresh RequestAcceptor per phase, and every
// latency is timed from the request's scheduled arrival, so a stall
// is charged to every request due during it.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"

namespace perfbench {

// One request's answer, filled by its done callback.
struct Outcome {
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  // Hash of the whole response (status, items, score bits, flags).
  uint64_t digest = 0;
  bool answered = false;
  bool ok = false;
  bool shed = false;
  bool degraded = false;
  // The acceptor's own arrival-to-answer time (its clock reading, not
  // ours): the independent total of the latency add-up check.
  double plane_latency_us = 0.0;
};

uint64_t ResponseDigest(const velox::FrontendResponse& response);

struct PhaseResult {
  std::string name;
  double rate = 0.0;
  bool traced = false;
  std::vector<size_t> pool_index;  // the pool request sent in each slot
  std::vector<uint64_t> request_id;  // global submission order
  std::vector<velox::RequestType> type;
  std::vector<int64_t> arrival_ns;
  std::vector<Outcome> outcomes;

  // Counters of this phase's acceptor.
  uint64_t dispatched = 0;
  uint64_t pops = 0;
  uint64_t aimd_backoffs = 0;
  size_t read_peak = 0;
  size_t write_peak = 0;
  double read_batch_limit = 0.0;  // AIMD limits when the phase ended
  double write_batch_limit = 0.0;
  velox::HistogramData queue_wait;
  velox::HistogramData batch_execute;

  // Summary.
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;    // non-OK status
  uint64_t degraded = 0;  // OK but answered off the degradation ladder
  double lateness_p99_us = 0.0;
  double lateness_max_us = 0.0;
  double drain_us = 0.0;  // last answer minus last scheduled arrival
  // False when the generator fell behind its schedule by more than the
  // SLO: the phase measured the generator, so its latencies are left
  // out. Its sent, shed and failed requests still count.
  bool valid = true;
  std::vector<double> served_us;  // succeeded, not degraded, from arrival
  // served_us split by request type.
  std::vector<double> predict_us;
  std::vector<double> topk_us;
  std::vector<double> observe_us;

  const std::vector<double>& ServedOf(velox::RequestType t) const;

  double failed_share() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(shed + failed + degraded) /
                           static_cast<double>(sent);
  }
  std::string ToJson() const;
};

// Served p99 a ladder rung must meet, and the generator lateness past
// which a phase is invalid. 50 ms is Clipper's serving SLO.
constexpr double kSloUs = 50000.0;

class OpenLoop {
 public:
  // `pool` is the workload's pre-generated traffic; phases take
  // consecutive slices of it, wrapping around at the end.
  OpenLoop(const std::vector<velox::Request>* pool, uint64_t seed);

  // Runs `seconds` of Poisson arrivals at `rate` req/s through a fresh
  // acceptor in front of `frontend`. With `spans` set, records one
  // request span per request (the traced run).
  PhaseResult Run(const std::string& name, velox::VeloxFrontend* frontend,
                  double rate, double seconds, SpanLog* spans);

  // Valid, served p99 <= SLO, failed share <= 1%, and no backlog left
  // when the schedule ends (drain <= SLO).
  bool Meets(const PhaseResult& phase) const;

  // Highest rate on `ladder` (ascending req/s) whose phase meets the
  // SLO, by bisection; a rung is met when one of two probes meets it.
  // Appends every probe to `probes`. Returns half the lowest rung when
  // even that fails.
  double Sustained(velox::VeloxFrontend* frontend,
                   const std::vector<double>& ladder, double probe_seconds,
                   std::vector<PhaseResult>* probes);

 private:
  const std::vector<velox::Request>* pool_;
  velox::Rng rng_;
  size_t cursor_ = 0;
  uint64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
