#include "perfbench/open_loop.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>

namespace perfbench {

using velox::FrontendResponse;
using velox::Request;
using velox::RequestAcceptor;
using velox::RequestType;
using velox::SteadyClock;

namespace {

// How long before each arrival the generator stops sleeping and spins.
constexpr int64_t kSpinNs = 200'000;

uint64_t Mix(uint64_t h, uint64_t v) {
  // FNV-1a over the value's bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

}  // namespace

uint64_t ResponseDigest(const FrontendResponse& response) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Mix(h, static_cast<uint64_t>(response.status.code()));
  h = Mix(h, response.top_is_exploratory ? 1 : 0);
  h = Mix(h, response.items.size());
  for (const velox::ScoredItem& item : response.items) {
    h = Mix(h, item.item_id);
    h = Mix(h, Bits(item.score));
    h = Mix(h, Bits(item.uncertainty));
    h = Mix(h, item.degraded ? 1 : 0);
  }
  return h;
}

const std::vector<double>& PhaseResult::ServedOf(RequestType t) const {
  switch (t) {
    case RequestType::kPredict:
      return predict_us;
    case RequestType::kTopK:
      return topk_us;
    case RequestType::kObserve:
      break;
  }
  return observe_us;
}

std::string PhaseResult::ToJson() const {
  std::ostringstream o;
  o << "{\"name\": " << JsonString(name) << ", \"rate_rps\": " << JsonNum(rate)
    << ", \"traced\": " << (traced ? "true" : "false")
    << ", \"valid\": " << (valid ? "true" : "false") << ", \"sent\": " << sent
    << ", \"succeeded\": " << succeeded << ", \"shed\": " << shed
    << ", \"failed\": " << failed << ", \"degraded\": " << degraded
    << ", \"served_p50_us\": " << JsonNum(Quantile(served_us, 0.50))
    << ", \"served_p90_us\": " << JsonNum(Quantile(served_us, 0.90))
    << ", \"served_p99_us\": " << JsonNum(Quantile(served_us, 0.99))
    << ", \"served_samples\": " << served_us.size()
    << ", \"predict_p50_us\": " << JsonNum(Quantile(predict_us, 0.50))
    << ", \"predict_samples\": " << predict_us.size()
    << ", \"topk_p50_us\": " << JsonNum(Quantile(topk_us, 0.50))
    << ", \"topk_samples\": " << topk_us.size()
    << ", \"observe_p50_us\": " << JsonNum(Quantile(observe_us, 0.50))
    << ", \"observe_p99_us\": " << JsonNum(Quantile(observe_us, 0.99))
    << ", \"observe_samples\": " << observe_us.size()
    << ", \"lateness_p99_us\": " << JsonNum(lateness_p99_us)
    << ", \"lateness_max_us\": " << JsonNum(lateness_max_us)
    << ", \"drain_us\": " << JsonNum(drain_us)
    << ", \"read_peak_depth\": " << read_peak
    << ", \"write_peak_depth\": " << write_peak << "}";
  return o.str();
}

OpenLoop::OpenLoop(const std::vector<Request>* pool, uint64_t seed)
    : pool_(pool), rng_(seed) {
  if (pool_->empty()) Fail("open loop needs a non-empty request pool");
}

PhaseResult OpenLoop::Run(const std::string& name, velox::VeloxFrontend* frontend,
                          double rate, double seconds, SpanLog* spans) {
  PhaseResult phase;
  phase.name = name;
  phase.rate = rate;
  phase.traced = spans != nullptr;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds)));

  // Everything the hot loop needs is drawn and copied before the clock
  // starts: arrival offsets, the requests themselves, the answer slots.
  std::vector<int64_t> offsets(n);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng_.UniformDouble()) / rate;
    offsets[i] = static_cast<int64_t>(t * 1e9);
  }
  std::vector<Request> requests;
  requests.reserve(n);
  phase.pool_index.resize(n);
  phase.request_id.resize(n);
  phase.type.resize(n);
  for (size_t i = 0; i < n; ++i) {
    phase.pool_index[i] = cursor_;
    phase.request_id[i] = next_id_++;
    phase.type[i] = (*pool_)[cursor_].type;
    requests.push_back((*pool_)[cursor_]);
    cursor_ = (cursor_ + 1) % pool_->size();
  }
  phase.arrival_ns.resize(n);
  phase.outcomes.resize(n);

  velox::Clock* clock = SteadyClock::Default();
  {
    RequestAcceptor acceptor(PlaneOptions(), frontend);
    // Sleeps end when asked, not up to 50 us later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const int64_t start = clock->NowNanos();
    for (size_t i = 0; i < n; ++i) {
      const int64_t arrival = start + offsets[i];
      // Sleep to shortly before the arrival, then busy-wait. A
      // generator that only slept woke up to several ms late on a
      // virtualised host; one that only spun kept a vCPU busy the
      // whole phase and was preempted by the host for ms at a time.
      if (arrival - clock->NowNanos() > kSpinNs) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(arrival - kSpinNs - clock->NowNanos()));
      }
      while (clock->NowNanos() < arrival) {
      }
      Outcome* slot = &phase.outcomes[i];
      phase.arrival_ns[i] = arrival;
      slot->submit_ns = clock->NowNanos();
      acceptor.SubmitAt(std::move(requests[i]), arrival,
                        [slot](FrontendResponse response) {
                          slot->done_ns = SteadyClock::Default()->NowNanos();
                          slot->digest = ResponseDigest(response);
                          slot->ok = response.status.ok();
                          slot->shed = response.shed;
                          slot->plane_latency_us = response.latency_micros;
                          for (const velox::ScoredItem& item : response.items) {
                            slot->degraded = slot->degraded || item.degraded;
                          }
                          slot->answered = true;
                        });
    }
    acceptor.Drain();

    velox::RequestDispatcher* dispatcher = acceptor.dispatcher();
    phase.dispatched = dispatcher->dispatched();
    phase.pops = dispatcher->batches_formed() + dispatcher->batch_singletons();
    phase.aimd_backoffs = dispatcher->aimd_backoffs();
    phase.read_peak = dispatcher->read_peak_depth();
    phase.write_peak = dispatcher->write_peak_depth();
    phase.read_batch_limit = dispatcher->read_batch_limit();
    phase.write_batch_limit = dispatcher->write_batch_limit();
    phase.queue_wait = acceptor.plane_stages()->Data(velox::Stage::kQueueWait);
    phase.batch_execute = acceptor.plane_stages()->Data(velox::Stage::kBatchExecute);
  }

  std::vector<double> lateness;
  lateness.reserve(n);
  int64_t last_done = 0;
  for (size_t i = 0; i < n; ++i) {
    const Outcome& o = phase.outcomes[i];
    lateness.push_back(static_cast<double>(o.submit_ns - phase.arrival_ns[i]) / 1e3);
    if (!o.answered) Fail("request " + std::to_string(i) + " of " + name +
                          " was never answered");
    last_done = std::max(last_done, o.done_ns);
    ++phase.sent;
    if (o.shed) {
      ++phase.shed;
      continue;
    }
    if (!o.ok) {
      ++phase.failed;
      continue;
    }
    if (o.degraded) {
      ++phase.degraded;
      continue;
    }
    ++phase.succeeded;
    const double us = static_cast<double>(o.done_ns - phase.arrival_ns[i]) / 1e3;
    phase.served_us.push_back(us);
    switch (phase.type[i]) {
      case RequestType::kPredict:
        phase.predict_us.push_back(us);
        break;
      case RequestType::kTopK:
        phase.topk_us.push_back(us);
        break;
      case RequestType::kObserve:
        phase.observe_us.push_back(us);
        break;
    }
  }
  phase.lateness_p99_us = Quantile(lateness, 0.99);
  phase.lateness_max_us = *std::max_element(lateness.begin(), lateness.end());
  phase.drain_us = static_cast<double>(last_done - phase.arrival_ns.back()) / 1e3;
  phase.valid = phase.lateness_max_us <= kSloUs;

  if (spans != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      const Outcome& o = phase.outcomes[i];
      spans->Add({phase.request_id[i], "loadgen.lateness", "",
                  phase.arrival_ns[i], o.submit_ns, name});
      spans->Add({phase.request_id[i], "request", "", o.submit_ns, o.done_ns, name});
    }
  }
  return phase;
}

bool OpenLoop::Meets(const PhaseResult& phase) const {
  return phase.valid && !phase.served_us.empty() &&
         Quantile(phase.served_us, 0.99) <= kSloUs &&
         phase.failed_share() <= 0.01 && phase.drain_us <= kSloUs;
}

double OpenLoop::Sustained(velox::VeloxFrontend* frontend,
                           const std::vector<double>& ladder, double probe_seconds,
                           std::vector<PhaseResult>* probes) {
  // Invariant: ladder[lo] met the SLO (lo = -1: none yet), ladder[hi]
  // did not (hi = size: above the ladder).
  int lo = -1;
  int hi = static_cast<int>(ladder.size());
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    const double rate = ladder[static_cast<size_t>(mid)];
    // A failed probe is re-run once: one host stall during a short
    // probe would otherwise cut the bisection's answer by half a ladder.
    bool met = false;
    for (int attempt = 0; attempt < 2 && !met; ++attempt) {
      probes->push_back(Run("probe_" + std::to_string(static_cast<int64_t>(rate)),
                            frontend, rate, probe_seconds, nullptr));
      met = Meets(probes->back());
    }
    (met ? lo : hi) = mid;
  }
  return lo < 0 ? 0.5 * ladder.front() : ladder[static_cast<size_t>(lo)];
}

}  // namespace perfbench
