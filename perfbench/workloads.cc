// The two workloads. Each builds its inputs from --seed before any
// timing, sets the deployment up five times (the median is setup_s),
// measures, and then checks the program's outputs.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>

#include "perfbench/layers.h"
#include "perfbench/open_loop.h"
#include "perfbench/perfbench.h"

namespace perfbench {

using velox::Item;
using velox::PredictionService;
using velox::Request;
using velox::RequestType;
using velox::Rng;
using velox::SteadyClock;
using velox::VeloxFrontend;
using velox::VeloxServer;

namespace {

// setup_s is the median of five set-ups: the serving deployment's at
// the start, two after the measured phases and two at the end. Spread
// over the run, they sample the host's speed at three points of it.
constexpr int kSetupsMid = 2;
constexpr int kSetupsEnd = 2;
constexpr size_t kHoldout = 10000;
constexpr size_t kReplay = 600;
constexpr size_t kRecallUsers = 200;
constexpr size_t kAnnReplay = 2000;
// Shares of --seconds: each fixed-rate phase (one per rate and
// repetition), and each ladder probe. Fixed rates take 2 * reps phases;
// the ladder's bisection takes about seven probes, some of them twice.
constexpr double kPhaseShare = 0.04;
constexpr double kProbeShare = 0.035;

int64_t NowNanos() { return SteadyClock::Default()->NowNanos(); }

// Zipf-ranked draws over the trained catalog: rank r maps to the r-th
// smallest trained item id, which the synthetic generator also made the
// r-th most popular.
class ItemSampler {
 public:
  ItemSampler(const Catalog& catalog, double exponent)
      : items_(&catalog.items),
        zipf_(static_cast<int64_t>(catalog.items.size()), exponent),
        stamp_(catalog.items.size(), 0) {}

  uint64_t One(Rng* rng) const { return (*items_)[static_cast<size_t>(zipf_.Sample(rng))]; }

  // `n` distinct items, Zipf-drawn; a pathological shortfall is filled
  // uniformly.
  std::vector<uint64_t> Distinct(size_t n, Rng* rng) {
    ++epoch_;
    std::vector<uint64_t> out;
    out.reserve(n);
    for (size_t attempts = 0; out.size() < n && attempts < 50 * n; ++attempts) {
      Take(static_cast<size_t>(zipf_.Sample(rng)), &out);
    }
    while (out.size() < n) Take(rng->UniformU64(items_->size()), &out);
    return out;
  }

 private:
  void Take(size_t rank, std::vector<uint64_t>* out) {
    if (stamp_[rank] == epoch_) return;
    stamp_[rank] = epoch_;
    out->push_back((*items_)[rank]);
  }

  const std::vector<uint64_t>* items_;
  velox::ZipfDistribution zipf_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream;
}

// Every input of an open-loop workload, generated before timing.
struct OpenLoopInputs {
  Catalog catalog;
  std::vector<Request> pool;
  std::vector<Request> warmup;
  // Reads served to the measured deployment after set-up and before
  // the first phase, untimed, until its prediction cache is full.
  std::vector<Request> fill;
  std::vector<Triple> holdout;
  std::vector<uint64_t> recall_uids;
  std::vector<uint64_t> ann_uids;  // the traced run's TopKAll replay
};

Catalog CatalogFor(const Args& args) {
  return MakeCatalog(static_cast<int64_t>(args.Num("users")),
                     static_cast<int64_t>(args.Num("items")), 1.0,
                     static_cast<int64_t>(args.Num("min_ratings")),
                     static_cast<int64_t>(args.Num("max_ratings")), SubSeed(args.seed, 1));
}

std::vector<uint64_t> DrawUsers(const std::vector<uint64_t>& users, size_t n, Rng* rng) {
  std::vector<uint64_t> out(n);
  for (uint64_t& uid : out) uid = users[rng->UniformU64(users.size())];
  return out;
}

std::vector<Triple> DrawHoldout(const Catalog& catalog, const std::vector<uint64_t>& users,
                                ItemSampler* items, Rng* rng) {
  std::vector<Triple> out;
  for (size_t i = 0; i < kHoldout; ++i) {
    Triple t;
    t.uid = users[rng->UniformU64(users.size())];
    t.item = items->One(rng);
    t.label = PlantedLabel(catalog, t.uid, t.item, rng);
    out.push_back(t);
  }
  return out;
}

std::string PhasesJson(const std::vector<PhaseResult>& phases) {
  std::string out = "[";
  for (size_t i = 0; i < phases.size(); ++i) {
    out += (i == 0 ? "\n    " : ",\n    ") + phases[i].ToJson();
  }
  return out + "]";
}

// Start and end of the VeloxServer call VeloxFrontend::Handle makes
// for `request`; the candidate items are built first, so only the call
// is timed.
std::pair<int64_t, int64_t> TimedServerCall(VeloxServer* server, const Request& request) {
  std::vector<Item> items(request.items.size());
  for (size_t i = 0; i < items.size(); ++i) items[i].id = request.items[i];
  const int64_t start = NowNanos();
  switch (request.type) {
    case RequestType::kPredict:
      (void)server->Predict(request.uid, items[0]);
      break;
    case RequestType::kTopK:
      (void)server->TopK(request.uid, items, FrontOptions().topk_k);
      break;
    case RequestType::kObserve:
      (void)server->Observe(request.uid, items[0], request.label);
      break;
  }
  return {start, NowNanos()};
}

// Replays a fixed sample of the pool, timing Handle and, separately,
// the server call it makes; the difference is the frontend's own time.
// The order alternates so neither side always meets warm caches.
// Observes apply twice: run this after every output check.
void ReportFrontendSelfTime(VeloxServer* server, const std::vector<Request>& pool,
                            SpanLog* spans, Report* report) {
  VeloxFrontend frontend(FrontOptions(), server);
  std::vector<double> handle_us;
  std::vector<double> call_us;
  for (size_t i = 0; i < kReplay; ++i) {
    const Request& request = pool[i * pool.size() / kReplay];
    const uint64_t id = 1'000'000'000ULL + i;
    std::pair<int64_t, int64_t> call;
    if (i % 2 == 1) call = TimedServerCall(server, request);
    const int64_t start = NowNanos();
    (void)frontend.Handle(request);
    const int64_t end = NowNanos();
    if (i % 2 == 0) call = TimedServerCall(server, request);
    handle_us.push_back(static_cast<double>(end - start) / 1e3);
    call_us.push_back(static_cast<double>(call.second - call.first) / 1e3);
    spans->Add({id, "frontend.handle", "", start, end, "replay"});
    spans->Add({id, "server.call", "", call.first, call.second, "replay"});
  }
  report->Metric("frontend.replay_handle_us", Mean(handle_us), "us", kReplay);
  report->Metric("frontend.replay_server_call_us", Mean(call_us), "us", kReplay);
  report->Metric("frontend.self_us", Mean(handle_us) - Mean(call_us), "us", kReplay);
}

// Median over phases of each phase's `q` quantile. Per-phase quantiles
// keep one disturbed phase from setting the number.
double PhaseQuantile(const std::vector<const std::vector<double>*>& phases, double q) {
  std::vector<double> per_phase;
  for (const std::vector<double>* p : phases) per_phase.push_back(Quantile(*p, q));
  return Median(per_phase);
}

// PhaseQuantile, reported with the samples of all phases.
void ReportPhaseQuantile(const std::string& name, double q,
                         const std::vector<const std::vector<double>*>& phases,
                         Report* report) {
  uint64_t samples = 0;
  for (const std::vector<double>* p : phases) samples += p->size();
  report->Metric(name, PhaseQuantile(phases, q), "us", samples);
}

// Traced minus untraced median latency at the low rate.
void ReportTraceOverhead(const std::vector<const std::vector<double>*>& untraced,
                         const std::vector<const std::vector<double>*>& traced,
                         Report* report) {
  report->Metric("trace.overhead_p50_us",
                 PhaseQuantile(traced, 0.5) - PhaseQuantile(untraced, 0.5), "us",
                 untraced.size() + traced.size());
}

// Serves `fill` on nproc threads. Without it the prediction cache of
// read_zipf filled during the first eight or so phases, and their
// latency doubled from the first phase to the last.
void FillCaches(VeloxServer* server, const std::vector<Request>& fill, Report* report) {
  VeloxFrontend frontend(FrontOptions(), server);
  velox::Stopwatch watch;
  std::vector<std::thread> threads;
  const unsigned n = Nproc();
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < fill.size(); i += n) (void)frontend.Handle(fill[i]);
    });
  }
  for (std::thread& th : threads) th.join();
  report->Metric("fill_s", watch.ElapsedSeconds(), "s", fill.size());
}

using OpenLoopCheck = std::function<void(VeloxServer* reference, VeloxServer* serving,
                                         const std::vector<PhaseResult>& phases,
                                         Report* report)>;

// `primary` is the request type whose latency the workload is about:
// its p50 at each fixed rate is primary_p50_us.{low,high}.
void RunOpenLoop(const Args& args, const OpenLoopInputs& in, RequestType primary,
                 const OpenLoopCheck& check, Report* report, SpanLog* spans) {
  auto warmup = [&in](VeloxServer* server) {
    VeloxFrontend frontend(FrontOptions(), server);
    for (const Request& request : in.warmup) (void)frontend.Handle(request);
  };
  std::vector<std::unique_ptr<Deployment>> setups;
  // Each set-up gets its own journal directory; all but the first are
  // only timed, and dropped at once.
  auto timed_setups = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const std::string dir = args.work_dir + "/setup" + std::to_string(setups.size());
      setups.push_back(TimedSetUp(in.catalog, dir, warmup));
      if (setups.size() > 1) setups.back()->server.reset();
    }
  };
  timed_setups(1);
  VeloxServer* server = setups.front()->server.get();
  // The output checks' untouched reference, in memory so replaying
  // observes one at a time does not pay an fsync each.
  const std::unique_ptr<Deployment> reference_deployment = SetUp(in.catalog, "", warmup);
  VeloxServer* reference = reference_deployment->server.get();
  if (!in.fill.empty()) FillCaches(server, in.fill, report);

  const double low = args.Num("rate_low");
  const double high = args.Num("rate_high");
  // Phases per fixed rate; each metric is the median over them.
  const int reps = static_cast<int>(args.Num("reps"));
  OpenLoop loop(&in.pool, SubSeed(args.seed, 7));
  std::vector<PhaseResult> phases;
  VeloxFrontend frontend(FrontOptions(), server);

  if (!args.trace) {
    // Fixed rates first: the ladder's overload probes leave the disk
    // busy with journal writes for a while.
    const double phase_s = args.seconds * kPhaseShare;
    for (int rep = 0; rep < reps; ++rep) {
      const std::string r = std::to_string(rep);
      phases.push_back(loop.Run("low_" + r, &frontend, low, phase_s, nullptr));
      phases.push_back(loop.Run("high_" + r, &frontend, high, phase_s, nullptr));
    }
    const size_t fixed = phases.size();
    const double sustained =
        loop.Sustained(&frontend, args.List("ladder_rps"), args.seconds * kProbeShare, &phases);
    report->Metric("sustained_rps", sustained, "req/s", phases.size() - fixed);
    // Every fixed-rate phase counts in ok_share. Latency comes from the
    // valid ones (all of them if none is: latency from the scheduled
    // arrival still charges the generator's lateness).
    uint64_t sent = 0;
    uint64_t bad = 0;
    uint64_t invalid = 0;
    for (const char* label : {"low", "high"}) {
      const std::string prefix = std::string(label) + "_";
      std::vector<const PhaseResult*> valid;
      std::vector<const PhaseResult*> any;
      for (size_t i = 0; i < fixed; ++i) {
        const PhaseResult& p = phases[i];
        if (p.name.rfind(prefix, 0) != 0) continue;
        sent += p.sent;
        bad += p.shed + p.failed + p.degraded;
        invalid += p.valid ? 0 : 1;
        any.push_back(&p);
        if (p.valid) valid.push_back(&p);
      }
      const auto& used = valid.empty() ? any : valid;
      auto served = [&used](auto member) {
        std::vector<const std::vector<double>*> out;
        for (const PhaseResult* p : used) out.push_back(&(p->*member));
        return out;
      };
      std::vector<const std::vector<double>*> primary_us;
      for (const PhaseResult* p : used) primary_us.push_back(&p->ServedOf(primary));
      ReportPhaseQuantile(std::string("primary_p50_us.") + label, 0.50, primary_us, report);
      ReportPhaseQuantile(std::string("p50_us.") + label, 0.50, served(&PhaseResult::served_us),
                          report);
      ReportPhaseQuantile(std::string("p90_us.") + label, 0.90, served(&PhaseResult::served_us),
                          report);
      for (const auto& [type, member] :
           {std::pair{"predict", &PhaseResult::predict_us},
            std::pair{"topk", &PhaseResult::topk_us},
            std::pair{"observe", &PhaseResult::observe_us}}) {
        ReportPhaseQuantile(std::string(type) + "_p50_us." + label, 0.50, served(member),
                            report);
      }
    }
    report->Metric("ok_share",
                   1.0 - static_cast<double>(bad) / static_cast<double>(sent), "ratio",
                   sent);
    report->Metric("invalid_phases", static_cast<double>(invalid), "count", fixed);
  } else {
    // Untraced and traced phases alternate; only the traced ones feed
    // the per-layer numbers and use the traced frontend.
    VeloxFrontend traced_frontend(FrontOptions(), server);
    LayerStats layers(server);
    const double phase_s = args.seconds / (3 * reps);
    for (int rep = 0; rep < reps; ++rep) {
      const std::string r = std::to_string(rep);
      phases.push_back(loop.Run("low_untraced_" + r, &frontend, low, phase_s, nullptr));
      for (const auto& [name, rate] : {std::pair{"low_traced_", low},
                                       std::pair{"high_traced_", high}}) {
        layers.Begin();
        phases.push_back(loop.Run(name + r, &traced_frontend, rate, phase_s, spans));
        layers.End(phases.back());
      }
    }
    // Points into `phases`, which no longer grows.
    auto served = [&phases](const std::string& prefix, bool observes) {
      std::vector<const std::vector<double>*> out;
      for (const PhaseResult& p : phases) {
        if (p.valid && p.name.rfind(prefix, 0) == 0) {
          out.push_back(observes ? &p.observe_us : &p.served_us);
        }
      }
      return out;
    };
    layers.ReportTo(traced_frontend, report);
    ReportTraceOverhead(served("low_untraced_", false), served("low_traced_", false), report);
    ReportPhaseQuantile("request.p99_us.low", 0.99, served("low_traced_", false), report);
    ReportPhaseQuantile("request.p99_us.high", 0.99, served("high_traced_", false), report);
    ReportPhaseQuantile("request.observe_p99_us.high", 0.99, served("high_traced_", true),
                        report);
  }

  timed_setups(kSetupsMid);

  for (const PhaseResult& p : phases) {
    report->attempted += p.sent;
    report->failed += p.failed;
  }
  report->Raw("phases", PhasesJson(phases));

  check(reference, server, phases, report);
  ReportHoldoutRmse(server, in.holdout, report);
  ReportRecall(server, in.recall_uids, report);
  if (args.trace) {
    ReportFrontendSelfTime(server, in.pool, spans, report);
    ReportAnnReplay(server, in.ann_uids, spans, report);
  }
  timed_setups(kSetupsEnd);
  ReportSetup(setups, report);
}

}  // namespace

// ---------------------------------------------------------------------
// read_zipf

void RunReadZipf(const Args& args, Report* report, SpanLog* spans) {
  OpenLoopInputs in;
  in.catalog = CatalogFor(args);
  ItemSampler items(in.catalog, 1.0);
  Rng rng(SubSeed(args.seed, 2));
  const double predict_share = args.Num("predict_share");
  const size_t topk_set = static_cast<size_t>(args.Num("topk_set"));
  auto next = [&]() {
    Request r;
    r.uid = in.catalog.users[rng.UniformU64(in.catalog.users.size())];
    if (rng.UniformDouble() < predict_share) {
      r.type = RequestType::kPredict;
      r.items.push_back(items.One(&rng));
    } else {
      r.type = RequestType::kTopK;
      r.items = items.Distinct(topk_set, &rng);
    }
    return r;
  };
  for (size_t i = 0, n = static_cast<size_t>(args.Num("pool")); i < n; ++i) {
    in.pool.push_back(next());
  }
  for (size_t i = 0, n = static_cast<size_t>(args.Num("warmup")); i < n; ++i) {
    in.warmup.push_back(next());
  }
  for (size_t i = 0, n = static_cast<size_t>(args.Num("fill")); i < n; ++i) {
    in.fill.push_back(next());
  }
  in.holdout = DrawHoldout(in.catalog, in.catalog.users, &items, &rng);
  in.recall_uids = DrawUsers(in.catalog.users, kRecallUsers, &rng);
  in.ann_uids = DrawUsers(in.catalog.users, kAnnReplay, &rng);

  // Reads leave the serving state alone, so every served answer must
  // equal the answer of the same request handled alone, in any order,
  // on an identical deployment.
  auto check = [&in](VeloxServer* reference, VeloxServer* /*serving*/,
                     const std::vector<PhaseResult>& phases, Report* r) {
    std::unordered_map<size_t, uint64_t> served;
    uint64_t responses = 0;
    uint64_t conflicts = 0;
    for (const PhaseResult& p : phases) {
      for (size_t i = 0; i < p.outcomes.size(); ++i) {
        if (p.outcomes[i].shed) continue;
        ++responses;
        auto [it, fresh] = served.emplace(p.pool_index[i], p.outcomes[i].digest);
        if (!fresh && it->second != p.outcomes[i].digest) ++conflicts;
      }
    }
    std::vector<std::pair<size_t, uint64_t>> work(served.begin(), served.end());
    VeloxFrontend frontend(FrontOptions(), reference);
    std::atomic<uint64_t> mismatches{0};
    std::vector<std::thread> threads;
    const unsigned n = Nproc();
    for (unsigned t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        for (size_t j = t; j < work.size(); j += n) {
          if (ResponseDigest(frontend.Handle(in.pool[work[j].first])) != work[j].second) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    r->Check("reads_match_singleton_handle", mismatches == 0 && conflicts == 0,
             std::to_string(responses) + " served answers of " +
                 std::to_string(work.size()) + " distinct requests; " +
                 std::to_string(mismatches.load()) + " differ from Handle, " +
                 std::to_string(conflicts) + " differ between repeats");
  };
  RunOpenLoop(args, in, RequestType::kTopK, check, report, spans);
}

// ---------------------------------------------------------------------
// observe_durable

void RunObserveDurable(const Args& args, Report* report, SpanLog* spans) {
  OpenLoopInputs in;
  in.catalog = CatalogFor(args);
  ItemSampler items(in.catalog, 1.0);
  Rng rng(SubSeed(args.seed, 3));
  std::vector<uint64_t> hot;
  for (int64_t idx : rng.SampleWithoutReplacement(
           static_cast<int64_t>(in.catalog.users.size()),
           static_cast<int64_t>(args.Num("hot_users")))) {
    hot.push_back(in.catalog.users[static_cast<size_t>(idx)]);
  }
  const double observe_share = args.Num("observe_share");
  auto next = [&](bool reads_only) {
    Request r;
    r.uid = hot[rng.UniformU64(hot.size())];
    r.items.push_back(items.One(&rng));
    if (!reads_only && rng.UniformDouble() < observe_share) {
      r.type = RequestType::kObserve;
      r.label = PlantedLabel(in.catalog, r.uid, r.items[0], &rng);
    } else {
      r.type = RequestType::kPredict;
    }
    return r;
  };
  for (size_t i = 0, n = static_cast<size_t>(args.Num("pool")); i < n; ++i) {
    in.pool.push_back(next(false));
  }
  // Warm-up reads only, so the reference deployment's weights start
  // equal to the serving one's.
  for (size_t i = 0, n = static_cast<size_t>(args.Num("warmup")); i < n; ++i) {
    in.warmup.push_back(next(true));
  }
  in.holdout = DrawHoldout(in.catalog, hot, &items, &rng);
  in.recall_uids = DrawUsers(hot, kRecallUsers, &rng);
  in.ann_uids = DrawUsers(hot, kAnnReplay, &rng);

  // Replays exactly the acknowledged observes, in submission order and
  // one at a time, on the untouched reference deployment; the final
  // user weights of both must match bit for bit.
  auto check = [&in](VeloxServer* reference, VeloxServer* serving,
                     const std::vector<PhaseResult>& phases, Report* r) {
    std::vector<std::pair<uint64_t, size_t>> acked;
    for (const PhaseResult& p : phases) {
      for (size_t i = 0; i < p.outcomes.size(); ++i) {
        const Outcome& o = p.outcomes[i];
        if (p.type[i] == RequestType::kObserve && !o.shed && o.ok) acked.emplace_back(p.request_id[i], p.pool_index[i]);
      }
    }
    std::sort(acked.begin(), acked.end());
    VeloxFrontend frontend(FrontOptions(), reference);
    uint64_t replay_errors = 0;
    for (const auto& [id, index] : acked) {
      if (!frontend.Handle(in.pool[index]).status.ok()) ++replay_errors;
    }
    uint64_t users = 0;
    uint64_t mismatches = 0;
    for (int node = 0; node < serving->config().num_nodes; ++node) {
      const velox::FactorMap got = serving->user_weights(node)->ExportWeights();
      const velox::FactorMap want = reference->user_weights(node)->ExportWeights();
      users += got.size();
      if (got.size() != want.size()) ++mismatches;
      for (const auto& [uid, w] : got) {
        auto it = want.find(uid);
        if (it == want.end() || it->second.dim() != w.dim() ||
            std::memcmp(it->second.data(), w.data(), w.dim() * sizeof(double)) != 0) {
          ++mismatches;
        }
      }
    }
    r->Check("weights_match_sequential_replay", mismatches == 0 && replay_errors == 0,
             std::to_string(acked.size()) + " acknowledged observes replayed (" +
                 std::to_string(replay_errors) + " failed); " + std::to_string(users) +
                 " users compared, " + std::to_string(mismatches) + " differ");
  };
  RunOpenLoop(args, in, RequestType::kObserve, check, report, spans);
}

}  // namespace perfbench
