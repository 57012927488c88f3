// The serving benchmark harness: one Velox deployment driven by two
// traffic mixes (read_zipf, observe_durable). run.py
// builds this binary, passes the workload's fixed parameters from
// config.json, and turns the JSON report it writes into the final
// result line. See README.md for the workloads and every metric.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/velox.h"
#include "server/acceptor.h"

namespace perfbench {

// Prints `message` to stderr and exits 2 without a report. For harness
// errors (bad arguments, a deployment that will not start), never for
// an output mismatch: those are checks in the report.
[[noreturn]] void Fail(const std::string& message);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string report_path;  // full JSON report (metrics, phases, checks)
  std::string spans_path;   // span dump, written at exit in trace mode
  std::string work_dir;     // WAL files of the durable deployments
  // Workload parameters from config.json, as --param key=value.
  std::map<std::string, std::string> params;

  double Num(const std::string& key) const;
  std::vector<double> List(const std::string& key) const;
};

// ---------------------------------------------------------------------
// Report: every number the run measured, with unit and sample count.

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              uint64_t samples);
  void Check(const std::string& name, bool ok, const std::string& detail);
  // A raw JSON value stored under `key` (phase tables, context).
  void Raw(const std::string& key, const std::string& json);

  bool checks_ok() const;
  std::string ToJson() const;

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  struct Value {
    double value;
    std::string unit;
    uint64_t samples;
  };
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, Value> metrics_;
  std::vector<CheckResult> checks_;
  std::vector<std::pair<std::string, std::string>> raw_;
};

std::string JsonString(const std::string& s);
std::string JsonNum(double v);

// Nearest-rank quantile of an unsorted sample (sorts a copy); 0 when
// empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Spans kept in memory during the traced run and written at exit.
class SpanLog {
 public:
  // Spans of one request share `id`; `parent` names the enclosing span
  // ("" for a root).
  struct Span {
    uint64_t id;
    const char* name;
    const char* parent;
    int64_t start_ns;
    int64_t end_ns;
    std::string phase;
  };
  void Add(Span span) { spans_.push_back(std::move(span)); }
  size_t size() const { return spans_.size(); }
  // One JSON object per line.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Deployment (shared by every workload).

// A synthetic MovieLens dataset plus the trained catalog: the item ids
// that carry at least one rating, ascending (only those exist after
// training, so requests draw items from this list).
struct Catalog {
  velox::SyntheticDataset data;
  std::vector<uint64_t> items;
  std::vector<uint64_t> users;
};
Catalog MakeCatalog(int64_t num_users, int64_t num_items, double item_zipf,
                    int64_t min_ratings, int64_t max_ratings, uint64_t seed);

// A rating for (uid, item) drawn like the generator's: planted score
// plus noise, clipped to [0.5, 5] and rounded to half stars.
double PlantedLabel(const Catalog& catalog, uint64_t uid, uint64_t item,
                    velox::Rng* rng);

struct Deployment {
  std::unique_ptr<velox::VeloxServer> server;
  double bootstrap_s = 0.0;
  double warmup_s = 0.0;
  // The whole SetUp call, timed around it by TimedSetUp.
  double setup_s = 0.0;
};

// Constructs and bootstraps the deployment: 2 nodes, the shipped
// default bandit, item features served from the storage tier,
// user-weight journals under `wal_dir` with fsync group commit (an
// empty `wal_dir` keeps the weights in memory only: the output checks'
// reference, whose arithmetic is the same). Then runs `warmup`. Times
// both parts.
std::unique_ptr<Deployment> SetUp(const Catalog& catalog,
                                  const std::string& wal_dir,
                                  const std::function<void(velox::VeloxServer*)>& warmup);

// SetUp, with the whole call timed around it as setup_s.
std::unique_ptr<Deployment> TimedSetUp(const Catalog& catalog, const std::string& wal_dir,
                                       const std::function<void(velox::VeloxServer*)>& warmup);

// Median set-up of `deployments` by total time; reports setup_s and its
// two parts, and checks that each deployment's parts, timed inside
// SetUp, add up to its total, timed around it.
void ReportSetup(const std::vector<std::unique_ptr<Deployment>>& deployments,
                 Report* report);

unsigned Nproc();
// Server-plane settings: bounded lanes, adaptive batching (batch_max
// 64, 200 us linger, 5 ms AIMD SLO), one write worker so each user's
// observes apply in submission order, nproc-2 read workers.
velox::AcceptorOptions PlaneOptions();
velox::FrontendOptions FrontOptions();

// ---------------------------------------------------------------------
// Workloads.

void RunReadZipf(const Args& args, Report* report, SpanLog* spans);
void RunObserveDurable(const Args& args, Report* report, SpanLog* spans);

// Full-catalog recall@10 of TopKAll(kAuto) against the exact plane scan
// over `uids`; reported as recall_at_10.
void ReportRecall(velox::VeloxServer* server, const std::vector<uint64_t>& uids,
                  Report* report);

// Held-out (uid, item, label) triples predicted through the serving
// path; reported as holdout_rmse.
struct Triple {
  uint64_t uid;
  uint64_t item;
  double label;
};
void ReportHoldoutRmse(velox::VeloxServer* server,
                       const std::vector<Triple>& holdout, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
