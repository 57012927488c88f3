// velox_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   --report <file> --spans <file> --work-dir <dir> [--param key=value ...]
//
// Runs one workload and writes the full report (every metric with its
// unit and sample count, every phase, every output check) to --report.
// run.py is the entry point that builds and drives this binary.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "perfbench/perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Fail("--seed must be a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
      if (!(args.seconds > 0.0)) Fail("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Fail("--trace must be 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--report") {
      args.report_path = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--param") {
      const size_t eq = value.find('=');
      if (eq == std::string::npos) Fail("--param wants key=value, got " + value);
      args.params[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.report_path.empty() || args.work_dir.empty() ||
      !have_trace) {
    Fail("--workload, --trace, --report and --work-dir are required");
  }
  if (args.trace && args.spans_path.empty()) Fail("--trace 1 needs --spans");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Report report;
  SpanLog spans;
  if (args.workload == "read_zipf") {
    RunReadZipf(args, &report, &spans);
  } else if (args.workload == "observe_durable") {
    RunObserveDurable(args, &report, &spans);
  } else {
    Fail("unknown workload " + args.workload);
  }
  report.Raw("build", "{\"compiler\": " + JsonString(PERFBENCH_COMPILER) +
                          ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                          ", \"nproc\": " + std::to_string(Nproc()) + "}");
  if (args.trace) {
    if (!spans.Write(args.spans_path)) Fail("cannot write " + args.spans_path);
    report.Raw("spans", "{\"path\": " + JsonString(args.spans_path) +
                            ", \"count\": " + std::to_string(spans.size()) + "}");
  }
  std::ofstream out(args.report_path);
  out << report.ToJson();
  out.close();
  if (!out) Fail("cannot write " + args.report_path);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
