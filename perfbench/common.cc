#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "perfbench/perfbench.h"

namespace perfbench {

void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stderr);
  // Worker threads may still be running; skip static destructors.
  std::_Exit(2);
}

double Args::Num(const std::string& key) const {
  auto it = params.find(key);
  if (it == params.end()) Fail("missing --param " + key);
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v)) {
    Fail("--param " + key + " is not a number: " + it->second);
  }
  return v;
}

std::vector<double> Args::List(const std::string& key) const {
  auto it = params.find(key);
  if (it == params.end()) Fail("missing --param " + key);
  std::vector<double> out;
  std::stringstream in(it->second);
  std::string item;
  while (std::getline(in, item, ',')) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || !std::isfinite(v)) {
      Fail("--param " + key + " has a non-number entry: " + item);
    }
    out.push_back(v);
  }
  if (out.empty()) Fail("--param " + key + " is empty");
  return out;
}

void Report::Metric(const std::string& name, double value, const std::string& unit,
                    uint64_t samples) {
  metrics_[name] = Value{value, unit, samples};
}

void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
  std::printf("check %-28s %s  %s\n", name.c_str(), ok ? "ok  " : "FAIL",
              detail.c_str());
  std::fflush(stdout);
}

void Report::Raw(const std::string& key, const std::string& json) {
  raw_.emplace_back(key, json);
}

bool Report::checks_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const CheckResult& c) { return c.ok; });
}

std::string Report::ToJson() const {
  std::ostringstream o;
  o << "{\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
    << ",\n  \"checks_ok\": " << (checks_ok() ? "true" : "false")
    << ",\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    o << (first ? "\n" : ",\n") << "    " << JsonString(name)
      << ": {\"value\": " << JsonNum(v.value) << ", \"unit\": " << JsonString(v.unit)
      << ", \"samples\": " << v.samples << "}";
    first = false;
  }
  o << "\n  },\n  \"checks\": [";
  first = true;
  for (const CheckResult& c : checks_) {
    o << (first ? "\n" : ",\n") << "    {\"name\": " << JsonString(c.name)
      << ", \"ok\": " << (c.ok ? "true" : "false")
      << ", \"detail\": " << JsonString(c.detail) << "}";
    first = false;
  }
  o << "\n  ]";
  for (const auto& [key, json] : raw_) o << ",\n  " << JsonString(key) << ": " << json;
  o << "\n}\n";
  return o.str();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t idx = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"id\": " << s.id << ", \"name\": " << JsonString(s.name)
        << ", \"parent\": " << JsonString(s.parent) << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"phase\": " << JsonString(s.phase)
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
