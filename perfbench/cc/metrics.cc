#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("Quantile of no samples");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

std::optional<double> P90(const std::vector<double>& pool) {
  if (pool.size() < kMinP90Samples) return std::nullopt;
  return Quantile(pool, 0.9);
}

CpuTicks ParseCpuTicks(const std::string& line) {
  CpuTicks ticks;
  std::istringstream in(line);
  std::string label;
  if (!(in >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    if (field != 3 && field != 4) ticks.busy += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double StolenShare(const CpuTicks& a, const CpuTicks& b) {
  if (b.busy <= a.busy || b.steal < a.steal) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.busy - a.busy);
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

bool MetricSet::Add(const std::string& name, const std::string& unit,
                    double value) {
  if (!ValidMetricName(name) || !ValidUnit(unit) || !std::isfinite(value)) {
    return false;
  }
  for (const Metric& m : metrics_) {
    if (m.name == name) return false;
  }
  metrics_.push_back({name, unit, value});
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.metrics()) {
    char value[32];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += JsonString(m.name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
