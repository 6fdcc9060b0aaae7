#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

// Sample statistics and the result record of one benchmark run.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least ten samples lie beyond
/// it, so p90 needs a pool of at least 100 samples.
constexpr size_t kMinP90Samples = 100;

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double Quantile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

/// p90 of `pool`, or nothing when the pool is smaller than kMinP90Samples.
std::optional<double> P90(const std::vector<double>& pool);

/// Metric names: 1 to 64 letters, digits, '_', '.' and '-', starting with a
/// letter or a digit.
bool ValidMetricName(const std::string& name);

/// Units: 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
bool ValidUnit(const std::string& unit);

/// The aggregate "cpu" line of /proc/stat, in ticks: the time the
/// hypervisor gave this VM's vCPUs to other guests, and the time they were
/// busy or stolen (user, nice, system, irq, softirq and steal; not idle or
/// iowait).
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t busy = 0;
};

/// Parses the "cpu ..." line; all zero when the line is not one.
CpuTicks ParseCpuTicks(const std::string& line);

/// Share of the vCPU time the VM asked for between `a` and `b` that the
/// hypervisor stole. A stretch of work that took w seconds of wall time had
/// the vCPUs for about w * (1 - share) of them.
double StolenShare(const CpuTicks& a, const CpuTicks& b);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Ordered metrics of one run. Add rejects (returns false on) an invalid
/// name or unit, a repeated name and a non-finite value.
class MetricSet {
 public:
  bool Add(const std::string& name, const std::string& unit, double value);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// The run's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}, values with all 17 digits.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

/// JSON string literal with quotes and control characters escaped.
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
