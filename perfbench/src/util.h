// Shared plumbing of the benchmark binary: clocks, order statistics,
// output digests, the output gate, and the result record.

#ifndef XSDF_PERFBENCH_UTIL_H_
#define XSDF_PERFBENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds.
uint64_t NowNs();
double SecondsSince(uint64_t start_ns);

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);

/// FNV-1a 64 of the bytes: the digest the output gate compares.
uint64_t Digest(std::string_view bytes);

/// SplitMix64 step: derives independent sub-seeds from a workload seed.
uint64_t Mix(uint64_t seed, uint64_t salt);

/// Process high-water resident set (getrusage), in MB.
double PeakRssMb();

/// The hardware thread count the workloads size their pools by.
int Nproc();

/// Counts attempted operations and failures; a failure keeps a short
/// reason for the report. A run is correct only with zero failures.
class Gate {
 public:
  void Attempt(uint64_t count = 1) { attempted_ += count; }
  /// Records a check. Returns `ok` so callers can branch on it.
  bool Check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// One reported number: value, unit and how many samples it summarizes.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// Everything one run reports. `metrics` go to the final result line;
/// `info` holds the numbers printed for the reader but not compared
/// across commits (see README.md).
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> info;
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void Info(const std::string& name, double value, const std::string& unit,
            uint64_t samples) {
    info.push_back({name, value, unit, samples});
  }
};

/// A finite double rendered with all its digits.
std::string JsonNumber(double value);
std::string JsonString(std::string_view text);

}  // namespace perfbench

#endif  // XSDF_PERFBENCH_UTIL_H_
