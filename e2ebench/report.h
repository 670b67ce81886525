#ifndef TOPODB_E2EBENCH_REPORT_H_
#define TOPODB_E2EBENCH_REPORT_H_

// Statistics and output for the benchmark: percentiles with the sample
// rule, snapshots of a process's metric series, and the metric list that
// prints both as a human-readable table and as the final JSON line.

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace topodb::e2e {

// Nearest-rank q-quantile of an ascending vector (0 when empty).
double Quantile(const std::vector<double>& sorted, double q);

// Request latencies in fixed log-spaced buckets (1% wide, 1 us to ~7
// min): constant memory however many requests a run completes, so the
// benchmark's own bookkeeping does not grow with throughput.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Record(double us);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  // Nearest-rank q-quantile (us), interpolated within its bucket.
  double Quantile(double q) const;

 private:
  std::vector<uint32_t> buckets_;
  uint64_t count_ = 0;
};

// True when at least ten samples lie beyond the q-quantile.
bool QuantileSupported(size_t n, double q);

double Median(std::vector<double> values);

// Every counter, gauge and histogram of one registry at one instant,
// read through MetricsRegistry's own accessors.
struct SeriesSnapshot {
  struct Hist {
    uint64_t count = 0;
    double sum = 0;
    double p50 = 0;
    double p99 = 0;
  };
  std::map<std::string, double> values;  // counters and gauges
  std::map<std::string, Hist> histograms;

  static SeriesSnapshot Read(MetricsRegistry& registry);

  double Value(const std::string& name) const;
  Hist Histogram(const std::string& name) const;
};

// Window deltas between two snapshots of the same registry.
struct SeriesWindow {
  SeriesSnapshot before;
  SeriesSnapshot after;

  double Delta(const std::string& counter) const;
  // Gauges are read at the end of the window.
  double Gauge(const std::string& name) const { return after.Value(name); }
  // Mean over the window's samples (exact: count and sum are deltas).
  double WindowMean(const std::string& histogram) const;
  // Quantiles since process start: the histogram keeps no per-window
  // buckets, so warm-up samples are included.
  double SinceStartP50(const std::string& histogram) const {
    return after.Histogram(histogram).p50;
  }
  double SinceStartP99(const std::string& histogram) const {
    return after.Histogram(histogram).p99;
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // Base counts, sample counts, caveats.
};

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "");
  const std::vector<Metric>& metrics() const { return metrics_; }

  void PrintTable(std::FILE* out) const;
  // {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

// Resident set size of this process, in MiB.
double ResidentMiB();

// CPU time of every thread of this process so far, in seconds.
double ProcessCpuSeconds();

}  // namespace topodb::e2e

#endif  // TOPODB_E2EBENCH_REPORT_H_
