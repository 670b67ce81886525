#include "e2ebench/report.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <time.h>
#include <unistd.h>

namespace topodb::e2e {

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

namespace {
constexpr double kBucketGrowth = 1.01;
constexpr size_t kBuckets = 2000;
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::Record(double us) {
  const double b = us <= 1 ? 0 : std::log(us) / std::log(kBucketGrowth);
  ++buckets_[std::min(static_cast<size_t>(b), kBuckets - 1)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))), 1,
      count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (seen + buckets_[i] >= rank) {
      // Spread the bucket's samples evenly (in log space) across it.
      const double within = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(buckets_[i]);
      return std::pow(kBucketGrowth, static_cast<double>(i) + within);
    }
    seen += buckets_[i];
  }
  return std::pow(kBucketGrowth, kBuckets);
}

bool QuantileSupported(size_t n, double q) {
  return n > 0 && static_cast<double>(n) * (1.0 - q) >= 10.0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

SeriesSnapshot SeriesSnapshot::Read(MetricsRegistry& registry) {
  // ExportText names every series with its kind; the values are then read
  // exactly through the typed accessors (the text export rounds doubles).
  SeriesSnapshot snap;
  std::istringstream lines(registry.ExportText());
  std::string kind;
  std::string name;
  std::string rest;
  while (lines >> kind >> name && std::getline(lines, rest)) {
    if (kind == "counter") {
      snap.values[name] = static_cast<double>(registry.counter(name)->value());
    } else if (kind == "gauge") {
      snap.values[name] = static_cast<double>(registry.gauge(name)->value());
    } else if (kind == "histogram") {
      const topodb::Histogram* h = registry.histogram(name);
      snap.histograms[name] = {h->count(), h->sum(), h->P50(), h->P99()};
    }
  }
  return snap;
}

double SeriesSnapshot::Value(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

SeriesSnapshot::Hist SeriesSnapshot::Histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? Hist{} : it->second;
}

double SeriesWindow::Delta(const std::string& counter) const {
  return after.Value(counter) - before.Value(counter);
}

double SeriesWindow::WindowMean(const std::string& histogram) const {
  const SeriesSnapshot::Hist a = after.Histogram(histogram);
  const SeriesSnapshot::Hist b = before.Histogram(histogram);
  const uint64_t count = a.count - b.count;
  return count == 0 ? 0 : (a.sum - b.sum) / static_cast<double>(count);
}

void MetricList::Add(std::string name, double value, std::string unit,
                     std::string note) {
  if (!std::isfinite(value)) value = 0;
  metrics_.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

void MetricList::PrintTable(std::FILE* out) const {
  for (const Metric& m : metrics_) {
    std::fprintf(out, "  %-34s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.note.c_str());
  }
}

std::string MetricList::ResultJson(bool correct, uint64_t attempted,
                                   uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}}";
}

double ResidentMiB() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int read = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (read != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double ProcessCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace topodb::e2e
