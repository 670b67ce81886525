#ifndef TOPODB_E2EBENCH_TRACE_H_
#define TOPODB_E2EBENCH_TRACE_H_

// Spans recorded by the benchmark around its own calls: the client call of
// every request in the traced window, and each library layer a replayed
// request passes through. Spans stay in memory (one buffer per recording
// thread, no locking on the hot path) and are written out when the run
// ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace topodb::e2e {

struct Span {
  const char* name = "";  // Static string: "request", "region.parse", ...
  int64_t start_ns = 0;   // steady_clock, relative to the tracer's origin.
  int64_t end_ns = 0;
  int32_t parent = -1;    // Index into the same buffer; -1 for a root.
  uint64_t request_id = 0;
};

// One thread's span buffer.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::chrono::steady_clock::time_point origin)
      : origin_(origin) {}

  // Opens a span under `parent` (-1 for a root) and returns its index.
  int32_t Begin(const char* name, int32_t parent, uint64_t request_id);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

// RAII span; a null buffer records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, int32_t parent,
             uint64_t request_id)
      : buffer_(buffer),
        index_(buffer != nullptr ? buffer->Begin(name, parent, request_id)
                                 : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

// Per-name totals over a set of buffers: every span's duration, and its
// self time (duration minus the part covered by its children). With a
// `root_name`, only spans in trees whose root has that name count.
struct SpanSummary {
  std::vector<double> durations_us;
  double self_us_total = 0;
};
std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<const SpanBuffer*>& buffers,
    const char* root_name = nullptr);

// Writes every span as one JSON object per line:
// {"name":..,"start_ns":..,"end_ns":..,"parent":..,"request_id":..}, with
// `parent` rewritten to a file-global line index.
bool WriteSpansJsonl(const std::string& path,
                     const std::vector<const SpanBuffer*>& buffers);

}  // namespace topodb::e2e

#endif  // TOPODB_E2EBENCH_TRACE_H_
