#include "e2ebench/trace.h"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

namespace topodb::e2e {

int32_t SpanBuffer::Begin(const char* name, int32_t parent,
                          uint64_t request_id) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request_id = request_id;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanBuffer::End(int32_t index) {
  spans_[index].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - origin_)
                             .count();
}

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<const SpanBuffer*>& buffers, const char* root_name) {
  std::map<std::string, SpanSummary> out;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    // Children of one parent never overlap (each buffer is one thread's
    // nested calls), so covered time is the plain sum of child durations.
    // A parent is always opened before its children, so one forward pass
    // finds every span's root.
    std::vector<int64_t> covered(spans.size(), 0);
    std::vector<size_t> root(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      root[i] = span.parent < 0 ? i : root[span.parent];
      if (span.parent >= 0) covered[span.parent] += span.end_ns - span.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (root_name != nullptr &&
          std::string_view(spans[root[i]].name) != root_name) {
        continue;
      }
      const int64_t duration = spans[i].end_ns - spans[i].start_ns;
      SpanSummary& summary = out[spans[i].name];
      summary.durations_us.push_back(duration / 1e3);
      summary.self_us_total += std::max<int64_t>(0, duration - covered[i]) / 1e3;
    }
  }
  return out;
}

bool WriteSpansJsonl(const std::string& path,
                     const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  long long base = 0;
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& span : buffer->spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%lld,\"request_id\":%llu}\n",
                   span.name, static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   span.parent < 0 ? -1LL : base + span.parent,
                   static_cast<unsigned long long>(span.request_id));
    }
    base += static_cast<long long>(buffer->spans().size());
  }
  return std::fclose(f) == 0;
}

}  // namespace topodb::e2e
