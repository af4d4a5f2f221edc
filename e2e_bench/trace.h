#ifndef TKC_E2E_BENCH_TRACE_H_
#define TKC_E2E_BENCH_TRACE_H_

#include <cstdint>
#include <string>

/// \file trace.h
/// In-memory span recorder for the traced benchmark run. Spans are recorded
/// by the benchmark's own code around calls into the library's public
/// functions; nothing inside the library is instrumented. A span name is
/// "<layer>.<call>", the layer being the src/ module that owns the call
/// (net, serve, vct, core, graph, datasets, workload).
///
/// Each thread appends finished spans to its own buffer, so recording
/// takes no lock. The parent of a span is the innermost span still open on
/// the same thread; a request id set on a span is inherited by its
/// children. When tracing is off, a Span costs one branch.

namespace tkc::e2e {

/// Turns recording on or off for the whole process. Set once, before any
/// thread records.
void EnableTracing(bool on);
bool TracingEnabled();

/// One timed call. Construct at the call, destroy when it returns.
class Span {
 public:
  /// `name` must be a string literal (only the pointer is kept).
  /// `request_id` 0 inherits the enclosing span's request id.
  explicit Span(const char* name, uint64_t request_id = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_id_ = 0;
  uint64_t start_ns_ = 0;
};

/// Spans a dump holds at most, about 40 MB of JSON lines.
inline constexpr size_t kMaxDumpedSpans = 300000;

/// Writes the recorded spans as one JSON object per line, with each span's
/// self time, and returns the number written, or -1 when the file cannot be
/// written. Beyond kMaxDumpedSpans it writes every span outside a request
/// plus the spans of a uniform sample of requests (all spans of a sampled
/// request). Call after every recording thread has finished.
long WriteSpans(const std::string& path);

/// Prints, per span name, the call count, total time and self time. Self
/// time is a span's duration minus the union of its children's intervals.
void PrintSelfTimes();

}  // namespace tkc::e2e

#endif  // TKC_E2E_BENCH_TRACE_H_
