// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its own calls into each
// layer (client round trips, direct engine calls, per-shard index calls,
// TGM probes, setup steps); nothing inside the library is instrumented.
// Each recording thread owns one SpanBuffer and appends without locking;
// the buffers are collected once the run ends, written out as JSON lines,
// and summarized per span name with self time derived from child spans.
// An untraced run creates no buffers, so its only cost is a null check.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 for a root span
  uint64_t request = 0;  // shared by every span of one request

  double Micros() const { return (end_ns - start_ns) / 1e3; }
};

/// Spans of one thread. Ids are unique across buffers (the buffer index
/// sits in the high bits), so a child recorded on one thread may name a
/// parent reserved on another.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint64_t id_base) : next_id_(id_base + 1) {}

  /// A fresh span id, for a parent whose children are recorded before it.
  uint64_t Reserve() { return next_id_++; }

  /// Records a finished span under a reserved id.
  void Add(uint64_t id, const char* name, int64_t start_ns, int64_t end_ns,
           uint64_t parent, uint64_t request) {
    spans_.push_back(Span{name, start_ns, end_ns, id, parent, request});
  }

  /// Records a finished span under a fresh id and returns that id.
  uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent, uint64_t request) {
    uint64_t id = Reserve();
    Add(id, name, start_ns, end_ns, parent, request);
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A buffer for the calling thread, or nullptr when tracing is off.
  /// The tracer owns it; it stays valid until the tracer is destroyed.
  SpanBuffer* NewBuffer();

  /// Every span recorded so far. Call only after the recording threads
  /// have been joined.
  std::vector<Span> Collect() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Durations in microseconds of every span called `name`.
std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name);

/// Per span name: count, total time and self time (a span's duration minus
/// the part of it its children cover), one line per name.
std::string SummarizeSpans(const std::vector<Span>& spans);

/// Writes one JSON object per span to `path`.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
