// Spans for the traced legs. Each leg thread owns one SpanLog; spans are
// kept in memory and written out once, when the benchmark ends. A span has
// a name, start, end, parent span (within the same log) and job id. All
// spans come from the harness's own wrappers around the library's public
// calls — the program itself is not instrumented.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
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
  const char* name = "";  ///< string literal: one of the seam names
  int32_t parent = -1;    ///< index into the same log; -1 = root
  int64_t job = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans. Begin/End nest: a span's parent is the innermost
/// span still open on this log when it began.
class SpanLog {
 public:
  int32_t Begin(const char* name, int64_t job) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.job = job;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void End(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }
  /// A span measured elsewhere (e.g. Submit on one thread, completion seen
  /// on another): recorded whole, as a root.
  void AddComplete(const char* name, int64_t job, int64_t start_ns,
                   int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, -1, job, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::mutex mu_;  ///< AddComplete only; Begin/End are single-threaded
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII Begin/End on a log; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t job)
      : log_(log), id_(log != nullptr ? log->Begin(name, job) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Per-name totals over a set of logs: count, total and self time (a span's
/// duration minus the part its direct children cover; children of one span
/// never overlap, since they nest on one thread).
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  std::vector<double> durations_ms;
};
std::map<std::string, SpanTotals> Summarize(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as one TSV line: leg, log, index, name, parent, job,
/// start_ns, end_ns. Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<std::pair<std::string, const SpanLog*>>&
                    logs);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
