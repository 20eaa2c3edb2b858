// In-memory spans the traced run records around calls into the engine's
// public functions. Each benchmark thread owns one SpanLog (no locking);
// the logs are merged and written out when the run ends.
//
// A span has a name, a start and end on the steady clock, the index of its
// parent span in the same log (-1 for an outer span) and the id of the
// request it belongs to. A layer's self time is its span's duration minus
// the part of that interval its child spans cover.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
  int thread = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thread's spans. Disabled logs record nothing, so the untraced runs
/// pay one branch per span site.
class SpanLog {
 public:
  SpanLog(bool enabled, int thread) : enabled_(enabled), thread_(thread) {}

  bool enabled() const { return enabled_; }
  int thread() const { return thread_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int32_t Begin(const char* name, uint64_t request) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.thread = thread_;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(int32_t idx) {
    if (idx < 0) return;
    spans_[static_cast<size_t>(idx)].end_ns = NowNs();
    if (!open_.empty() && open_.back() == idx) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends `other`'s spans, re-basing their parent indices.
  void Absorb(const SpanLog& other) {
    const int32_t base = static_cast<int32_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }

 private:
  bool enabled_;
  int thread_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span: opens on construction, closes on every exit path.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request = 0)
      : log_(log), idx_(log->Begin(name, request)) {}
  ~ScopedSpan() { log_->End(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t idx_;
};

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi).
inline int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> iv,
                           int64_t lo, int64_t hi) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0;
  int64_t cur_s = 0, cur_e = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return total;
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns() -
              UnionLength(std::move(kids[i]), spans[i].start_ns,
                          spans[i].end_ns);
  }
  return self;
}

/// Share of [lo, hi) on `thread` that the thread's outer spans cover.
inline double OuterCoverage(const std::vector<Span>& spans, int thread,
                            int64_t lo, int64_t hi) {
  if (hi <= lo) return 0;
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const Span& s : spans) {
    if (s.thread == thread && s.parent < 0) iv.push_back({s.start_ns, s.end_ns});
  }
  return static_cast<double>(UnionLength(std::move(iv), lo, hi)) /
         static_cast<double>(hi - lo);
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
