#pragma once

// In-memory span log and allocation counter of the traced benchmark run.
//
// A span is one call into a layer's public interface, timed from the
// benchmark's side of the seam: name, start, end, parent span (the span open
// on the same thread when it began) and run id. Each thread appends to its
// own buffer, so recording takes no lock; buffers are only read after the
// traced work has finished. Self time (a span's duration minus the time its
// child spans cover) is accumulated as spans close.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Seconds on the steady clock. Its timebase survives fork(), so spans of
/// forked ranks land on one timeline.
double now_seconds();

/// Per-name aggregate over every recorded span.
struct SpanTotals {
  std::int64_t calls = 0;
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< summed durations minus child-span time
  double first_start = 0.0;  ///< earliest start (0 when never recorded)
};

/// Process-wide span log. Names must be string literals (they are stored
/// by pointer).
class SpanLog {
 public:
  /// Tag spans recorded from now on with \p run (the traced run's ordinal).
  static void set_run(int run);
  /// Drop every recorded span and aggregate.
  static void clear();
  /// Aggregates by span name over all threads.
  static std::map<std::string, SpanTotals> totals();
  /// Write the spans as Chrome trace-event JSON (opens in Perfetto).
  /// Leaf spans whose name starts with \p droppable_prefix are left out of
  /// the file once it would exceed \p max_spans events; the number left out
  /// is recorded in the file's metadata. Aggregates are unaffected.
  static void write_chrome(const std::string& path, int pid,
                           std::int64_t max_spans,
                           const std::string& droppable_prefix);
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

/// Global operator new calls counted while enabled (this binary replaces
/// operator new/delete to count them).
struct AllocCount {
  std::int64_t calls = 0;
  std::int64_t bytes = 0;
};
void set_alloc_counting(bool on);
AllocCount alloc_count();
void reset_alloc_count();

}  // namespace perfbench
