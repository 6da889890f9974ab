//===- perfbench/src/Trace.h - Outside-in span recorder ------------*- C++ -*-===//
///
/// \file
/// Spans the benchmark records around its own calls into the program's
/// public functions. A span carries a name, start, end, the span that
/// caused it (parent) and the request / edit / step id it belongs to.
/// Spans stay in memory and are written once, at the end of a traced run,
/// as Chrome trace-event JSON (chrome://tracing, Perfetto).
///
/// A disabled recorder makes ScopedSpan a no-op apart from one branch, so
/// the same code path runs traced and untraced; the difference in wall
/// time between the two is the tracing overhead the traced run reports.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary epoch.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int Parent = -1;   ///< Index of the causing span; -1 for a root.
  int64_t Rid = -1;  ///< Request / edit / step id shared by a tree.
  int Tid = 0;       ///< Logical lane (client connection) for the viewer.

  int64_t durNs() const { return EndNs - StartNs; }
};

/// Single-threaded span store. Each thread that records owns its own
/// recorder (the load generator gives each connection one) and they are
/// merged with append() after the threads join.
class Recorder {
public:
  explicit Recorder(bool Enabled = false) : On(Enabled) {}

  bool enabled() const { return On; }
  void setEnabled(bool E) { On = E; }

  /// Opens a span under the innermost open span; \returns its index
  /// (-1 when disabled).
  int open(const char *Name, int64_t Rid);
  void close(int Idx);
  /// Records an already-measured interval as a child of the innermost
  /// open span (used for durations the program reports through public
  /// counters, e.g. Predictor::embedMicros()).
  void addClosed(const char *Name, int64_t StartNs, int64_t EndNs,
                 int64_t Rid);

  void setLane(int Tid) { Lane = Tid; }
  const std::vector<Span> &spans() const { return Spans; }
  void clear() { Spans.clear(); Stack.clear(); }
  /// Moves \p Other's spans in, re-basing their parent indices.
  void append(Recorder &Other);

private:
  bool On;
  int Lane = 0;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
public:
  ScopedSpan(Recorder &R, const char *Name, int64_t Rid)
      : R(R), Idx(R.open(Name, Rid)) {}
  ~ScopedSpan() { R.close(Idx); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Recorder &R;
  int Idx;
};

/// Writes \p Spans as Chrome trace-event JSON ("X" complete events,
/// microsecond timestamps relative to the first span). \returns false
/// when the file cannot be written.
bool writeChromeTrace(const std::string &Path, const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
