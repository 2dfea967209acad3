//===- support/Trace.h - Hierarchical analysis tracing ----------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability layer: hierarchical timed spans
/// (one per pipeline stage, per SCCP solve, per cloning round, ...) and
/// point events carrying a per-procedure detail string. Tracing is
/// opt-in and thread-local: instrumentation sites go through the
/// zero-cost-when-inactive helpers (ScopedTraceSpan, traceEvent) instead
/// of threading a Trace through every analysis signature. Each thread
/// has its own active trace; the parallel suite runner gives every worker
/// task a private Trace and merges them into the parent trace in
/// deterministic task order with absorb(), so a traced
/// `suitecheck --jobs=8` run renders the same span tree as a sequential
/// one (only the timings differ).
///
/// A finished trace renders as an indented text tree (`--trace`) or as
/// JSON (embedded in the `--report-json` report). The span and event
/// names used by the analyzer are documented in docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SUPPORT_TRACE_H
#define IPCP_SUPPORT_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ipcp {

class JsonValue;

/// One recording session. Create one, activate it around the work to
/// observe, then render with str() or toJson().
class Trace {
public:
  static constexpr size_t NoParent = size_t(-1);

  /// One completed (or still-open) timed region.
  struct Span {
    std::string Name;
    std::string Detail;          ///< e.g. the procedure being analyzed
    uint64_t StartUs = 0;        ///< offset from trace start
    uint64_t DurationUs = 0;     ///< 0 while still open
    size_t Parent = NoParent;    ///< index into spans(), NoParent for roots
    unsigned Depth = 0;
    bool Open = true;
  };

  /// One point-in-time event, attributed to the enclosing span.
  struct Event {
    std::string Name;
    std::string Detail;
    uint64_t TimeUs = 0;
    size_t Span = NoParent;
  };

  Trace() : Start(Clock::now()) {}

  /// The calling thread's active trace; null when tracing is off.
  static Trace *active() { return Active; }

  /// Installs \p T as the calling thread's active trace (null
  /// deactivates). Returns the previously active trace so scopes can
  /// nest.
  static Trace *setActive(Trace *T) {
    Trace *Prev = Active;
    Active = T;
    return Prev;
  }

  /// Opens a span under the currently open span. Returns its index.
  size_t beginSpan(std::string Name, std::string Detail = {});

  /// Closes the innermost open span (asserting LIFO discipline is the
  /// caller's job; mismatches simply close the innermost).
  void endSpan();

  /// Records a point event inside the currently open span.
  void event(std::string Name, std::string Detail = {});

  /// Appends \p Child's spans and events under this trace's currently
  /// open span (or as roots when none is open), offsetting their times by
  /// the interval between the two traces' construction. The child is
  /// left untouched. This is how the parallel suite runner folds
  /// per-worker traces back into the parent trace in deterministic task
  /// order.
  void absorb(const Trace &Child);

  const std::vector<Span> &spans() const { return Spans; }
  const std::vector<Event> &events() const { return Events; }

  /// Microseconds since the trace was constructed.
  uint64_t nowUs() const {
    return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - Start)
                        .count());
  }

  /// Indented text rendering: the span tree with durations, then events.
  std::string str() const;

  /// JSON rendering: {"spans": [...], "events": [...]} with spans nested
  /// as trees.
  JsonValue toJson() const;

private:
  using Clock = std::chrono::steady_clock;

  JsonValue spanToJson(size_t Index) const;

  static inline thread_local Trace *Active = nullptr;

  Clock::time_point Start;
  std::vector<Span> Spans;
  std::vector<Event> Events;
  std::vector<size_t> OpenStack;
};

/// RAII span: no-op when no trace is active at construction time.
class ScopedTraceSpan {
public:
  ScopedTraceSpan(const char *Name, std::string Detail = {}) {
    if (Trace *T = Trace::active()) {
      T->beginSpan(Name, std::move(Detail));
      Recording = T;
    }
  }
  ~ScopedTraceSpan() {
    if (Recording)
      Recording->endSpan();
  }

  ScopedTraceSpan(const ScopedTraceSpan &) = delete;
  ScopedTraceSpan &operator=(const ScopedTraceSpan &) = delete;

private:
  Trace *Recording = nullptr;
};

/// Records a point event on the active trace, if any.
inline void traceEvent(const char *Name, std::string Detail = {}) {
  if (Trace *T = Trace::active())
    T->event(Name, std::move(Detail));
}

} // namespace ipcp

#endif // IPCP_SUPPORT_TRACE_H
