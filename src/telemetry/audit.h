// Online conservation auditors: cheap invariant checks that catch the
// failure modes aggregate metrics hide — a frame that vanished without a
// drop counter, a PSN that moved backwards, a CNP the switch never asked
// for, a FrameBuf block that outlived its run.
//
// The Auditor itself is only the violation sink plus bookkeeping; the
// invariants live next to the state they check (topology teardown for
// link and port conservation and the CE=>BECN=>CNP ladder, the RoCE stack
// for inline PSN monotonicity, bench_util for the end-of-process FrameBuf
// leak sweep). All checks are gated on an Auditor being attached, so the
// default path stays byte-identical and pays nothing.
//
// On violation the auditor logs the localized reason (port/QP/link), dumps
// the post-mortem bundle of the reporting run's flight recorder, and — in
// kAbort mode, the default — aborts the process so CI and chaos soaks fail
// loudly.
#ifndef SRC_TELEMETRY_AUDIT_H_
#define SRC_TELEMETRY_AUDIT_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/telemetry/metrics.h"

namespace strom {

class Auditor {
 public:
  enum class Mode {
    kWarn,   // log the violation, keep running (non-zero violations())
    kAbort,  // log, dump the flight recorder, abort()
  };

  explicit Auditor(Mode mode = Mode::kAbort) : mode_(mode) {}

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  Mode mode() const { return mode_; }

  // Reports one failed invariant. `what` should localize the offender, e.g.
  // "leaf0.port3 conservation: enqueued=10 dequeued=8 queued=1". The calling
  // thread's current-run recorder (CurrentFlightRecorder), if any, is dumped
  // with reason "audit: <what>". Sweep points on --jobs workers share one
  // auditor, but a point runs entirely on one worker, so a violation dumps
  // the reporting point's recorder, never another's.
  void Violation(const std::string& what);
  // Convenience: checks `ok` and reports `what` when it does not hold.
  void Expect(bool ok, const std::string& what) {
    checks_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) {
      Violation(what);
    }
  }
  // Hot-path variant: callers count the check here and build the violation
  // message only on failure, so passing checks allocate nothing.
  void NoteCheck() { checks_.fetch_add(1, std::memory_order_relaxed); }

  uint64_t checks() const { return checks_.load(std::memory_order_relaxed); }
  uint64_t violations() const { return violations_.load(std::memory_order_relaxed); }

 private:
  Mode mode_;
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> violations_{0};
};

}  // namespace strom

#endif  // SRC_TELEMETRY_AUDIT_H_
