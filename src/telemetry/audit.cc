#include "src/telemetry/audit.h"

#include <cstdio>
#include <cstdlib>

#include "src/telemetry/flight_recorder.h"

namespace strom {

void Auditor::Violation(const std::string& what) {
  violations_.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "[audit] VIOLATION: %s\n", what.c_str());
  std::fflush(stderr);
  if (FlightRecorder* recorder = CurrentFlightRecorder()) {
    recorder->Record(0, 0, FlightRecordType::kAudit, 0, 0, 0, 0);
    recorder->DumpAuto("audit: " + what);
  }
  if (mode_ == Mode::kAbort) {
    std::fflush(stderr);
    std::abort();
  }
}

}  // namespace strom
