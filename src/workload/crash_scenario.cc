#include "src/workload/crash_scenario.h"

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/common/frame_buf.h"
#include "src/telemetry/audit.h"

namespace strom {
namespace {

// Saves/restores the process-wide telemetry defaults so scenario runs compose
// with whatever the embedding test or tool had configured.
struct DefaultsGuard {
  DefaultsGuard() : saved(Fabric::telemetry_defaults) {}
  ~DefaultsGuard() { Fabric::telemetry_defaults = saved; }
  TestbedTelemetryDefaults saved;
};

}  // namespace

CrashScenarioConfig CrashScenarioConfig::Small() {
  CrashScenarioConfig config;
  config.topo.num_hosts = 3;
  config.ycsb.sessions_per_host = 2000;
  config.ycsb.qps_per_peer = 2;
  config.ycsb.ops_per_host_per_sec = 1e5;
  config.ycsb.value_bytes = 128;
  config.ycsb.keys_per_server = 64;
  config.ycsb.max_outstanding_per_host = 16;
  config.ycsb.duration = Us(400);
  config.ycsb.warmup = Us(20);
  // Leases fast relative to the window: a mid-run crash is detected, backed
  // off, re-acquired and drained well inside the 3x-duration wedge guard.
  config.liveness.lease_interval = Us(10);
  config.liveness.backoff_initial = Us(5);
  config.liveness.backoff_max = Us(80);
  return config;
}

CrashScenarioResult RunCrashScenario(const CrashScenarioConfig& config,
                                     const FaultPlan& plan) {
  CrashScenarioResult result;

  DefaultsGuard guard;
  Fabric::telemetry_defaults = TestbedTelemetryDefaults{};
  // Search loops run hundreds of crashing schedules; a flight-recorder dump
  // per crash would be noise. Replays that want dumps re-enable it.
  Fabric::telemetry_defaults.dump_on_crash = false;
  Auditor auditor(Auditor::Mode::kWarn);
  Fabric::telemetry_defaults.auditor = &auditor;

  const uint64_t frames_before = FrameBlocksOutstanding();
  {
    Profile profile = config.use_100g ? Profile100G() : Profile10G();
    profile.roce.max_qps =
        uint32_t(config.topo.num_hosts) * config.ycsb.qps_per_peer + 8;
    std::optional<Fabric> fabric(std::in_place, profile, config.topo);
    fabric->ApplyFaultPlan(std::make_shared<const FaultPlan>(plan));
    YcsbEngine engine(*fabric, config.ycsb);
    engine.Setup();
    engine.EnableCrashRecovery(config.liveness);
    result.report = engine.Run();
    result.faults = fabric->fault_engine()->counters();
  }  // teardown runs the conservation sweeps and returns pooled frames
  result.audit_checks = auditor.checks();
  result.audit_violations = auditor.violations();
  result.frame_blocks_leaked =
      int64_t(FrameBlocksOutstanding()) - int64_t(frames_before);

  const YcsbReport& r = result.report;
  const uint64_t terminal = r.ops_completed + r.ops_failed + r.ops_fenced;
  if (terminal != r.ops_arrived) {
    result.outcome.violation = true;
    result.outcome.violation_kind = "non-terminal-ops";
    result.outcome.detail = "arrived=" + std::to_string(r.ops_arrived) +
                            " terminal=" + std::to_string(terminal) +
                            " (completed=" + std::to_string(r.ops_completed) +
                            " failed=" + std::to_string(r.ops_failed) +
                            " fenced=" + std::to_string(r.ops_fenced) + ")";
  } else if (r.deadline_hit) {
    result.outcome.violation = true;
    result.outcome.violation_kind = "deadline";
    result.outcome.detail = "drain missed the 3x-duration wedge guard";
  } else if (result.audit_violations > 0) {
    result.outcome.violation = true;
    result.outcome.violation_kind = "audit";
    result.outcome.detail =
        std::to_string(result.audit_violations) + " conservation violation(s)";
  } else if (result.frame_blocks_leaked != 0) {
    result.outcome.violation = true;
    result.outcome.violation_kind = "frame-leak";
    result.outcome.detail =
        std::to_string(result.frame_blocks_leaked) + " pooled frame block(s) leaked";
  }
  return result;
}

ScheduleRunner MakeCrashScheduleRunner(CrashScenarioConfig config) {
  return [config = std::move(config)](const FaultPlan& plan) {
    return RunCrashScenario(config, plan).outcome;
  };
}

}  // namespace strom
