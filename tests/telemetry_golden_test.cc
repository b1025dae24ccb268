// Telemetry golden digests: one run with every probe subscriber switched on,
// reduced to the SHA-256 of every file it writes. A 3-host single-switch
// rack runs a 2->1 ECN/DCQCN YCSB incast under a fault plan with loss,
// duplication, reordering/jitter and a NIC crash-restart (plus a handful of
// knob-driven corruptions), with crash recovery armed. Capture (fabric and
// per-NIC pcapng), the flight recorder with a teardown bundle dump, per-flow
// stats and 1-in-1 span tracing are all on, so the pinned files cover every
// event kind the RoCE stacks, liveness monitors and links report: TX/RX and
// RX drops, completions, CE/BECN/CNP, rate cuts and increases, retransmits,
// timeouts, QP state changes, lease/peer events, and wire
// send/drop/corrupt/delay/duplicate/oversize.
//
// The digests are the behaviour contract for the telemetry layer: any change
// to what a sink writes, or in what order, shows up here. Re-pin only for an
// intended output change, and say why in CHANGES.md.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/fabric/fabric.h"
#include "src/faults/fault_plan.h"
#include "src/host/liveness.h"
#include "src/telemetry/flow_stats.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/ycsb.h"
#include "tests/sha256_test_util.h"

namespace strom {
namespace {

constexpr char kPlan[] = R"(seed 23
link0 burst_loss 40us 90us p_gb=0.05 p_bg=0.3 loss_good=0 loss_bad=0.6
link2 duplicate 20us 160us p=0.03
link1 reorder 30us 150us p=0.05 delay=3us
link* jitter 60us 110us max=1us
nic1 crash 120us - restart_after=40us
)";

// Restores the process-wide defaults and the run ordinal after the run.
struct DefaultsGuard {
  DefaultsGuard() : saved(Fabric::telemetry_defaults) { Fabric::run_ordinal = 0; }
  ~DefaultsGuard() {
    Fabric::telemetry_defaults = saved;
    Fabric::run_ordinal = -1;
  }
  TestbedTelemetryDefaults saved;
};

// Runs the scenario with every sink on; returns file suffix -> SHA-256.
std::map<std::string, std::string> RunAllSinks(const std::string& prefix) {
  DefaultsGuard guard;
  TelemetryCollector collector;
  FlowStatsSink flows;
  Result<FaultPlan> plan = FaultPlan::Parse(kPlan);
  EXPECT_TRUE(plan.ok()) << plan.status();

  TestbedTelemetryDefaults& d = Fabric::telemetry_defaults;
  d = TestbedTelemetryDefaults{};
  d.enable_trace = true;
  d.collector = &collector;
  d.capture_prefix = prefix;
  d.flow_sink = &flows;
  d.flight_recorder = true;
  d.postmortem_stem = prefix + ".postmortem";
  d.dump_on_crash = false;  // the teardown dump is the one pinned
  d.fault_plan = std::make_shared<const FaultPlan>(*plan);

  YcsbConfig cfg;
  cfg.incast = true;
  cfg.sessions_per_host = 2000;
  cfg.ops_per_host_per_sec = 300000;
  cfg.value_bytes = 4096;
  cfg.max_outstanding_per_host = 32;
  cfg.duration = Us(250);
  cfg.warmup = Us(10);

  Profile profile = Profile10G();
  profile.roce.max_qps = 3 * cfg.qps_per_peer + 8;
  profile.roce.ecn_capable = true;
  profile.roce.dcqcn.enable = true;

  FabricTopologyConfig topo;
  topo.num_hosts = 3;
  topo.sw.egress_queue_bytes = 96 * 1024;
  topo.sw.ecn_threshold_bytes = 8 * 1024;

  LivenessConfig liveness;
  liveness.lease_interval = Us(10);
  liveness.backoff_initial = Us(5);
  liveness.backoff_max = Us(40);

  {
    std::optional<Fabric> fabric(std::in_place, profile, topo);
    // Corruption has no plan directive; the link knobs inject it. Host 1's
    // uplink carries incast data, the victim's downlink carries ACKs back.
    fabric->leaf(0).PortLink(1).CorruptNext(0, 3);
    fabric->leaf(0).PortLink(0).CorruptNext(1, 2);
    // One jumbo frame that the link refuses before serializing it.
    PointToPointLink& jumbo_link = fabric->leaf(0).PortLink(2);
    jumbo_link.Send(0, FrameBuf::Allocate(jumbo_link.config().EthMtu() + 1));
    YcsbEngine engine(*fabric, cfg);
    engine.Setup();
    engine.EnableCrashRecovery(liveness);
    const YcsbReport report = engine.Run();
    EXPECT_FALSE(report.deadline_hit);
    EXPECT_GT(report.ce_marked, 0u);
    EXPECT_GT(report.rx_cnp, 0u);
    EXPECT_GT(report.peers_declared_dead, 0u);
    EXPECT_EQ(report.ops_arrived,
              report.ops_completed + report.ops_failed + report.ops_fenced);
  }
  EXPECT_TRUE(collector.WriteChromeTrace(prefix + ".trace.json").ok());
  EXPECT_TRUE(collector.WriteMetrics(prefix + ".metrics.csv").ok());
  EXPECT_TRUE(flows.WriteCsv(prefix + ".flows.csv").ok());

  std::map<std::string, std::string> digests;
  for (const char* suffix :
       {".fabric.pcapng", ".node0.nic.pcapng", ".node1.nic.pcapng", ".node2.nic.pcapng",
        ".postmortem.flightrec.bin", ".postmortem.frames.pcapng",
        ".postmortem.metrics.csv", ".flows.csv", ".trace.json", ".metrics.csv"}) {
    digests[suffix] = Sha256File(prefix + suffix);
  }
  return digests;
}

TEST(TelemetryGolden, EverySinkWritesPinnedBytes) {
  const std::map<std::string, std::string> got =
      RunAllSinks(::testing::TempDir() + "/telemetry_golden");
  const std::map<std::string, std::string> want = {
      {".fabric.pcapng",
       "cb7b3fa1c58f171de8cb28ead3e7ab515a2e80096796cc45910fd9263b36b0aa"},
      {".node0.nic.pcapng",
       "f32836f9962b8674d9a9360197d15a2fed637312f0917ec0f511b8d9059b7d46"},
      {".node1.nic.pcapng",
       "e22a20f6b13744984565806d3b11bd1f99dc4f075b44fdf6507fcbf881260b9e"},
      {".node2.nic.pcapng",
       "183bd73210bd7a210271e1f8869a1fe58b5e8477ca75f63babede5558c2f91b1"},
      {".postmortem.flightrec.bin",
       "2ca7323d711830c119a053f822d2cc3a0daa03899c7fda4cb51c91e8bb04a9c5"},
      {".postmortem.frames.pcapng",
       "c9eb53b87a62453e82b216c110daef9f867eacd83f17e2db357fd0406c91ed1f"},
      {".postmortem.metrics.csv",
       "087b8b56d23bddf2f25938f6a370a2c20c7d2aa331a1193dfa0395dc12fd5a9e"},
      {".flows.csv",
       "472904a344140f48e08f3299fcb82599825dd0585df247b8896a31ef79f5f1fa"},
      {".trace.json",
       "1fb1e101916e10618b7b61afebae9100ef8fed82a4f6473d4528ce522df4e38f"},
      {".metrics.csv",
       "d189b32056d036425e33d216884bbf2400a9e55dcab7e66997ba3821d50c3200"},
  };
  for (const auto& [suffix, digest] : want) {
    EXPECT_EQ(got.at(suffix), digest) << suffix;
  }
}

}  // namespace
}  // namespace strom
