// Topology builder: hosts joined either by the paper's direct cable
// (num_leaves = 0, exactly two hosts, §6.1) or by congestion-aware
// FabricSwitch fabric — a single-switch rack (num_leaves = 1,
// num_spines = 0) or a two-tier leaf/spine. Every topology shares the same
// Node, the process-wide TestbedTelemetryDefaults (collector deposits,
// pcapng capture, sampling, fault plans, audits, flight recorder) and the
// same ConnectQp/ReconnectQp out-of-band handshake, so benches and tests
// move between the cable and a rack by changing the topology config.
// Testbed (src/testbed/testbed.h) is the paper's preset of this class.
//
// Placement and routing are static and deterministic:
//   * host i lives on leaf i / ceil(hosts/leaves);
//   * cross-leaf traffic to host h uses spine h % num_spines (per-destination
//     spine striping — no per-flow hashing, no RNG);
//   * every switch carries exact static routes, so nothing floods after
//     construction.
#ifndef SRC_FABRIC_FABRIC_H_
#define SRC_FABRIC_FABRIC_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fabric/fabric_switch.h"
#include "src/faults/fault_engine.h"
#include "src/netsim/arp_table.h"
#include "src/netsim/link.h"
#include "src/telemetry/pcap_writer.h"
#include "src/telemetry/telemetry.h"
#include "src/testbed/node.h"

namespace strom {

class Auditor;
class FlightRecorder;
class FlowStats;
class FlowStatsSink;

// Process-wide telemetry defaults applied to every topology at construction.
// bench_util sets these from its telemetry flags so all bench binaries gain
// telemetry export without per-bench changes. The RoCE stacks, liveness
// monitors, links and crash handling report their events once into the
// run's probe (src/telemetry/probe.h); pcapng capture, flow stats and the
// flight recorder below are the probe's subscribers, created only when
// switched on, and the NIC/wire trace spans subscribe for sampled traces.
// With all of them off each hook site costs one branch.
struct TestbedTelemetryDefaults {
  // Span tracing: every `sample_every`-th message gets a sampled trace.
  bool enable_trace = false;
  uint32_t sample_every = 1;
  // When set, each destructed topology deposits its run here (metrics
  // snapshot + trace events), labeled "run<N>:<profile name>".
  TelemetryCollector* collector = nullptr;
  // When non-empty, the first `capture_runs` constructed topologies
  // subscribe a PcapTap that records their wire and NIC boundaries into
  // pcapng files named
  // "<capture_prefix>[.runN].{wire,fabric,node<i>.nic}.pcapng". Benches build
  // one topology per iteration, so the default of 1 captures only the first.
  std::string capture_prefix;
  int capture_runs = 1;
  // When > 0, every topology samples queue depths / occupancy / utilization
  // into its telemetry sampler at this simulated-time interval.
  SimTime sample_interval = 0;
  // When set (bench_util --fault-plan), every topology attaches a FaultEngine
  // running this plan against its links and DMA engines. Null (the default)
  // leaves the fault machinery entirely unhooked: no RNG draws, no extra
  // branches on the data path, byte-identical traffic.
  std::shared_ptr<const FaultPlan> fault_plan;
  // When set (bench_util --audit), every topology attaches it to its RoCE
  // stacks (inline PSN monotonicity) and runs link/port frame conservation
  // plus the CE=>BECN=>CNP ladder checks at teardown. Null (the default)
  // leaves every check compiled out of the hot path behind a single null
  // test.
  Auditor* auditor = nullptr;
  // When set (bench_util --flow-stats), each run subscribes a FlowStats that
  // collects per-QP flow stats and a sampled DCQCN timeline, and deposits
  // them here at teardown under the same "run<N>:<profile>" label as the
  // metrics collector.
  FlowStatsSink* flow_sink = nullptr;
  // When true (bench_util --audit / --postmortem-out), every run subscribes
  // a flight recorder ring of recent protocol events and frames. A non-empty
  // postmortem_stem both (a) arms auto-dump on watchdog/fatal/audit events
  // and (b) forces an explicit bundle dump at teardown.
  bool flight_recorder = false;
  std::string postmortem_stem;
  // Crash episodes are a first-class flight-recorder dump trigger: the first
  // component death dumps the post-mortem bundle (first-trigger-wins, like
  // watchdog/fatal/audit). Off for search loops (the chaos explorer runs
  // hundreds of crashing schedules and only wants files for the reproducer).
  bool dump_on_crash = true;
};

// Observer hook for crash/restart episodes: invoked after the component has
// crashed (`restarted == false`) or come back (`restarted == true`). The
// liveness and workload layers subscribe to drive lease expiry and session
// resume without polling.
using CrashListener = std::function<void(const FaultEpisode&, bool restarted)>;

struct FabricTopologyConfig {
  int num_hosts = 4;
  // 0 = the direct cable (num_hosts must be 2); 1 = a single-switch rack;
  // more = leaf/spine.
  int num_leaves = 1;
  int num_spines = 0;  // must be 0 iff num_leaves <= 1
  // Switch knobs (queue cap, ECN threshold, PFC). port_rate_bps and ip_mtu
  // are overridden from the profile's link config at construction.
  FabricSwitchConfig sw;
};

class Fabric {
 public:
  Fabric(const Profile& profile, FabricTopologyConfig topo);
  ~Fabric();

  static TestbedTelemetryDefaults telemetry_defaults;

  // Sweep-point ordinal of the current thread, set by the parallel sweep
  // runner around each point (-1 = serial execution). It replaces the
  // process-wide run/capture counters so run labels ("run<N>:<profile>"),
  // collector merge order, and which runs get pcapng captures depend only on
  // the point's position in the sweep — never on worker scheduling — making
  // --jobs N output byte-identical to --jobs 1.
  inline static thread_local int64_t run_ordinal = -1;

  Simulator& sim() { return sim_; }
  Telemetry& telemetry() { return *telemetry_; }
  Tracer& tracer() { return telemetry_->tracer; }
  const Profile& profile() const { return profile_; }

  Node& node(int i) { return *nodes_.at(i); }
  int num_hosts() const { return static_cast<int>(nodes_.size()); }

  // The cable of the num_leaves = 0 topology; null behind switches.
  PointToPointLink* direct_link() { return direct_link_.get(); }

  // Switches in crash-episode numbering: leaves 0..L-1, then spines
  // L..L+S-1.
  FabricSwitch& leaf(int i) { return *switches_.at(i); }
  FabricSwitch& spine(int i) { return *switches_.at(num_leaves_ + i); }
  int num_leaves() const { return num_leaves_; }
  int num_spines() const { return static_cast<int>(switches_.size()) - num_leaves_; }
  int LeafOf(int host) const { return host / hosts_per_leaf_; }

  // Sets up a reliable connection between node `a` QP `qpn_a` and node `b`
  // QP `qpn_b` (out-of-band exchange of QPNs and initial PSNs).
  void ConnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a = 1000, Psn psn_b = 5000);

  // Recovery path after a QP error: resets both ends and re-connects with
  // fresh PSNs (out-of-band resync). The new PSNs default to values disjoint
  // from ConnectQp's so stale in-flight frames are rejected as duplicates.
  void ReconnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a = 2000, Psn psn_b = 6000);

  // Attaches a FaultEngine to every link and DMA engine, and arms host, NIC
  // and switch crash episodes. Links are numbered in (leaf, port) order over
  // *owned* links (the cable is link 0); link k's endpoint/peer side is
  // global target 2k and the owning switch's side is 2k+1, so plans can flap
  // individual host links or leaf-spine cables. Called automatically at
  // construction when telemetry_defaults.fault_plan is set. May be called
  // once per topology.
  void ApplyFaultPlan(std::shared_ptr<const FaultPlan> plan);
  FaultEngine* fault_engine() { return fault_engine_.get(); }

  // Registers a crash/restart observer. Call before the plan's first crash
  // fires. Listeners run after the component's own crash/restart handling.
  void AddCrashListener(CrashListener listener) {
    crash_listeners_.push_back(std::move(listener));
  }

  // Subscribes the run's PcapTap (once) and taps the wire and each node's
  // NIC boundary into pcapng files under `prefix`: "<prefix>.wire.pcapng"
  // (interface "wire") on the cable, or "<prefix>.fabric.pcapng" (interfaces
  // "<switch>.port<i>.*") behind switches, plus "<prefix>.node<i>.nic.pcapng".
  // Returns the created file paths. Call before generating traffic
  // (interfaces precede packets).
  std::vector<std::string> EnableCapture(const std::string& prefix);

  // Registers every component's sampler probes and starts a periodic
  // sampling event. The tick re-arms itself only while other events are
  // pending, so RunUntilIdle() still terminates.
  void StartSampling(SimTime interval);

  FlightRecorder* flight_recorder() { return flight_recorder_.get(); }
  FlowStats* flow_stats() { return flow_stats_.get(); }

 private:
  // Calls fn(name, link) for every link: the cable ("network"), or each
  // switch-owned port link ("<switch>.port<i>") in fault-plan order.
  template <typename Fn>
  void ForEachLink(Fn&& fn);

  void InitObservability();
  void ScheduleSample(SimTime interval);
  void RunTeardownAudits();
  void ArmCrashEpisodes();
  void OnCrashEpisode(FaultTargetKind kind, int index, const FaultEpisode& ep);
  void OnRestartEpisode(FaultTargetKind kind, int index, const FaultEpisode& ep);
  void EmitCrashEvent(ProbeKind probe_kind, FaultTargetKind kind, int index);

  Profile profile_;
  Simulator sim_;
  ArpTable arp_;
  std::unique_ptr<Telemetry> telemetry_;
  int num_leaves_ = 0;
  int hosts_per_leaf_ = 1;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<PointToPointLink> direct_link_;         // cable topology
  std::vector<std::unique_ptr<FabricSwitch>> switches_;  // leaves, then spines
  std::unique_ptr<FaultEngine> fault_engine_;
  // Probe subscribers (see InitObservability / EnableCapture).
  std::unique_ptr<FlowStats> flow_stats_;
  std::unique_ptr<FlightRecorder> flight_recorder_;
  std::unique_ptr<PcapTap> capture_tap_;
  std::vector<std::unique_ptr<PcapWriter>> captures_;
  std::vector<CrashListener> crash_listeners_;
};

}  // namespace strom

#endif  // SRC_FABRIC_FABRIC_H_
