// Rack-scale topology builder: k hosts behind congestion-aware FabricSwitch
// fabric, either a single-switch rack (num_leaves = 1, num_spines = 0) or a
// two-tier leaf/spine. The class mirrors Testbed — same Node, same
// process-wide TestbedTelemetryDefaults (collector deposits, pcapng capture,
// sampling, fault plans), same ConnectQp/ReconnectQp out-of-band handshake —
// so benches and tests move between the 2-node cable and a rack by swapping
// the fixture.
//
// Placement and routing are static and deterministic:
//   * host i lives on leaf i / ceil(hosts/leaves);
//   * cross-leaf traffic to host h uses spine h % num_spines (per-destination
//     spine striping — no per-flow hashing, no RNG);
//   * every switch carries exact static routes, so nothing floods after
//     construction.
#ifndef SRC_FABRIC_FABRIC_H_
#define SRC_FABRIC_FABRIC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fabric/fabric_switch.h"
#include "src/faults/fault_engine.h"
#include "src/testbed/testbed.h"

namespace strom {

struct FabricTopologyConfig {
  int num_hosts = 4;
  int num_leaves = 1;
  int num_spines = 0;  // must be 0 iff num_leaves == 1
  // Switch knobs (queue cap, ECN threshold, PFC). port_rate_bps and ip_mtu
  // are overridden from the profile's link config at construction.
  FabricSwitchConfig sw;
};

class Fabric {
 public:
  Fabric(const Profile& profile, FabricTopologyConfig topo);
  ~Fabric();

  Simulator& sim() { return sim_; }
  Telemetry& telemetry() { return *telemetry_; }
  const Profile& profile() const { return profile_; }

  Node& node(int i) { return *nodes_.at(i); }
  int num_hosts() const { return static_cast<int>(nodes_.size()); }

  FabricSwitch& leaf(int i) { return *leaves_.at(i); }
  FabricSwitch& spine(int i) { return *spines_.at(i); }
  int num_leaves() const { return static_cast<int>(leaves_.size()); }
  int num_spines() const { return static_cast<int>(spines_.size()); }
  int LeafOf(int host) const { return host / hosts_per_leaf_; }

  // Out-of-band QP handshake / error recovery, same contract as Testbed.
  void ConnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a = 1000, Psn psn_b = 5000);
  void ReconnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a = 2000, Psn psn_b = 6000);

  // Attaches a FaultEngine to every fabric link and DMA engine. Links are
  // numbered in (leaf, port) order over *owned* links; link k's endpoint/peer
  // side is global target 2k and the owning switch's side is 2k+1, so plans
  // can flap individual host links or leaf-spine cables.
  void ApplyFaultPlan(std::shared_ptr<const FaultPlan> plan);
  FaultEngine* fault_engine() { return fault_engine_.get(); }

  // Crash/restart observer, same contract as Testbed::AddCrashListener.
  // Switch episodes use FaultTargetKind::kSwitch with target indexing leaves
  // 0..L-1 then spines L..L+S-1.
  void AddCrashListener(CrashListener listener) {
    crash_listeners_.push_back(std::move(listener));
  }
  // Switch `index` in the crash-episode numbering (leaves, then spines).
  FabricSwitch& switch_at(int index) {
    return index < num_leaves() ? *leaves_.at(index)
                                : *spines_.at(index - num_leaves());
  }

  // "<prefix>.fabric.pcapng" taps every switch port (interfaces
  // "<switch>.port<i>.*"); "<prefix>.node<i>.nic.pcapng" taps each NIC.
  std::vector<std::string> EnableCapture(const std::string& prefix);
  void StartSampling(SimTime interval);

  FlightRecorder* flight_recorder() { return flight_recorder_.get(); }
  FlowStats* flow_stats() { return flow_stats_.get(); }

 private:
  void InitObservability();
  void ScheduleSample(SimTime interval);
  void RunTeardownAudits();
  void ArmCrashEpisodes();
  void OnCrashEpisode(FaultTargetKind kind, int index, const FaultEpisode& ep);
  void OnRestartEpisode(FaultTargetKind kind, int index, const FaultEpisode& ep);

  Profile profile_;
  Simulator sim_;
  ArpTable arp_;
  std::unique_ptr<Telemetry> telemetry_;
  int hosts_per_leaf_ = 1;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<FabricSwitch>> leaves_;
  std::vector<std::unique_ptr<FabricSwitch>> spines_;
  std::unique_ptr<FaultEngine> fault_engine_;
  std::unique_ptr<FlowStats> flow_stats_;
  std::unique_ptr<FlightRecorder> flight_recorder_;
  std::vector<std::unique_ptr<PcapWriter>> captures_;
  std::vector<CrashListener> crash_listeners_;
};

}  // namespace strom

#endif  // SRC_FABRIC_FABRIC_H_
