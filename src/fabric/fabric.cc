#include "src/fabric/fabric.h"

#include <tuple>

#include "src/common/logging.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/flow_stats.h"

namespace strom {

namespace {

MacAddr MacForHost(int i) {
  return MacAddr{0x02, 0x00, 0x00, 0x00, static_cast<uint8_t>((i + 1) >> 8),
                 static_cast<uint8_t>((i + 1) & 0xFF)};
}

Ipv4Addr IpForHost(int i) {
  // 10.0.<hi>.<lo> with lo in 1..250: room for tens of thousands of hosts.
  return MakeIp(10, 0, static_cast<uint8_t>(i / 250), static_cast<uint8_t>(i % 250 + 1));
}

// Frame conservation on both directions of one link: "frames sent =
// delivered + dropped".
void AuditLinkConservation(Auditor& auditor, const std::string& name,
                           const PointToPointLink& link) {
  for (int side = 0; side < 2; ++side) {
    const LinkCounters& c = link.counters(side);
    auditor.NoteCheck();
    if (c.frames_sent != c.frames_delivered + c.frames_dropped) {
      auditor.Violation(name + ".side" + std::to_string(side) +
                        " conservation: sent=" + std::to_string(c.frames_sent) +
                        " delivered=" + std::to_string(c.frames_delivered) +
                        " dropped=" + std::to_string(c.frames_dropped));
    }
  }
}

uint8_t CrashOpcode(FaultTargetKind kind) {
  switch (kind) {
    case FaultTargetKind::kHost:
      return 0;
    case FaultTargetKind::kNic:
      return 1;
    default:
      return 2;  // kSwitch
  }
}

}  // namespace

TestbedTelemetryDefaults Fabric::telemetry_defaults;

Fabric::Fabric(const Profile& profile, FabricTopologyConfig topo)
    : profile_(profile), telemetry_(std::make_unique<Telemetry>()) {
  STROM_CHECK_GE(topo.num_hosts, 2);
  STROM_CHECK_GE(topo.num_leaves, 0);
  if (topo.num_leaves == 0) {
    STROM_CHECK_EQ(topo.num_hosts, 2) << "a direct cable joins exactly two hosts";
  }
  if (topo.num_leaves <= 1) {
    STROM_CHECK_EQ(topo.num_spines, 0) << "a cable or single-switch rack has no spine tier";
  } else {
    STROM_CHECK_GE(topo.num_spines, 1) << "multi-leaf fabric needs a spine tier";
  }
  if (telemetry_defaults.enable_trace) {
    telemetry_->tracer.Enable(telemetry_defaults.sample_every);
  }

  for (int i = 0; i < topo.num_hosts; ++i) {
    arp_.Add(IpForHost(i), MacForHost(i));
  }
  for (int i = 0; i < topo.num_hosts; ++i) {
    nodes_.push_back(std::make_unique<Node>(sim_, profile, IpForHost(i), MacForHost(i), arp_));
    nodes_.back()->AttachTelemetry(telemetry_.get(), i);
  }
  auto wire = [](Node* node, PointToPointLink& link, int side) {
    link.Attach(side, [node](FrameBuf frame, TraceContext trace) {
      node->OnFrame(std::move(frame), trace);
    });
    node->SetFrameSender([&link, side](FrameBuf frame, TraceContext trace) {
      link.Send(side, std::move(frame), trace);
    });
  };

  if (topo.num_leaves == 0) {
    direct_link_ = std::make_unique<PointToPointLink>(sim_, profile.link);
    direct_link_->AttachProbe(&telemetry_->probe, 0);
    direct_link_->AttachTelemetry(telemetry_.get(), "network");
    wire(nodes_[0].get(), *direct_link_, 0);
    wire(nodes_[1].get(), *direct_link_, 1);
    InitObservability();
    return;
  }

  topo.sw.port_rate_bps = profile.link.rate_bps;
  topo.sw.ip_mtu = profile.link.ip_mtu;
  num_leaves_ = topo.num_leaves;
  hosts_per_leaf_ = (topo.num_hosts + topo.num_leaves - 1) / topo.num_leaves;
  for (int l = 0; l < topo.num_leaves; ++l) {
    switches_.push_back(std::make_unique<FabricSwitch>(sim_, topo.sw, "leaf" + std::to_string(l)));
  }
  for (int s = 0; s < topo.num_spines; ++s) {
    switches_.push_back(std::make_unique<FabricSwitch>(sim_, topo.sw, "spine" + std::to_string(s)));
  }

  // Host links.
  for (int i = 0; i < topo.num_hosts; ++i) {
    FabricSwitch& sw = leaf(LeafOf(i));
    const int port = sw.AddPort();
    wire(nodes_[i].get(), sw.PortLink(port), 0);
    sw.AddStaticRoute(MacForHost(i), port);
  }

  // Leaf-spine cables + static routes: leaf l reaches remote host h through
  // spine h % num_spines; spine s reaches host h through its cable to
  // leaf(h). With exact routes everywhere, nothing floods.
  const int num_sp = topo.num_spines;
  std::vector<std::vector<int>> uplink(num_leaves_, std::vector<int>(num_sp));  // [leaf][spine]
  std::vector<std::vector<int>> downlink(num_sp, std::vector<int>(num_leaves_));  // [spine][leaf]
  for (int l = 0; l < num_leaves_; ++l) {
    for (int s = 0; s < num_sp; ++s) {
      std::tie(uplink[l][s], downlink[s][l]) = leaf(l).ConnectTo(spine(s));
    }
  }
  for (int h = 0; h < topo.num_hosts; ++h) {
    const int hl = LeafOf(h);
    for (int l = 0; l < num_leaves_; ++l) {
      if (l != hl) {
        leaf(l).AddStaticRoute(MacForHost(h), uplink[l][h % num_sp]);
      }
    }
    for (int s = 0; s < num_sp; ++s) {
      spine(s).AddStaticRoute(MacForHost(h), downlink[s][hl]);
    }
  }

  for (auto& sw : switches_) {
    sw->AttachTelemetry(telemetry_.get(), sw->name());
  }
  int link_id = 0;
  ForEachLink([this, &link_id](const std::string&, PointToPointLink& link) {
    link.AttachProbe(&telemetry_->probe, link_id++);
  });
  InitObservability();
}

template <typename Fn>
void Fabric::ForEachLink(Fn&& fn) {
  if (direct_link_ != nullptr) {
    fn("network", *direct_link_);
  }
  // Spines own no links (cables belong to the leaf that dialed ConnectTo),
  // so (leaf, port) order over owned links enumerates every fabric link
  // exactly once: host links first per leaf, then that leaf's uplinks.
  for (auto& sw : switches_) {
    for (int port = 0; port < sw->num_ports(); ++port) {
      if (sw->OwnsPortLink(port)) {
        fn(sw->name() + ".port" + std::to_string(port), sw->PortLink(port));
      }
    }
  }
}

void Fabric::InitObservability() {
  const TestbedTelemetryDefaults& d = telemetry_defaults;
  if (!d.capture_prefix.empty()) {
    // The sweep ordinal (when set) decides which runs capture; the static
    // counter is the serial fallback and is never touched by sweep workers.
    int64_t ordinal = run_ordinal;
    if (ordinal < 0) {
      static int capture_counter = 0;
      ordinal = capture_counter++;
    }
    if (ordinal < d.capture_runs) {
      std::string prefix = d.capture_prefix;
      if (ordinal > 0) {
        prefix += ".run" + std::to_string(ordinal);
      }
      EnableCapture(prefix);
    }
  }
  if (d.sample_interval > 0) {
    StartSampling(d.sample_interval);
  }
  if (d.fault_plan != nullptr) {
    ApplyFaultPlan(d.fault_plan);
  }
  if (d.flow_sink != nullptr) {
    flow_stats_ = std::make_unique<FlowStats>();
    telemetry_->probe.Subscribe(flow_stats_.get());
    // Flow-stats runs also want the switch-port congestion series; piggyback
    // on the sampler when it is running.
    if (d.sample_interval > 0) {
      for (auto& sw : switches_) {
        sw->AttachFlowSampler(telemetry_.get(), sw->name());
      }
    }
  }
  if (d.flight_recorder || !d.postmortem_stem.empty()) {
    flight_recorder_ = std::make_unique<FlightRecorder>(num_hosts());
    telemetry_->probe.Subscribe(flight_recorder_.get());
    // Auto-dump destination for the watchdog/fatal/audit paths; the default
    // stem keeps audit aborts actionable even without --postmortem-out.
    flight_recorder_->set_auto_dump_stem(
        d.postmortem_stem.empty() ? "postmortem" : d.postmortem_stem);
    SetCurrentFlightRecorder(flight_recorder_.get());
  }
  if (d.auditor != nullptr) {
    for (int i = 0; i < num_hosts(); ++i) {
      nodes_[i]->stack().AttachAuditor(d.auditor);
    }
  }
}

Fabric::~Fabric() {
  const TestbedTelemetryDefaults& d = telemetry_defaults;
  if (d.auditor != nullptr) {
    RunTeardownAudits();
  }
  if (d.collector != nullptr ||
      (d.flow_sink != nullptr && flow_stats_ != nullptr)) {
    int64_t ordinal = run_ordinal;
    if (ordinal < 0) {
      static uint64_t run_counter = 0;
      ordinal = static_cast<int64_t>(run_counter++);
    }
    const std::string label = "run" + std::to_string(ordinal) + ":" + profile_.name;
    if (d.collector != nullptr) {
      d.collector->Collect(label, *telemetry_, run_ordinal);
    }
    if (d.flow_sink != nullptr && flow_stats_ != nullptr) {
      d.flow_sink->Deposit(label, *flow_stats_, run_ordinal);
    }
  }
  if (flight_recorder_ != nullptr && !d.postmortem_stem.empty()) {
    const MetricsRegistry::Snapshot snap = telemetry_->metrics.Snap();
    flight_recorder_->DumpAuto("explicit", &snap);
  }
}

void Fabric::RunTeardownAudits() {
  Auditor& auditor = *telemetry_defaults.auditor;
  ForEachLink([&auditor](const std::string& name, const PointToPointLink& link) {
    AuditLinkConservation(auditor, name, link);
  });
  // Per-port egress FIFO conservation on every switch.
  uint64_t ce_marked = 0;
  for (auto& sw : switches_) {
    sw->AuditConservation(auditor);
    for (int port = 0; port < sw->num_ports(); ++port) {
      ce_marked += sw->counters(port).ce_marked;
    }
  }
  // CE => BECN => CNP ladder across the topology: hosts cannot see more CE
  // marks than switches applied, echo more BECNs than CE marks seen, or
  // receive more CNPs than BECNs were echoed. Duplicated frames (fault
  // injection) may legitimately inflate the receive-side counts.
  uint64_t rx_ce = 0;
  uint64_t tx_becn = 0;
  uint64_t rx_cnp = 0;
  for (int i = 0; i < num_hosts(); ++i) {
    const RoceCounters& c = nodes_[i]->stack().counters();
    rx_ce += c.rx_ecn_ce;
    tx_becn += c.tx_becn;
    rx_cnp += c.rx_cnp;
    auditor.NoteCheck();
    if (c.tx_becn > c.rx_ecn_ce) {
      auditor.Violation("node" + std::to_string(i) +
                        " becn ladder: tx_becn=" + std::to_string(c.tx_becn) +
                        " > rx_ecn_ce=" + std::to_string(c.rx_ecn_ce));
    }
  }
  const uint64_t dup_slack =
      fault_engine_ != nullptr ? fault_engine_->counters().frames_duplicated : 0;
  auditor.NoteCheck();
  if (rx_ce > ce_marked + dup_slack) {
    auditor.Violation("ce ladder: rx_ecn_ce=" + std::to_string(rx_ce) +
                      " > ce_marked=" + std::to_string(ce_marked) +
                      " + dup_slack=" + std::to_string(dup_slack));
  }
  auditor.NoteCheck();
  if (rx_cnp > tx_becn + dup_slack) {
    auditor.Violation("cnp ladder: rx_cnp=" + std::to_string(rx_cnp) +
                      " > tx_becn=" + std::to_string(tx_becn) +
                      " + dup_slack=" + std::to_string(dup_slack));
  }
}

void Fabric::ConnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a, Psn psn_b) {
  Status st = node(a).stack().ConnectQp(qpn_a, qpn_b, node(b).ip(), psn_a, psn_b);
  STROM_CHECK(st.ok()) << st;
  st = node(b).stack().ConnectQp(qpn_b, qpn_a, node(a).ip(), psn_b, psn_a);
  STROM_CHECK(st.ok()) << st;
}

void Fabric::ReconnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a, Psn psn_b) {
  Status st = node(a).stack().ResetQp(qpn_a);
  STROM_CHECK(st.ok()) << st;
  st = node(b).stack().ResetQp(qpn_b);
  STROM_CHECK(st.ok()) << st;
  ConnectQp(a, qpn_a, b, qpn_b, psn_a, psn_b);
}

void Fabric::ApplyFaultPlan(std::shared_ptr<const FaultPlan> plan) {
  STROM_CHECK(fault_engine_ == nullptr) << "fault plan already applied";
  STROM_CHECK(plan != nullptr);
  fault_engine_ = std::make_unique<FaultEngine>(sim_, std::move(plan));
  int link_ordinal = 0;
  ForEachLink([this, &link_ordinal](const std::string&, PointToPointLink& link) {
    fault_engine_->AttachLink(link, 2 * link_ordinal++);
  });
  for (int i = 0; i < num_hosts(); ++i) {
    fault_engine_->AttachDma(i, nodes_[i]->dma());
  }
  ArmCrashEpisodes();
}

void Fabric::ArmCrashEpisodes() {
  bool any_crash = false;
  for (const FaultEpisode& ep : fault_engine_->plan().episodes) {
    if (IsCrashFault(ep.type)) {
      any_crash = true;
      break;
    }
  }
  if (!any_crash) {
    return;
  }
  for (int i = 0; i < num_hosts(); ++i) {
    // Opt the DMA completion paths into crash-epoch guards; clean runs keep
    // the zero-allocation captures.
    nodes_[i]->dma().EnableCrashFaults();
    for (FaultTargetKind kind : {FaultTargetKind::kHost, FaultTargetKind::kNic}) {
      fault_engine_->ArmCrashes(
          kind, i, nodes_[i]->sim(),
          [this, kind, i](const FaultEpisode& ep) { OnCrashEpisode(kind, i, ep); },
          [this, kind, i](const FaultEpisode& ep) { OnRestartEpisode(kind, i, ep); });
    }
  }
  for (int s = 0; s < static_cast<int>(switches_.size()); ++s) {
    fault_engine_->ArmCrashes(
        FaultTargetKind::kSwitch, s, sim_,
        [this, s](const FaultEpisode& ep) {
          OnCrashEpisode(FaultTargetKind::kSwitch, s, ep);
        },
        [this, s](const FaultEpisode& ep) {
          OnRestartEpisode(FaultTargetKind::kSwitch, s, ep);
        });
  }
}

void Fabric::OnCrashEpisode(FaultTargetKind kind, int index, const FaultEpisode& ep) {
  std::string what;
  if (kind == FaultTargetKind::kSwitch) {
    switches_[index]->Crash();
    what = switches_[index]->name();
  } else {
    nodes_[index]->Crash(kind);
    what = (kind == FaultTargetKind::kHost ? "host" : "nic") + std::to_string(index);
  }
  EmitCrashEvent(ProbeKind::kCrash, kind, index);
  if (flight_recorder_ != nullptr && telemetry_defaults.dump_on_crash) {
    const MetricsRegistry::Snapshot snap = telemetry_->metrics.Snap();
    flight_recorder_->DumpAuto("crash: " + what, &snap);
  }
  for (const CrashListener& listener : crash_listeners_) {
    listener(ep, /*restarted=*/false);
  }
}

void Fabric::OnRestartEpisode(FaultTargetKind kind, int index, const FaultEpisode& ep) {
  if (kind == FaultTargetKind::kSwitch) {
    switches_[index]->Restart();
  } else {
    nodes_[index]->Restart(kind);
  }
  EmitCrashEvent(ProbeKind::kRestart, kind, index);
  for (const CrashListener& listener : crash_listeners_) {
    listener(ep, /*restarted=*/true);
  }
}

void Fabric::EmitCrashEvent(ProbeKind probe_kind, FaultTargetKind kind, int index) {
  if (telemetry_->probe.on()) {
    // Switch crashes land in host ring 0 (they have no ring of their own).
    telemetry_->probe.Emit({.kind = probe_kind, .opcode = CrashOpcode(kind),
                            .src = kind == FaultTargetKind::kSwitch ? 0 : index,
                            .aux = uint32_t(index), .t = sim_.now()});
  }
}

std::vector<std::string> Fabric::EnableCapture(const std::string& prefix) {
  std::vector<std::string> paths;
  auto add = [&](const std::string& path) -> PcapWriter* {
    captures_.push_back(std::make_unique<PcapWriter>(path));
    if (!captures_.back()->status().ok()) {
      STROM_LOG(kWarning) << captures_.back()->status();
    }
    paths.push_back(path);
    return captures_.back().get();
  };
  if (capture_tap_ == nullptr) {
    capture_tap_ = std::make_unique<PcapTap>();
    telemetry_->probe.Subscribe(capture_tap_.get());
  }
  // Link taps follow the probe's link ids: the cable is interface "wire",
  // switch-owned links "<switch>.port<i>", all in one file.
  PcapWriter* link_writer =
      add(prefix + (direct_link_ != nullptr ? ".wire.pcapng" : ".fabric.pcapng"));
  int link_id = 0;
  ForEachLink([&](const std::string& name, PointToPointLink&) {
    capture_tap_->TapWire(link_id++, link_writer, direct_link_ != nullptr ? "wire" : name);
  });
  for (int i = 0; i < num_hosts(); ++i) {
    const std::string process = "node" + std::to_string(i);
    capture_tap_->TapNic(i, add(prefix + "." + process + ".nic.pcapng"), process);
  }
  return paths;
}

void Fabric::StartSampling(SimTime interval) {
  STROM_CHECK_GT(interval, 0);
  for (int i = 0; i < num_hosts(); ++i) {
    nodes_[i]->AttachSampler(telemetry_.get(), i);
  }
  if (direct_link_ != nullptr) {
    direct_link_->AttachSampler(telemetry_.get(), "network");
  }
  for (auto& sw : switches_) {
    sw->AttachSampler(telemetry_.get(), sw->name());
  }
  ScheduleSample(interval);
}

void Fabric::ScheduleSample(SimTime interval) {
  sim_.Schedule(interval, [this, interval] {
    telemetry_->sampler.Sample(sim_.now());
    // Re-arm only while the sim has other work: the running event has been
    // popped already, so an empty queue here means everything else is done
    // and RunUntilIdle() callers are not wedged by the sampler.
    if (sim_.pending_events() > 0) {
      ScheduleSample(interval);
    }
  });
}

}  // namespace strom
