#include "src/fabric/fabric_switch.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/paranoid.h"
#include "src/netsim/pfc.h"
#include "src/proto/packet.h"
#include "src/telemetry/audit.h"

namespace strom {

FabricSwitch::FabricSwitch(Simulator& sim, FabricSwitchConfig config, std::string name)
    : sim_(sim), config_(config), name_(std::move(name)) {
  // Locally-administered switch MAC; only used as the pause-frame source
  // (pause frames are consumed hop-by-hop, so collisions between switches
  // are harmless).
  mac_ = MacAddr{0x02, 0x00, 0x5C, 0x00, 0x00, 0x01};
}

int FabricSwitch::AddPortEntry(std::unique_ptr<PointToPointLink> owned,
                               PointToPointLink* link, int tx_side) {
  const int port = static_cast<int>(ports_.size());
  Port p;
  p.owned_link = std::move(owned);
  p.link = link;
  p.tx_side = tx_side;
  ports_.push_back(std::move(p));
  // Attach on the transmit side: a side-S handler receives frames sent from
  // side 1-S, i.e. traffic arriving from the endpoint/peer.
  link->Attach(tx_side, [this, port](FrameBuf frame, TraceContext trace) {
    OnFrame(port, std::move(frame), trace);
  });
  return port;
}

int FabricSwitch::AddPort() {
  LinkConfig lc;
  lc.rate_bps = config_.port_rate_bps;
  lc.ip_mtu = config_.ip_mtu;
  auto owned = std::make_unique<PointToPointLink>(sim_, lc);
  PointToPointLink* link = owned.get();
  return AddPortEntry(std::move(owned), link, /*tx_side=*/1);
}

std::pair<int, int> FabricSwitch::ConnectTo(FabricSwitch& peer) {
  LinkConfig lc;
  lc.rate_bps = config_.port_rate_bps;
  lc.ip_mtu = config_.ip_mtu;
  auto owned = std::make_unique<PointToPointLink>(sim_, lc);
  PointToPointLink* link = owned.get();
  const int my_port = AddPortEntry(std::move(owned), link, /*tx_side=*/1);
  const int peer_port = peer.AddPortEntry(nullptr, link, /*tx_side=*/0);
  return {my_port, peer_port};
}

void FabricSwitch::AddStaticRoute(const MacAddr& mac, int port) { mac_table_[mac] = port; }

void FabricSwitch::AttachTelemetry(Telemetry* telemetry, const std::string& process) {
  for (size_t port = 0; port < ports_.size(); ++port) {
    const std::string prefix = process + ".port" + std::to_string(port) + ".";
    const FabricPortCounters& c = ports_[port].counters;
    telemetry->metrics.AddGauge(prefix + "frames_enqueued",
                                [&c] { return double(c.frames_enqueued); });
    telemetry->metrics.AddGauge(prefix + "ce_marked",
                                [&c] { return double(c.ce_marked); });
    telemetry->metrics.AddGauge(prefix + "tail_drops",
                                [&c] { return double(c.tail_drops); });
    telemetry->metrics.AddGauge(prefix + "pause_tx",
                                [&c] { return double(c.pause_tx); });
    telemetry->metrics.AddGauge(prefix + "resume_tx",
                                [&c] { return double(c.resume_tx); });
    telemetry->metrics.AddGauge(prefix + "queue_bytes_peak",
                                [&c] { return double(c.queue_bytes_peak); });
    telemetry->metrics.AddGauge(prefix + "crash_drops",
                                [&c] { return double(c.crash_drops); });
  }
  telemetry->metrics.AddGauge(process + ".crash_ingress_drops",
                              [this] { return double(crash_ingress_drops_); });
}

void FabricSwitch::AttachSampler(Telemetry* telemetry, const std::string& process) {
  for (size_t port = 0; port < ports_.size(); ++port) {
    const std::string prefix = process + ".port" + std::to_string(port) + ".";
    const Port& p = ports_[port];
    telemetry->sampler.AddProbe(prefix + "queue_bytes",
                                [&p](SimTime) { return double(p.queued_bytes); });
    telemetry->sampler.AddProbe(prefix + "ce_marked",
                                [&p](SimTime) { return double(p.counters.ce_marked); });
    telemetry->sampler.AddProbe(prefix + "tail_drops",
                                [&p](SimTime) { return double(p.counters.tail_drops); });
  }
}

void FabricSwitch::AttachFlowSampler(Telemetry* telemetry, const std::string& process) {
  for (size_t port = 0; port < ports_.size(); ++port) {
    const std::string prefix = process + ".port" + std::to_string(port) + ".";
    const Port& p = ports_[port];
    telemetry->sampler.AddProbe(prefix + "frames_enqueued", [&p](SimTime) {
      return double(p.counters.frames_enqueued);
    });
    telemetry->sampler.AddProbe(prefix + "frames_dequeued", [&p](SimTime) {
      return double(p.counters.frames_dequeued);
    });
    telemetry->sampler.AddProbe(prefix + "pause_tx",
                                [&p](SimTime) { return double(p.counters.pause_tx); });
    telemetry->sampler.AddProbe(prefix + "resume_tx",
                                [&p](SimTime) { return double(p.counters.resume_tx); });
  }
}

void FabricSwitch::AuditConservation(Auditor& auditor) const {
  for (size_t port = 0; port < ports_.size(); ++port) {
    const Port& p = ports_[port];
    auditor.NoteCheck();
    const uint64_t queued = p.queue.size();
    if (p.counters.frames_enqueued !=
        p.counters.frames_dequeued + queued + p.counters.crash_drops) {
      auditor.Violation(name_ + ".port" + std::to_string(port) +
                        " conservation: enqueued=" +
                        std::to_string(p.counters.frames_enqueued) +
                        " dequeued=" + std::to_string(p.counters.frames_dequeued) +
                        " queued=" + std::to_string(queued) +
                        " crash_drops=" + std::to_string(p.counters.crash_drops));
    }
  }
}

void FabricSwitch::OnFrame(int in_port, FrameBuf frame, TraceContext trace) {
  if (!alive_) {
    ++crash_ingress_drops_;
    return;
  }
  if (frame.size() < EthHeader::kSize) {
    return;
  }
  // 802.3x pause terminates at the ingress port: this switch does not honor
  // pause itself (lossless fabric hops are out of scope), and the reserved
  // multicast destination must never be forwarded or learned.
  if (IsFlowControlFrame(frame)) {
    return;
  }
  MacAddr dst;
  MacAddr src;
  // Fast path: the TX encoder memoized the MACs; reuse them instead of
  // re-reading the Ethernet header on every hop. Wire bytes stay
  // authoritative — a mutated frame has no memo and takes the byte path.
  if (const RoceFrameMemo* memo = frame.GetMemo<RoceFrameMemo>();
      memo != nullptr && !ParanoidMode()) {
    dst = memo->dst_mac;
    src = memo->src_mac;
  } else {
    std::copy(frame.begin(), frame.begin() + 6, dst.begin());
    std::copy(frame.begin() + 6, frame.begin() + 12, src.begin());
    if (const RoceFrameMemo* checked = frame.GetMemo<RoceFrameMemo>()) {
      STROM_CHECK(checked->dst_mac == dst && checked->src_mac == src)
          << "paranoid: memo MACs diverge from wire Ethernet header";
    }
  }
  mac_table_[src] = in_port;  // learn

  auto it = mac_table_.find(dst);
  if (it != mac_table_.end()) {
    ++frames_forwarded_;
    const int out_port = it->second;
    sim_.Schedule(config_.forwarding_latency,
                  [this, out_port, in_port, f = std::move(frame), trace]() mutable {
      Enqueue(out_port, in_port, std::move(f), trace);
    });
    return;
  }
  ++frames_flooded_;
  for (size_t port = 0; port < ports_.size(); ++port) {
    if (static_cast<int>(port) == in_port) {
      continue;
    }
    const int out_port = static_cast<int>(port);
    // Flooded copies share the buffer by reference count; MarkEcnCe detaches
    // (EnsureUnique) before mutating, so a marked copy never aliases.
    sim_.Schedule(config_.forwarding_latency,
                  [this, out_port, in_port, f = frame, trace]() mutable {
      Enqueue(out_port, in_port, std::move(f), trace);
    });
  }
}

void FabricSwitch::Enqueue(int out_port, int in_port, FrameBuf frame, TraceContext trace) {
  // Frames inside the forwarding pipeline when the switch died land here
  // after the crash; they die with the switch. Counted outside the per-port
  // conservation equation because they never reached an egress FIFO.
  if (!alive_) {
    ++crash_ingress_drops_;
    return;
  }
  Port& p = ports_[out_port];
  const size_t bytes = frame.size();
  if (p.queued_bytes + bytes > config_.egress_queue_bytes) {
    ++p.counters.tail_drops;
    return;
  }
  // Mark-at-enqueue: the decision uses the depth the frame *finds*, the
  // standard RED/ECN arrival model. Only ECT frames actually change.
  if (p.queued_bytes >= config_.ecn_threshold_bytes && MarkEcnCe(frame)) {
    ++p.counters.ce_marked;
  }
  p.queued_bytes += bytes;
  p.counters.queue_bytes_peak = std::max<uint64_t>(p.counters.queue_bytes_peak, p.queued_bytes);
  ++p.counters.frames_enqueued;
  if (config_.pfc && in_port >= 0 && p.queued_bytes >= config_.pfc_xoff_bytes &&
      p.paused_ingress.insert(in_port).second) {
    ++p.counters.pause_tx;
    SendPause(in_port, config_.pfc_quanta);
  }
  p.queue.push_back(Pending{std::move(frame), trace, in_port});
  DequeueNext(out_port);
}

void FabricSwitch::DequeueNext(int out_port) {
  Port& p = ports_[out_port];
  if (p.tx_busy || p.queue.empty()) {
    return;
  }
  Pending pending = std::move(p.queue.front());
  p.queue.pop_front();
  p.queued_bytes -= pending.frame.size();
  ++p.counters.frames_dequeued;
  if (config_.pfc && !p.paused_ingress.empty() &&
      p.queued_bytes <= config_.pfc_xon_bytes) {
    for (int ingress : p.paused_ingress) {
      ++p.counters.resume_tx;
      SendPause(ingress, 0);  // xon
    }
    p.paused_ingress.clear();
  }
  const uint64_t wire_bytes = pending.frame.size() + kEthPhyOverhead;
  p.tx_busy = true;
  p.link->Send(p.tx_side, std::move(pending.frame), pending.trace);
  // Release the next frame when this one has serialized. The link's own
  // busy-until cursor sees at most one frame at a time from us, so queueing
  // lives entirely in the observable FIFO above. Epoch-stamped so a release
  // scheduled before a crash cannot unblock the port the restart already
  // reset (a stale clear would let two frames overlap on the wire).
  sim_.Schedule(TransferTime(wire_bytes, config_.port_rate_bps),
                [this, out_port, epoch = crash_epoch_] {
    if (epoch != crash_epoch_) {
      return;
    }
    ports_[out_port].tx_busy = false;
    DequeueNext(out_port);
  });
}

void FabricSwitch::Crash() {
  alive_ = false;
  ++crash_epoch_;
  for (Port& p : ports_) {
    p.counters.crash_drops += p.queue.size();
    p.queue.clear();  // releases the pooled frames — leak-free by design
    p.queued_bytes = 0;
    p.tx_busy = false;
    // Paused upstream ports stay paused until their quanta expire; the dead
    // switch cannot send the xon. Drop the bookkeeping so a post-restart
    // drain does not emit resumes for pauses it never sent.
    p.paused_ingress.clear();
  }
}

void FabricSwitch::Restart() {
  // Queues are empty and TX serializers idle (Crash() reset them); the MAC
  // table and static routes persist as configuration.
  alive_ = true;
}

void FabricSwitch::SendPause(int ingress_port, uint16_t quanta) {
  // Pause frames bypass the egress FIFO: flow control outranks data.
  Port& p = ports_[ingress_port];
  p.link->Send(p.tx_side, EncodePauseFrame(mac_, quanta), TraceContext{});
}

}  // namespace strom
