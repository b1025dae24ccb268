// The per-run probe (DESIGN.md §11): the RoCE stacks, liveness monitors,
// links and the topology's crash handling report each protocol or wire
// event exactly once, as a typed POD ProbeEvent, and every sink that wants
// it subscribes — the flight-recorder ring, FlowStats, the pcapng taps and
// the NIC/wire trace spans. Each subscriber keeps its own output format.
//
// A run has one serial event core, so Emit() calls subscribers synchronously,
// in registration order, with nothing buffered or merged: first those that
// take every event, then, for an event of a sampled trace, the span
// subscribers. That split lets a hook site gate the whole event on one
// branch: on(trace) is false unless a subscriber takes every event or the
// event belongs to a sampled trace.
#ifndef SRC_TELEMETRY_PROBE_H_
#define SRC_TELEMETRY_PROBE_H_

#include <cstdint>
#include <vector>

#include "src/common/frame_buf.h"
#include "src/sim/time.h"
#include "src/telemetry/trace_context.h"

namespace strom {

enum class ProbeKind : uint8_t {
  // RoCE stack; `src` is the host index.
  kNicTx,         // frame encoded (opcode, qpn = dest QP, psn, aux = length,
                  // detail = NAK syndrome or 0; [begin, end] = TX pipeline)
  kNicRx,         // frame parsed (opcode, qpn, psn, aux = length;
                  // [begin, end] = RX pipeline)
  kNicRxDrop,     // frame rejected before parsing (detail = ProbeRxDrop)
  kCompletion,    // message completed (ok, bytes; [begin, end] = post to
                  // completion; label = verb)
  kCe,            // CE-marked packet received on qpn
  kBecnTx,        // CE mark echoed back as BECN on qpn
  kCnp,           // BECN seen by the requester (opcode, psn, rate_bps and
                  // alpha after the reaction, aux = rate_bps >> 20)
  kRateCut,       // DCQCN multiplicative cut (rate_bps, alpha)
  kRateIncrease,  // DCQCN additive recovery batch (rate_bps, alpha)
  kRetransmit,    // go-back-N replay armed (psn = start, aux = packets)
  kTimeout,       // retransmission timer fired (psn = oldest unacked,
                  // aux = consecutive retries)
  kQpState,       // QP transition (psn = oldest unacked; aux 1 = Error,
                  // 0 = reset)
  // Liveness monitor; `src` is the observing host, aux the peer, psn the
  // reconnect attempt.
  kPeerDead,
  kReconnectAttempt,
  kLeaseAcquired,
  // Topology crash handling; `src` is the host ring (0 for switches),
  // opcode 0 = host, 1 = NIC, 2 = switch, aux = component index.
  kCrash,
  kRestart,
  // Link; `src` is the link id, `side` the transmitting side, `t` the
  // capture stamp. Keep these last: subscribers test kind >= kWireSend.
  kWireSend,       // frame put on the wire (detail = ProbeWireFate bits;
                   // [begin, end] = serialization start to arrival)
  kWireDrop,       // frame dropped by a fault
  kWireDuplicate,  // second copy of the frame just sent
  kWireOversize,   // frame refused: larger than the link MTU
};

// kNicRxDrop causes.
enum ProbeRxDrop : uint8_t { kRxDropIcrc = 1, kRxDropMalformed = 2 };
// kWireSend fate bits.
enum ProbeWireFate : uint8_t { kWireCorrupted = 1, kWireDelayed = 2 };

struct ProbeEvent {
  ProbeKind kind = ProbeKind::kNicTx;
  uint8_t opcode = 0;
  uint8_t detail = 0;
  bool ok = true;
  int32_t src = 0;
  int32_t side = 0;
  uint32_t qpn = 0;
  uint32_t psn = 0;
  uint32_t aux = 0;
  SimTime t = 0;
  SimTime begin = 0;
  SimTime end = 0;
  uint64_t bytes = 0;
  double rate_bps = 0;
  double alpha = 0;
  const char* label = nullptr;  // opcode or verb name, for span names
  TraceContext trace = {};
  const FrameBuf* frame = nullptr;
};

class ProbeSubscriber {
 public:
  virtual ~ProbeSubscriber() = default;
  virtual void OnProbe(const ProbeEvent& ev) = 0;
};

class Probe {
 public:
  // A probe nothing subscribes to: the default target of components that
  // were never attached to a run's telemetry, so hook sites need no null
  // check.
  static const Probe& Off();

  // The hook-site gate.
  bool on(TraceContext trace = {}) const { return any_ | trace.sampled(); }

  void Emit(const ProbeEvent& ev) const {
    for (ProbeSubscriber* s : all_) {
      s->OnProbe(ev);
    }
    if (ev.trace.sampled()) {
      for (ProbeSubscriber* s : sampled_) {
        s->OnProbe(ev);
      }
    }
  }

  // Every event from now on.
  void Subscribe(ProbeSubscriber* subscriber) {
    all_.push_back(subscriber);
    any_ = true;
  }
  // Only events whose trace context is sampled.
  void SubscribeSampled(ProbeSubscriber* subscriber) { sampled_.push_back(subscriber); }

 private:
  bool any_ = false;
  std::vector<ProbeSubscriber*> all_;
  std::vector<ProbeSubscriber*> sampled_;
};

inline const Probe& Probe::Off() {
  static const Probe off;
  return off;
}

}  // namespace strom

#endif  // SRC_TELEMETRY_PROBE_H_
