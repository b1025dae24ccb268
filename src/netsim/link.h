// Full-duplex point-to-point Ethernet link model with serialization delay,
// propagation delay and fault injection (drop / corrupt). The paper's testbed
// directly connects two NICs ("to remove the potential noise introduced by a
// switch", §6.1); this link is that cable.
#ifndef SRC_NETSIM_LINK_H_
#define SRC_NETSIM_LINK_H_

#include <array>
#include <functional>
#include <map>

#include "src/common/bytes.h"
#include "src/common/frame_buf.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/proto/headers.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"

namespace strom {

struct LinkConfig {
  uint64_t rate_bps = Gbps(10);
  SimTime propagation = Ns(100);  // a few meters of fiber + PHY
  size_t ip_mtu = 1500;

  size_t EthMtu() const { return ip_mtu + EthHeader::kSize; }
};

struct LinkCounters {
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;  // includes PHY overhead
  uint64_t frames_dropped = 0;
  uint64_t frames_corrupted = 0;
  uint64_t frames_oversize = 0;
  uint64_t frames_reordered = 0;   // delivered late (reorder/jitter/DelayNext)
  uint64_t frames_duplicated = 0;  // delivered twice
  // Frames handed to the wire for delivery (corrupted ones included — the
  // receiver sees and rejects those itself). Not exported as a gauge; it
  // exists for the conservation audit: frames_sent == frames_delivered +
  // frames_dropped must hold after every Send(), and a silent_drop fault is
  // precisely a violation of it.
  uint64_t frames_delivered = 0;
};

// Per-frame verdict of an attached fault hook (see FaultEngine). Consulted
// for every frame entering Send(), after the deterministic DropNext /
// CorruptNext knobs and the legacy drop probability.
struct LinkFaultDecision {
  bool drop = false;
  bool duplicate = false;      // deliver the frame twice
  bool reorder = false;        // attribute extra_delay to reordering
  SimTime extra_delay = 0;     // added to the propagation delay
  // Vanish the frame without touching frames_dropped or the capture tap —
  // the one fault the link's own accounting cannot see. Exists to prove the
  // conservation auditors notice (tests + chaos drills only).
  bool silent = false;
};

class PointToPointLink {
 public:
  using RxHandler = std::function<void(FrameBuf frame, TraceContext trace)>;
  using FaultHook = std::function<LinkFaultDecision(int side, SimTime now)>;

  PointToPointLink(Simulator& sim, LinkConfig config);
  ~PointToPointLink();

  const LinkConfig& config() const { return config_; }

  // Reports every frame entering Send() — sent, dropped, duplicated,
  // oversize, with its corrupt/delay fate — into `probe` as link `link_id`.
  // The owning topology numbers links in fault-plan order.
  void AttachProbe(const Probe* probe, int link_id);

  // Registers per-side counter gauges and the wire span tracks under
  // `process`. Call after AttachProbe (the tracks are keyed by link id).
  void AttachTelemetry(Telemetry* telemetry, const std::string& process);

  // Registers per-side link-utilization probes (fraction of line rate used
  // since the previous sample) with the telemetry sampler.
  void AttachSampler(Telemetry* telemetry, const std::string& process);

  // side is 0 or 1. The handler receives frames sent from the other side.
  void Attach(int side, RxHandler handler);

  // Transmits a frame from `side`. Serialization is modeled with a per-side
  // busy-until cursor; frames queue behind each other at line rate. The frame
  // is shared by reference count with the capture tap and the receiver.
  void Send(int side, FrameBuf frame, TraceContext trace = {});

  // Fault injection (applies to frames leaving `side`). The two-argument
  // form updates the probability without touching the RNG stream, so
  // sweeping loss rates mid-run stays deterministic point-to-point; pass a
  // seed explicitly to (re)start the stream.
  void SetDropProbability(int side, double p);
  void SetDropProbability(int side, double p, uint64_t seed);
  // Drops the next `count` frames leaving `side` deterministically.
  void DropNext(int side, int count);
  // Flips one payload byte in the next `count` frames leaving `side`.
  void CorruptNext(int side, int count);
  // Delivers the next `count` frames leaving `side` twice.
  void DuplicateNext(int side, int count);
  // Holds the next `count` frames leaving `side` back by `delay` beyond the
  // normal propagation time (later traffic overtakes them).
  void DelayNext(int side, int count, SimTime delay);
  // Installs a per-frame fault hook (at most one; driven by FaultEngine).
  // Evaluation order in Send(): oversize check, serialization accounting,
  // DropNext, drop probability, hook.drop, CorruptNext, hook delay /
  // duplication. The hook is consulted for every frame that reaches the
  // drop stage — even ones the deterministic knobs already dropped — so its
  // RNG streams advance as a pure function of the frame sequence.
  void SetFaultHook(FaultHook hook);

  const LinkCounters& counters(int side) const { return sides_[side].counters; }

  // Simulated time at which the transmit direction of `side` goes idle.
  SimTime TxIdleAt(int side) const { return sides_[side].busy_until; }

 private:
  struct Side {
    RxHandler handler;
    SimTime busy_until = 0;
    double drop_probability = 0;
    Rng drop_rng{1};
    int drop_next = 0;
    int corrupt_next = 0;
    int duplicate_next = 0;
    int delay_next = 0;
    SimTime delay_next_amount = 0;
    LinkCounters counters;
  };

  void Deliver(int rx_side, SimTime arrival, FrameBuf frame, TraceContext trace);

  Simulator& sim_;
  LinkConfig config_;
  std::array<Side, 2> sides_;
  const Probe* probe_ = &Probe::Off();
  int link_id_ = 0;
  FaultHook fault_hook_;
};

}  // namespace strom

#endif  // SRC_NETSIM_LINK_H_
