#include "src/netsim/link.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/sim/perf_stats.h"
#include "src/sim/time.h"

namespace strom {

PointToPointLink::PointToPointLink(Simulator& sim, LinkConfig config)
    : sim_(sim), config_(config) {}

PointToPointLink::~PointToPointLink() {
  AddSimFramesSent(sides_[0].counters.frames_sent + sides_[1].counters.frames_sent);
}

void PointToPointLink::AttachProbe(const Probe* probe, int link_id) {
  probe_ = probe;
  link_id_ = link_id;
}

void PointToPointLink::AttachTelemetry(Telemetry* telemetry, const std::string& process) {
  telemetry->spans.AddWire(link_id_, process);
  for (int side = 0; side < 2; ++side) {
    const std::string prefix = process + ".link" + std::to_string(side) + ".";
    const LinkCounters& c = sides_[side].counters;
    telemetry->metrics.AddGauge(prefix + "frames_sent",
                                [&c] { return double(c.frames_sent); });
    telemetry->metrics.AddGauge(prefix + "bytes_sent",
                                [&c] { return double(c.bytes_sent); });
    telemetry->metrics.AddGauge(prefix + "frames_dropped",
                                [&c] { return double(c.frames_dropped); });
    telemetry->metrics.AddGauge(prefix + "frames_corrupted",
                                [&c] { return double(c.frames_corrupted); });
    telemetry->metrics.AddGauge(prefix + "frames_oversize",
                                [&c] { return double(c.frames_oversize); });
    telemetry->metrics.AddGauge(prefix + "frames_reordered",
                                [&c] { return double(c.frames_reordered); });
    telemetry->metrics.AddGauge(prefix + "frames_duplicated",
                                [&c] { return double(c.frames_duplicated); });
  }
}

void PointToPointLink::AttachSampler(Telemetry* telemetry, const std::string& process) {
  for (int side = 0; side < 2; ++side) {
    const Side& s = sides_[side];
    const uint64_t rate_bps = config_.rate_bps;
    telemetry->sampler.AddProbe(
        process + ".link" + std::to_string(side) + ".utilization",
        [&s, rate_bps, last_bytes = uint64_t{0}, last_t = SimTime{0}](SimTime now) mutable {
          const uint64_t bytes = s.counters.bytes_sent - last_bytes;
          const SimTime elapsed = now - last_t;
          last_bytes = s.counters.bytes_sent;
          last_t = now;
          if (elapsed <= 0) {
            return 0.0;
          }
          return double(bytes) * 8.0 / (double(rate_bps) * ToSec(elapsed));
        });
    // Cumulative fault counters, so chaos runs show up in .timeseries.csv.
    const std::string prefix = process + ".link" + std::to_string(side) + ".";
    const LinkCounters& c = s.counters;
    telemetry->sampler.AddProbe(prefix + "frames_dropped",
                                [&c](SimTime) { return double(c.frames_dropped); });
    telemetry->sampler.AddProbe(prefix + "frames_corrupted",
                                [&c](SimTime) { return double(c.frames_corrupted); });
    telemetry->sampler.AddProbe(prefix + "frames_reordered",
                                [&c](SimTime) { return double(c.frames_reordered); });
    telemetry->sampler.AddProbe(prefix + "frames_duplicated",
                                [&c](SimTime) { return double(c.frames_duplicated); });
  }
}

void PointToPointLink::Attach(int side, RxHandler handler) {
  STROM_CHECK(side == 0 || side == 1);
  sides_[side].handler = std::move(handler);
}

void PointToPointLink::Deliver(int rx_side, SimTime arrival, FrameBuf frame,
                               TraceContext trace) {
  auto handoff = [this, rx_side, f = std::move(frame), trace]() mutable {
    Side& receiver = sides_[rx_side];
    if (receiver.handler) {
      receiver.handler(std::move(f), trace);
    }
  };
  sim_.ScheduleAt(arrival, std::move(handoff));
}

void PointToPointLink::Send(int side, FrameBuf frame, TraceContext trace) {
  STROM_CHECK(side == 0 || side == 1);
  Side& tx = sides_[side];

  if (frame.size() > config_.EthMtu()) {
    ++tx.counters.frames_oversize;
    STROM_LOG(kWarning) << "dropping oversize frame: " << frame.size() << " > "
                        << config_.EthMtu();
    if (probe_->on(trace)) {
      probe_->Emit({.kind = ProbeKind::kWireOversize, .src = link_id_, .side = side,
                    .t = sim_.now(), .trace = trace, .frame = &frame});
    }
    return;
  }

  const uint64_t wire_bytes = frame.size() + kEthPhyOverhead;
  const SimTime start = std::max(sim_.now(), tx.busy_until);
  const SimTime tx_done = start + TransferTime(wire_bytes, config_.rate_bps);
  tx.busy_until = tx_done;
  ++tx.counters.frames_sent;
  tx.counters.bytes_sent += wire_bytes;

  bool drop = false;
  if (tx.drop_next > 0) {
    --tx.drop_next;
    drop = true;
  } else if (tx.drop_probability > 0 && tx.drop_rng.Chance(tx.drop_probability)) {
    drop = true;
  }
  // Consult the fault hook unconditionally so its RNG streams see every
  // frame, regardless of what the deterministic knobs decided.
  LinkFaultDecision fault;
  if (fault_hook_) {
    fault = fault_hook_(side, sim_.now());
    drop = drop || fault.drop;
  }
  if (tx.delay_next > 0) {
    --tx.delay_next;
    fault.reorder = true;
    fault.extra_delay += tx.delay_next_amount;
  }
  if (tx.duplicate_next > 0) {
    --tx.duplicate_next;
    fault.duplicate = true;
  }
  if (fault.silent && !drop) {
    // Injected silent loss: the frame is gone, and deliberately nothing —
    // not frames_dropped, not the capture tap — records it. The conservation
    // audit (frames_sent == frames_delivered + frames_dropped) is the only
    // thing that can notice.
    return;
  }
  if (drop) {
    ++tx.counters.frames_dropped;
    if (probe_->on(trace)) {
      probe_->Emit({.kind = ProbeKind::kWireDrop, .src = link_id_, .side = side, .t = tx_done,
                    .trace = trace, .frame = &frame});
    }
    return;
  }

  bool corrupted = false;
  if (tx.corrupt_next > 0) {
    --tx.corrupt_next;
    ++tx.counters.frames_corrupted;
    corrupted = true;
    // Flip a byte beyond the Ethernet header so the ICRC check catches it.
    // The sender may still hold a reference (e.g. for retransmission), so
    // detach before mutating.
    frame.EnsureUnique();
    size_t pos = std::min(frame.size() - 1, EthHeader::kSize + Ipv4Header::kSize + 5);
    frame[pos] ^= 0xA5;
  }

  const bool delayed = fault.extra_delay > 0 || fault.reorder;
  if (delayed) {
    ++tx.counters.frames_reordered;
  }
  const SimTime arrival = tx_done + config_.propagation + fault.extra_delay;
  if (probe_->on(trace)) {
    const int fate = (corrupted ? kWireCorrupted : 0) | (delayed ? kWireDelayed : 0);
    probe_->Emit({.kind = ProbeKind::kWireSend, .detail = uint8_t(fate), .src = link_id_,
                  .side = side, .t = tx_done, .begin = start, .end = arrival, .trace = trace,
                  .frame = &frame});
  }
  if (fault.duplicate) {
    // Deliver a second copy one serialization time later, as if the frame
    // had been put on the wire twice back-to-back. Duplication is a fault
    // artifact, so it doesn't consume transmit bandwidth (busy_until).
    ++tx.counters.frames_duplicated;
    const SimTime dup_arrival = arrival + TransferTime(wire_bytes, config_.rate_bps);
    if (probe_->on(trace)) {
      probe_->Emit({.kind = ProbeKind::kWireDuplicate, .src = link_id_, .side = side,
                    .t = dup_arrival - config_.propagation, .trace = trace, .frame = &frame});
    }
    Deliver(1 - side, dup_arrival, frame, trace);
  }
  ++tx.counters.frames_delivered;
  Deliver(1 - side, arrival, std::move(frame), trace);
}

void PointToPointLink::SetDropProbability(int side, double p) {
  // Deliberately leaves drop_rng alone: repeated calls (e.g. sweeping loss
  // rates in one process) continue the same stream instead of silently
  // restarting it mid-run.
  sides_[side].drop_probability = p;
}

void PointToPointLink::SetDropProbability(int side, double p, uint64_t seed) {
  sides_[side].drop_probability = p;
  sides_[side].drop_rng = Rng(seed);
}

void PointToPointLink::DropNext(int side, int count) { sides_[side].drop_next += count; }

void PointToPointLink::CorruptNext(int side, int count) { sides_[side].corrupt_next += count; }

void PointToPointLink::DuplicateNext(int side, int count) {
  sides_[side].duplicate_next += count;
}

void PointToPointLink::DelayNext(int side, int count, SimTime delay) {
  sides_[side].delay_next += count;
  sides_[side].delay_next_amount = delay;
}

void PointToPointLink::SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }

}  // namespace strom
