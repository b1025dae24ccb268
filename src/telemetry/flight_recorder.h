// Flight recorder: fixed-size per-host rings of recent protocol events plus
// per-host rings of the last-N wire frames, written on the hot path with zero
// steady-state allocation (records are 24-byte PODs in preallocated rings;
// frames are snapshotted as a kFrameSnapLen-byte header prefix into a
// preallocated arena — holding FrameBuf references instead would pin blocks
// and wreck the frame pool's cache locality).
//
// Everything is sharded by host, and Dump() merges the frame rings ordered by
// (time, host, per-host ordinal), so the bundle is a pure function of the
// simulated run.
//
// On a trigger — watchdog fire, paranoid-mode divergence (via the logging
// fatal hook), auditor violation, or an explicit --postmortem-out — the
// recorder dumps a deterministic post-mortem bundle:
//
//   <stem>.flightrec.bin   ring contents, oldest-first, fixed little-endian
//                          encoding (magic "STRMFREC", version 1)
//   <stem>.metrics.csv     metrics snapshot at dump time (if provided)
//   <stem>.frames.pcapng   the frame ring as a capture, one interface/host
//
// `stromtrace --postmortem <stem>` decodes the bundle and cross-checks the
// event ring against the frame capture. Everything here is off unless a
// recorder is constructed and subscribed to the run's probe.
#ifndef SRC_TELEMETRY_FLIGHT_RECORDER_H_
#define SRC_TELEMETRY_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/frame_buf.h"
#include "src/common/status.h"
#include "src/sim/time.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/probe.h"

namespace strom {

// Compact event types. Keep values stable: they are serialized verbatim.
enum class FlightRecordType : uint8_t {
  kTx = 1,          // frame left the stack (opcode, qpn, psn; aux = length)
  kRx = 2,          // frame accepted by the stack (aux = length)
  kNak = 3,         // NAK sent or received (opcode = AETH syndrome; aux = epsn)
  kCnp = 4,         // BECN observed by the requester (aux = rate_bps >> 20)
  kQpState = 5,     // QP state transition (aux = new phase ordinal)
  kRetransmit = 6,  // go-back-N replay armed (psn = replay start)
  kTimeout = 7,     // retransmission timer fired (aux = consecutive retries)
  kAudit = 8,       // audit violation recorded just before the dump
  // Crash-recovery timeline (PR 10). `host` is the observer, `aux` carries
  // the subject (crashed node / peer index) unless noted.
  kCrash = 9,             // component died (opcode: 0=host 1=nic 2=switch)
  kRestart = 10,          // component came back (opcode as kCrash)
  kPeerDead = 11,         // lease expired, peer declared dead (aux = peer)
  kReconnectAttempt = 12, // backoff attempt (aux = peer; psn = attempt #)
  kLeaseAcquired = 13,    // lease (re-)established with peer (aux = peer)
};

const char* FlightRecordTypeName(FlightRecordType type);

// Bytes of each frame kept in the frame ring: enough for every header stack
// we emit (Eth + IPv4 + UDP + BTH + RETH/AETH + immediate) with room to
// spare. The dumped pcapng records the true on-wire length per frame
// (EPB original length), so truncation is visible to decoders.
constexpr size_t kFrameSnapLen = 128;

// One ring slot. Field order keeps the struct at 24 bytes with no padding;
// the on-disk encoding matches this layout, little-endian, field by field.
struct FlightRecord {
  uint64_t t_ps = 0;
  uint32_t qpn = 0;
  uint32_t psn = 0;
  uint32_t aux = 0;
  uint16_t host = 0;
  uint8_t type = 0;
  uint8_t opcode = 0;
};
static_assert(sizeof(FlightRecord) == 24, "FlightRecord must stay compact");

class PcapWriter;

class FlightRecorder : public ProbeSubscriber {
 public:
  // `ring_capacity` records are kept per host; `frame_capacity` frames are
  // kept in total, split evenly into per-host rings (at least one slot
  // each). The dump re-merges them into wire order.
  explicit FlightRecorder(int num_hosts, size_t ring_capacity = 4096,
                          size_t frame_capacity = 256);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Probe subscriber: NIC TX/RX (records plus frame snapshots), NAKs sent,
  // CNPs, retransmits, timeouts, QP transitions, lease/peer events and
  // component crashes/restarts. Everything else is ignored.
  void OnProbe(const ProbeEvent& ev) override;

  // Hot path: append one record to `host`'s ring (overwrites the oldest).
  // Inline with a branch (not %) for the wrap: these run per packet.
  void Record(SimTime now, int host, FlightRecordType type, uint8_t opcode, uint32_t qpn,
              uint32_t psn, uint32_t aux) {
    if (host < 0 || size_t(host) >= rings_.size()) {
      return;
    }
    Ring& ring = rings_[size_t(host)];
    FlightRecord& slot = ring.slots[ring.next];
    slot.t_ps = uint64_t(now);
    slot.qpn = qpn;
    slot.psn = psn;
    slot.aux = aux;
    slot.host = uint16_t(host);
    slot.type = uint8_t(type);
    slot.opcode = opcode;
    if (++ring.next == ring.slots.size()) {
      ring.next = 0;
    }
    if (ring.count < ring.slots.size()) {
      ++ring.count;
    }
    ++records_written_;
  }

  // Hot path: snapshot the frame's header prefix (at most kFrameSnapLen
  // bytes, ~2 cache lines) plus its on-wire length into the host's own frame
  // ring. `tx` distinguishes the capture direction in the dumped pcapng
  // comment.
  void RecordFrame(SimTime now, int host, bool tx, const FrameBuf& frame) {
    if (frame_rings_.empty()) {
      return;
    }
    FrameRing& ring = frame_rings_[host < 0 || size_t(host) >= frame_rings_.size()
                                       ? 0
                                       : size_t(host)];
    FrameSlot& slot = ring.slots[ring.next];
    slot.t = now;
    slot.host = uint16_t(host < 0 ? 0 : host);
    slot.tx = tx;
    slot.seq = ring.ordinal++;
    slot.orig_len = uint32_t(frame.size());
    slot.cap_len = uint16_t(frame.size() < kFrameSnapLen ? frame.size() : kFrameSnapLen);
    std::memcpy(slot.data, frame.span().data(), slot.cap_len);
    if (++ring.next == ring.slots.size()) {
      ring.next = 0;
    }
    if (ring.count < ring.slots.size()) {
      ++ring.count;
    }
    ++frames_recorded_;
  }

  // Dumps the bundle described above. Idempotent: only the first trigger
  // wins, so a cascade (audit violation -> fatal) keeps the original scene.
  // Deliberately CHECK-free — it must be safe to call from the fatal hook.
  Status Dump(const std::string& stem, const std::string& reason,
              const MetricsRegistry::Snapshot* metrics = nullptr);

  // Stem used by DumpAuto() and the fatal hook; empty disables both.
  void set_auto_dump_stem(const std::string& stem) { auto_stem_ = stem; }
  const std::string& auto_dump_stem() const { return auto_stem_; }
  // Dump to the configured auto stem, if any. Returns true if a bundle was
  // written by this call.
  bool DumpAuto(const std::string& reason,
                const MetricsRegistry::Snapshot* metrics = nullptr);

  bool dumped() const { return dumped_.load(std::memory_order_relaxed); }
  int num_hosts() const { return int(rings_.size()); }
  uint64_t records_written() const { return records_written_; }
  uint64_t frames_recorded() const { return frames_recorded_; }

  // Ring contents oldest-first (test/inspection helper; the dump uses it).
  std::vector<FlightRecord> HostRecords(int host) const;

 private:
  struct Ring {
    std::vector<FlightRecord> slots;
    size_t next = 0;    // next write position
    size_t count = 0;   // <= slots.size()
  };
  struct FrameSlot {
    SimTime t = 0;
    uint64_t seq = 0;  // per-host write ordinal; merge tie-break in Dump()
    uint32_t orig_len = 0;
    uint16_t host = 0;
    uint16_t cap_len = 0;
    bool tx = false;
    uint8_t data[kFrameSnapLen];
  };
  struct FrameRing {
    std::vector<FrameSlot> slots;
    size_t next = 0;
    size_t count = 0;
    uint64_t ordinal = 0;  // total frames ever written to this ring
  };

  std::vector<Ring> rings_;
  std::vector<FrameRing> frame_rings_;  // one per host, single-writer
  uint64_t records_written_ = 0;
  uint64_t frames_recorded_ = 0;
  std::string auto_stem_;
  std::atomic<bool> dumped_{false};
};

// Decoded bundle (the .flightrec.bin side; frames stay in the pcapng).
struct FlightRecordBundle {
  std::string reason;
  std::vector<std::vector<FlightRecord>> hosts;  // oldest-first per host
};

Result<FlightRecordBundle> LoadFlightRecords(const std::string& path);

// The calling thread's current-run recorder. A topology sets it on the thread
// that builds it (a sweep point runs entirely on one --jobs worker) and the
// recorder clears it on destruction, so runs on other threads never see it.
// Any STROM_CHECK failure or kFatal log (paranoid-mode divergence aborts this
// way) and any Auditor violation dump this recorder before the process
// aborts. The first call installs the fatal hook.
void SetCurrentFlightRecorder(FlightRecorder* recorder);
FlightRecorder* CurrentFlightRecorder();

}  // namespace strom

#endif  // SRC_TELEMETRY_FLIGHT_RECORDER_H_
