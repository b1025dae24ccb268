// Per-flow statistics engine: rolling per-QP RTT/goodput/retransmit/CNP
// counters plus a bounded DCQCN state timeline (rate, alpha, cut/recovery
// events), fed by the RoCE stacks' probe events. One FlowStats lives
// per simulation (Testbed/Fabric owns it alongside the Telemetry bundle), so
// updates are single-threaded and lock-free; finished runs deposit into a
// process-wide FlowStatsSink (mutex-guarded, order-keyed like the
// TelemetryCollector) so parallel sweeps export deterministically.
//
// Exports:
//   * Summary() — one gauge row per flow, deposited into the metrics CSV
//     through the existing TelemetryCollector.
//   * AppendCsv() — tidy rows for the standalone .flows.csv consumed by
//     `stromtrace --flows`:
//       flow,<label>,<host>,<qpn>,<metric>,<value>
//       dcqcn,<label>,<host>,<qpn>,<time_us>,<event>,<rate_gbps>,<alpha>
#ifndef SRC_TELEMETRY_FLOW_STATS_H_
#define SRC_TELEMETRY_FLOW_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/time.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/probe.h"

namespace strom {

class FlowStats : public ProbeSubscriber {
 public:
  struct QpFlow {
    uint64_t completions = 0;
    uint64_t bytes_completed = 0;  // goodput numerator
    double rtt_sum_us = 0;
    double rtt_min_us = 0;
    double rtt_max_us = 0;
    uint64_t retransmit_epochs = 0;
    uint64_t timeouts = 0;
    uint64_t ce_rx = 0;       // CE-marked packets received
    uint64_t becn_tx = 0;     // BECN echoes sent back
    uint64_t cnp_rx = 0;      // BECNs observed as the requester
    uint64_t rate_cuts = 0;
    uint64_t rate_increases = 0;
    double last_rate_gbps = 0;  // 0 until DCQCN initializes the limiter
    double min_rate_gbps = 0;
    double last_alpha = 0;
    SimTime first_t = -1;
    SimTime last_t = 0;
  };

  enum class DcqcnEventKind : uint8_t { kCnp = 0, kCut = 1, kIncrease = 2 };

  struct DcqcnEvent {
    SimTime t = 0;
    uint32_t qpn = 0;
    uint16_t host = 0;
    DcqcnEventKind kind = DcqcnEventKind::kCnp;
    double rate_gbps = 0;
    double alpha = 0;
  };

  // `timeline_capacity` bounds the DCQCN event timeline; once full, further
  // events still update the per-flow counters but are not timestamped.
  explicit FlowStats(size_t timeline_capacity = 65536)
      : timeline_capacity_(timeline_capacity) {}

  // Probe subscriber: completions, retransmits, timeouts, CE/BECN/CNP and
  // DCQCN rate changes of every host's RoCE stack.
  void OnProbe(const ProbeEvent& ev) override;

  // --- export --------------------------------------------------------------
  // One gauge per (flow, metric): "flow.h<host>.qp<qpn>.<metric>".
  MetricsRegistry::Snapshot Summary() const;
  void AppendCsv(const std::string& label, std::string* out) const;

  bool empty() const { return flows_.empty(); }
  size_t flow_count() const { return flows_.size(); }
  size_t timeline_size() const { return timeline_.size(); }
  uint64_t timeline_dropped() const { return timeline_dropped_; }
  // Flows keyed by (host << 32 | qpn); std::map keeps export order stable.
  const std::map<uint64_t, QpFlow>& flows() const { return flows_; }
  const std::vector<DcqcnEvent>& timeline() const { return timeline_; }

 private:
  QpFlow& Flow(SimTime now, int host, uint32_t qpn);
  void PushEvent(SimTime now, int host, uint32_t qpn, DcqcnEventKind kind, double rate_bps,
                 double alpha);

  size_t timeline_capacity_;
  uint64_t timeline_dropped_ = 0;
  std::map<uint64_t, QpFlow> flows_;
  std::vector<DcqcnEvent> timeline_;
};

// Process-wide sink for finished runs (the flow-stats analogue of the
// TelemetryCollector): deposits are mutex-serialized and ordered by the
// sweep ordinal so --jobs=N output is byte-identical to --jobs=1.
class FlowStatsSink {
 public:
  void Deposit(const std::string& label, const FlowStats& stats, int64_t order = -1);

  bool empty() const;
  std::string Csv() const;
  Status WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  int64_t next_serial_order_ = int64_t{1} << 40;
  std::vector<std::pair<int64_t, std::string>> runs_;  // (order, csv rows)
};

}  // namespace strom

#endif  // SRC_TELEMETRY_FLOW_STATS_H_
