#include "src/telemetry/flow_stats.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/sim/time.h"

namespace strom {
namespace {

uint64_t Key(int host, uint32_t qpn) {
  return uint64_t(uint32_t(host)) << 32 | uint64_t(qpn);
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

FlowStats::QpFlow& FlowStats::Flow(SimTime now, int host, uint32_t qpn) {
  QpFlow& flow = flows_[Key(host, qpn)];
  if (flow.first_t < 0) {
    flow.first_t = now;
  }
  flow.last_t = std::max(flow.last_t, now);
  return flow;
}

void FlowStats::PushEvent(SimTime now, int host, uint32_t qpn, DcqcnEventKind kind,
                          double rate_bps, double alpha) {
  if (timeline_.size() >= timeline_capacity_) {
    ++timeline_dropped_;
    return;
  }
  DcqcnEvent ev;
  ev.t = now;
  ev.qpn = qpn;
  ev.host = uint16_t(host);
  ev.kind = kind;
  ev.rate_gbps = rate_bps / 1e9;
  ev.alpha = alpha;
  timeline_.push_back(ev);
}

void FlowStats::OnProbe(const ProbeEvent& ev) {
  switch (ev.kind) {
    case ProbeKind::kCompletion: {
      if (!ev.ok) {
        return;
      }
      const double rtt_us = double(ev.end - ev.begin) / 1e6;
      QpFlow& flow = Flow(ev.t, ev.src, ev.qpn);
      ++flow.completions;
      flow.bytes_completed += ev.bytes;
      flow.rtt_sum_us += rtt_us;
      if (flow.completions == 1 || rtt_us < flow.rtt_min_us) {
        flow.rtt_min_us = rtt_us;
      }
      flow.rtt_max_us = std::max(flow.rtt_max_us, rtt_us);
      return;
    }
    case ProbeKind::kRetransmit:
      ++Flow(ev.t, ev.src, ev.qpn).retransmit_epochs;
      return;
    case ProbeKind::kTimeout:
      ++Flow(ev.t, ev.src, ev.qpn).timeouts;
      return;
    case ProbeKind::kCe:
      ++Flow(ev.t, ev.src, ev.qpn).ce_rx;
      return;
    case ProbeKind::kBecnTx:
      ++Flow(ev.t, ev.src, ev.qpn).becn_tx;
      return;
    case ProbeKind::kCnp: {
      QpFlow& flow = Flow(ev.t, ev.src, ev.qpn);
      ++flow.cnp_rx;
      flow.last_alpha = ev.alpha;
      PushEvent(ev.t, ev.src, ev.qpn, DcqcnEventKind::kCnp, ev.rate_bps, ev.alpha);
      return;
    }
    case ProbeKind::kRateCut:
    case ProbeKind::kRateIncrease: {
      const bool cut = ev.kind == ProbeKind::kRateCut;
      QpFlow& flow = Flow(ev.t, ev.src, ev.qpn);
      if (cut) {
        ++flow.rate_cuts;
      } else {
        ++flow.rate_increases;
      }
      flow.last_rate_gbps = ev.rate_bps / 1e9;
      flow.last_alpha = ev.alpha;
      if (flow.min_rate_gbps == 0 || flow.last_rate_gbps < flow.min_rate_gbps) {
        flow.min_rate_gbps = flow.last_rate_gbps;
      }
      PushEvent(ev.t, ev.src, ev.qpn, cut ? DcqcnEventKind::kCut : DcqcnEventKind::kIncrease,
                ev.rate_bps, ev.alpha);
      return;
    }
    default:
      return;
  }
}

MetricsRegistry::Snapshot FlowStats::Summary() const {
  MetricsRegistry::Snapshot snap;
  for (const auto& [key, flow] : flows_) {
    const int host = int(key >> 32);
    const uint32_t qpn = uint32_t(key & 0xFFFFFFFFu);
    const std::string prefix =
        "flow.h" + std::to_string(host) + ".qp" + std::to_string(qpn) + ".";
    const double span_sec =
        flow.last_t > flow.first_t && flow.first_t >= 0 ? ToSec(flow.last_t - flow.first_t) : 0;
    snap.gauges.emplace_back(prefix + "completions", double(flow.completions));
    snap.gauges.emplace_back(prefix + "goodput_gbps",
                             span_sec > 0 ? flow.bytes_completed * 8.0 / span_sec / 1e9 : 0);
    snap.gauges.emplace_back(
        prefix + "rtt_avg_us",
        flow.completions > 0 ? flow.rtt_sum_us / double(flow.completions) : 0);
    snap.gauges.emplace_back(prefix + "rtt_max_us", flow.rtt_max_us);
    snap.gauges.emplace_back(prefix + "retransmit_epochs", double(flow.retransmit_epochs));
    snap.gauges.emplace_back(prefix + "timeouts", double(flow.timeouts));
    snap.gauges.emplace_back(prefix + "cnp_rx", double(flow.cnp_rx));
    snap.gauges.emplace_back(prefix + "rate_cuts", double(flow.rate_cuts));
    snap.gauges.emplace_back(prefix + "min_rate_gbps", flow.min_rate_gbps);
  }
  return snap;
}

void FlowStats::AppendCsv(const std::string& label, std::string* out) const {
  for (const auto& [key, flow] : flows_) {
    const int host = int(key >> 32);
    const uint32_t qpn = uint32_t(key & 0xFFFFFFFFu);
    const std::string row_prefix =
        "flow," + label + "," + std::to_string(host) + "," + std::to_string(qpn) + ",";
    const auto emit = [&](const char* metric, double value) {
      out->append(row_prefix);
      out->append(metric);
      out->push_back(',');
      out->append(FormatDouble(value));
      out->push_back('\n');
    };
    const double span_sec =
        flow.last_t > flow.first_t && flow.first_t >= 0 ? ToSec(flow.last_t - flow.first_t) : 0;
    emit("completions", double(flow.completions));
    emit("bytes_completed", double(flow.bytes_completed));
    emit("goodput_gbps", span_sec > 0 ? flow.bytes_completed * 8.0 / span_sec / 1e9 : 0);
    emit("rtt_avg_us", flow.completions > 0 ? flow.rtt_sum_us / double(flow.completions) : 0);
    emit("rtt_min_us", flow.rtt_min_us);
    emit("rtt_max_us", flow.rtt_max_us);
    emit("retransmit_epochs", double(flow.retransmit_epochs));
    emit("timeouts", double(flow.timeouts));
    emit("ce_rx", double(flow.ce_rx));
    emit("becn_tx", double(flow.becn_tx));
    emit("cnp_rx", double(flow.cnp_rx));
    emit("rate_cuts", double(flow.rate_cuts));
    emit("rate_increases", double(flow.rate_increases));
    emit("last_rate_gbps", flow.last_rate_gbps);
    emit("min_rate_gbps", flow.min_rate_gbps);
    emit("last_alpha", flow.last_alpha);
  }
  for (const DcqcnEvent& ev : timeline_) {
    const char* kind = ev.kind == DcqcnEventKind::kCnp
                           ? "cnp"
                           : ev.kind == DcqcnEventKind::kCut ? "cut" : "increase";
    out->append("dcqcn," + label + "," + std::to_string(ev.host) + "," +
                std::to_string(ev.qpn) + "," + FormatDouble(ToUs(ev.t)) + "," + kind + "," +
                FormatDouble(ev.rate_gbps) + "," + FormatDouble(ev.alpha) + "\n");
  }
}

void FlowStatsSink::Deposit(const std::string& label, const FlowStats& stats, int64_t order) {
  std::string rows;
  stats.AppendCsv(label, &rows);
  std::lock_guard<std::mutex> lock(mu_);
  if (order < 0) {
    order = next_serial_order_++;
  }
  runs_.emplace_back(order, std::move(rows));
}

bool FlowStatsSink::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_.empty();
}

std::string FlowStatsSink::Csv() const {
  std::vector<std::pair<int64_t, std::string>> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sorted = runs_;
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out = "kind,label,host,qpn,fields...\n";
  for (const auto& [order, rows] : sorted) {
    (void)order;
    out += rows;
  }
  return out;
}

Status FlowStatsSink::WriteCsv(const std::string& path) const {
  const std::string csv = Csv();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !out.write(csv.data(), std::streamsize(csv.size()))) {
    return InternalError("cannot write flow stats '" + path + "'");
  }
  return Status::Ok();
}

}  // namespace strom
