#include "src/roce/stack.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/telemetry/audit.h"

namespace strom {

uint32_t RoceConfig::PayloadPerPacket() const {
  return static_cast<uint32_t>(RocePayloadPerPacket(ip_mtu));
}

uint32_t RoceStack::PendingWr::ChunkLen(uint32_t idx, uint32_t pmtu) const {
  const uint64_t len = req.length;
  if (len == 0) {
    return 0;
  }
  const uint64_t start = static_cast<uint64_t>(idx) * pmtu;
  STROM_CHECK_LT(start, len);
  return static_cast<uint32_t>(std::min<uint64_t>(pmtu, len - start));
}

RoceStack::RoceStack(Simulator& sim, RoceConfig config, DmaEngine& dma, Ipv4Addr local_ip,
                     MacAddr local_mac, const ArpTable& arp)
    : sim_(sim),
      config_(config),
      dma_(dma),
      local_ip_(local_ip),
      local_mac_(local_mac),
      arp_(arp),
      state_table_(config.max_qps),
      msn_table_(config.max_qps),
      multi_queue_(config.max_qps, config.multi_queue_total),
      timer_(sim, config.max_qps, config.retransmission_timeout,
             config.retransmission_timeout_max),
      pmtu_payload_(config.PayloadPerPacket()) {
  timer_.SetExpiryHandler([this](Qpn qpn) { OnTimeout(qpn); });
}

void RoceStack::AttachTelemetry(Telemetry* telemetry, const std::string& process,
                                int host_index) {
  probe_ = &telemetry->probe;
  host_index_ = host_index;
  telemetry->spans.AddNic(host_index, process);

  const std::string prefix = process + ".roce.";
  auto gauge = [&](const char* name, const uint64_t& field) {
    telemetry->metrics.AddGauge(prefix + name, [&field] { return double(field); });
  };
  gauge("tx_packets", counters_.tx_packets);
  gauge("tx_bytes", counters_.tx_bytes);
  gauge("rx_packets", counters_.rx_packets);
  gauge("rx_payload_bytes", counters_.rx_payload_bytes);
  gauge("tx_acks", counters_.tx_acks);
  gauge("rx_acks", counters_.rx_acks);
  gauge("tx_naks", counters_.tx_naks);
  gauge("rx_naks", counters_.rx_naks);
  gauge("retransmitted_packets", counters_.retransmitted_packets);
  gauge("timeouts", counters_.timeouts);
  gauge("icrc_drops", counters_.icrc_drops);
  gauge("malformed_drops", counters_.malformed_drops);
  gauge("psn_out_of_order_drops", counters_.psn_out_of_order_drops);
  gauge("duplicate_psn_packets", counters_.duplicate_psn_packets);
  gauge("unknown_qp_drops", counters_.unknown_qp_drops);
  gauge("rpc_dispatched", counters_.rpc_dispatched);
  gauge("rpc_unmatched", counters_.rpc_unmatched);
  gauge("write_messages_completed", counters_.write_messages_completed);
  gauge("read_messages_completed", counters_.read_messages_completed);
  gauge("qp_errors", counters_.qp_errors);
  gauge("qp_resets", counters_.qp_resets);
  gauge("wrs_flushed", counters_.wrs_flushed);
  gauge("qp_error_drops", counters_.qp_error_drops);
  gauge("rx_operational_errors", counters_.rx_operational_errors);
  gauge("rx_ecn_ce", counters_.rx_ecn_ce);
  gauge("tx_becn", counters_.tx_becn);
  gauge("rx_cnp", counters_.rx_cnp);
  gauge("dcqcn_rate_cuts", counters_.dcqcn_rate_cuts);
  gauge("dcqcn_rate_increases", counters_.dcqcn_rate_increases);
  gauge("pacing_deferrals", counters_.pacing_deferrals);
  gauge("pfc_pause_events", counters_.pfc_pause_events);
  gauge("crashes", counters_.crashes);
  gauge("timers_cancelled_at_crash", counters_.timers_cancelled_at_crash);
  gauge("tx_stale_naks", counters_.tx_stale_naks);
  gauge("rx_stale_naks", counters_.rx_stale_naks);
  // Timer-churn counters from the cancellable-timer core: dead events that
  // the handle API physically removes instead of popping as tombstones.
  telemetry->metrics.AddGauge(prefix + "timers_armed",
                              [this] { return double(timer_.timers_armed()); });
  telemetry->metrics.AddGauge(prefix + "timers_cancelled",
                              [this] { return double(timer_.timers_cancelled()); });
  telemetry->metrics.AddGauge(
      prefix + "stale_expiries_eliminated",
      [this] { return double(timer_.stale_expiries_eliminated()); });

  const std::vector<double> bounds = {1,  2,  3,   4,   5,   7.5, 10,  15,
                                      20, 30, 50,  75,  100, 200, 500, 1000};
  write_latency_us_ = telemetry->metrics.AddHistogram(prefix + "write_latency_us", bounds);
  read_latency_us_ = telemetry->metrics.AddHistogram(prefix + "read_latency_us", bounds);
}

void RoceStack::AttachSampler(Telemetry* telemetry, const std::string& process) {
  const std::string prefix = process + ".roce.";
  TimeSeriesSampler& s = telemetry->sampler;
  s.AddProbe(prefix + "wr_queue_depth", [this](SimTime) { return double(wr_queue_.size()); });
  s.AddProbe(prefix + "control_queue_depth",
             [this](SimTime) { return double(control_queue_.size()); });
  s.AddProbe(prefix + "retransmit_queue_depth",
             [this](SimTime) { return double(retransmit_queue_.size()); });
  s.AddProbe(prefix + "outstanding_packets", [this](SimTime) {
    size_t n = 0;
    qps_.ForEach([&n](Qpn, const QpState& qp) { n += qp.outstanding.size(); });
    return double(n);
  });
  s.AddProbe(prefix + "outstanding_reads",
             [this](SimTime) { return double(pending_reads_.size()); });
  s.AddProbe(prefix + "multi_queue_occupancy", [this](SimTime) {
    return double(multi_queue_.total_elements() - multi_queue_.free_elements());
  });
}

void RoceStack::AttachAuditor(Auditor* auditor) { auditor_ = auditor; }

RoceStack::QpState& RoceStack::Qp(Qpn qpn) {
  STROM_CHECK_LT(qpn, config_.max_qps);
  return qps_[qpn];
}

Status RoceStack::ConnectQp(Qpn local_qpn, Qpn remote_qpn, Ipv4Addr remote_ip, Psn local_psn,
                            Psn remote_psn) {
  if (local_qpn >= config_.max_qps) {
    return OutOfRangeError("QPN beyond configured max_qps");
  }
  STROM_RETURN_IF_ERROR(state_table_.Activate(local_qpn, remote_psn, local_psn));
  // Touch every per-QP table now so steady-state packet processing is
  // lookup-only: the pooled maps then never rehash (and never invalidate
  // held references) outside connection setup.
  msn_table_.Entry(local_qpn);
  QpState& qp = qps_[local_qpn];
  qp.connected = true;
  qp.remote_qpn = remote_qpn;
  qp.remote_ip = remote_ip;
  // Re-establishing the QP ends its fencing window: the peer has seen the
  // new epoch out of band.
  stale_qps_.erase(local_qpn);
  return Status::Ok();
}

bool RoceStack::QpConnected(Qpn qpn) const {
  const QpState* qp = qps_.Find(qpn);
  return qp != nullptr && qp->connected;
}

// ---------------------------------------------------------------------------
// TX path: Request Handler + packetization + pacing
// ---------------------------------------------------------------------------

Status RoceStack::PostRequest(WorkRequest wr) {
  // On rejection the completion callback still fires so waiters never hang.
  auto fail = [&wr](Status st) {
    if (wr.on_complete) {
      wr.on_complete(st);
    }
    return st;
  };
  if (!QpConnected(wr.qpn)) {
    return fail(FailedPreconditionError("QP not connected"));
  }
  if (state_table_.Entry(wr.qpn).phase == QpPhase::kError) {
    return fail(FailedPreconditionError("QP in Error state (ResetQp + ConnectQp required)"));
  }
  if (!wr.inline_data.empty()) {
    wr.length = static_cast<uint32_t>(wr.inline_data.size());
  }
  if (wr.kind == WorkRequest::Kind::kRpc && wr.inline_data.size() > pmtu_payload_) {
    return fail(InvalidArgumentError("RPC parameters exceed one MTU"));
  }

  auto pending = std::make_shared<PendingWr>();
  pending->req = std::move(wr);
  pending->posted_at = sim_.now();

  StateTableEntry& st = state_table_.Entry(pending->req.qpn);
  pending->first_psn = st.next_psn;

  switch (pending->req.kind) {
    case WorkRequest::Kind::kWrite:
    case WorkRequest::Kind::kRpcWrite:
      pending->send_pkts = config_.PacketsForLength(pending->req.length);
      pending->psn_span = pending->send_pkts;
      break;
    case WorkRequest::Kind::kRpc:
      pending->send_pkts = 1;
      pending->psn_span = 1;
      break;
    case WorkRequest::Kind::kRead: {
      if (pending->req.length == 0) {
        Status bad = InvalidArgumentError("zero-length read");
        if (pending->req.on_complete) {
          pending->req.on_complete(bad);
        }
        return bad;
      }
      pending->send_pkts = 1;
      pending->psn_span = config_.PacketsForLength(pending->req.length);
      ReadContext ctx;
      ctx.local_addr = pending->req.local_addr;
      ctx.length = pending->req.length;
      ctx.first_psn = pending->first_psn;
      ctx.num_packets = pending->psn_span;
      ctx.wr_id = next_read_token_++;
      pending_reads_[ctx.wr_id] = pending;
      if (!multi_queue_.Push(pending->req.qpn, ctx)) {
        pending_reads_.erase(ctx.wr_id);
        Status full = ResourceExhaustedError("multi-queue full (too many outstanding reads)");
        if (pending->req.on_complete) {
          pending->req.on_complete(full);
        }
        return full;
      }
      break;
    }
  }
  pending->last_psn = PsnAdd(pending->first_psn, pending->psn_span - 1);
  st.next_psn = PsnAdd(st.next_psn, pending->psn_span);

  wr_queue_.push_back(std::move(pending));
  PumpTx();
  return Status::Ok();
}

IbOpcode RoceStack::DataOpcode(const PendingWr& wr, uint32_t idx) const {
  const bool only = wr.send_pkts == 1;
  const bool first = idx == 0;
  const bool last = idx + 1 == wr.send_pkts;
  if (wr.is_read_response) {
    if (only) {
      return IbOpcode::kReadRespOnly;
    }
    if (first) {
      return IbOpcode::kReadRespFirst;
    }
    return last ? IbOpcode::kReadRespLast : IbOpcode::kReadRespMiddle;
  }
  switch (wr.req.kind) {
    case WorkRequest::Kind::kWrite:
      if (only) {
        return IbOpcode::kWriteOnly;
      }
      if (first) {
        return IbOpcode::kWriteFirst;
      }
      return last ? IbOpcode::kWriteLast : IbOpcode::kWriteMiddle;
    case WorkRequest::Kind::kRpcWrite:
      if (only) {
        return IbOpcode::kRpcWriteOnly;
      }
      if (first) {
        return IbOpcode::kRpcWriteFirst;
      }
      return last ? IbOpcode::kRpcWriteLast : IbOpcode::kRpcWriteMiddle;
    case WorkRequest::Kind::kRpc:
      return IbOpcode::kRpcParams;
    case WorkRequest::Kind::kRead:
      return IbOpcode::kReadRequest;
  }
  return IbOpcode::kWriteOnly;
}

void RoceStack::FetchPayloads() {
  // Pipeline payload fetches across queued messages so back-to-back small
  // messages are not serialized on PCIe read latency. The cursor skips the
  // fully fetched prefix of the queue (same fetch order as scanning from the
  // front, since WRs ahead of the cursor have nothing left to fetch).
  for (size_t qi = fetch_cursor_; qi < wr_queue_.size(); ++qi) {
    WrPtr& wr = wr_queue_[qi];
    if (wr->next_fetch >= wr->send_pkts) {
      if (qi == fetch_cursor_) {
        ++fetch_cursor_;
      }
      continue;
    }
    if (fetches_in_flight_ >= config_.tx_fetch_window) {
      return;
    }
    while (wr->next_fetch < wr->send_pkts && fetches_in_flight_ < config_.tx_fetch_window) {
      const uint32_t idx = wr->next_fetch++;
      if (wr->req.kind == WorkRequest::Kind::kRead) {
        wr->ready[idx] = FrameBuf{};  // read requests carry no payload
        continue;
      }
      const uint32_t chunk = wr->ChunkLen(idx, pmtu_payload_);
      if (!wr->req.inline_data.empty() || chunk == 0) {
        const uint8_t* base = wr->req.inline_data.data() + static_cast<size_t>(idx) * pmtu_payload_;
        wr->ready[idx] = FrameBuf::Copy(ByteSpan(base, chunk));
        continue;
      }
      ++fetches_in_flight_;
      const VirtAddr src = wr->req.local_addr + static_cast<VirtAddr>(idx) * pmtu_payload_;
      dma_.Read(src, chunk, [this, wr, idx](Result<FrameBuf> data) {
        --fetches_in_flight_;
        if (!data.ok()) {
          STROM_LOG(kError) << "TX payload fetch failed: " << data.status();
          FailPayloadFetch(wr, data.status());
        } else {
          wr->ready[idx] = std::move(*data);
        }
        PumpTx();
      }, wr->req.trace);
    }
  }
}

bool RoceStack::TrySendNextDataPacket() {
  // Retransmissions take precedence over new data.
  if (!retransmit_queue_.empty()) {
    OutstandingPacket& desc = retransmit_queue_.front();
    FrameBuf payload;
    if (desc.opcode == IbOpcode::kReadRequest || desc.len == 0) {
      // no payload
    } else if (!desc.wr->req.inline_data.empty()) {
      const uint8_t* base = desc.wr->req.inline_data.data() + desc.offset;
      payload = FrameBuf::Copy(ByteSpan(base, desc.len));
    } else if (retransmit_payload_.has_value()) {
      payload = std::move(*retransmit_payload_);
      retransmit_payload_.reset();
    } else {
      if (!retransmit_fetch_pending_) {
        retransmit_fetch_pending_ = true;
        const uint64_t epoch = retransmit_epoch_;
        dma_.Read(desc.wr->req.local_addr + desc.offset, desc.len,
                  [this, epoch](Result<FrameBuf> data) {
                    retransmit_fetch_pending_ = false;
                    if (epoch == retransmit_epoch_ && data.ok()) {
                      retransmit_payload_ = std::move(*data);
                    }
                    // Stale epoch: the queue was rebuilt; PumpTx re-fetches
                    // for whatever is at the front now.
                    PumpTx();
                  }, desc.wr->req.trace);
      }
      return false;
    }

    QpState& qp = Qp(desc.wr->req.qpn);
    RocePacket pkt;
    pkt.src_ip = local_ip_;
    pkt.dst_ip = qp.remote_ip;
    pkt.bth.opcode = desc.opcode;
    pkt.bth.dest_qp = qp.remote_qpn;
    pkt.bth.psn = desc.psn;
    pkt.bth.ack_request = true;  // force a fresh cumulative ACK
    if (OpcodeHasReth(desc.opcode)) {
      RethHeader reth;
      reth.virt_addr = desc.remote_addr;
      reth.dma_length = desc.wr->req.length;
      pkt.reth = reth;
    }
    pkt.ecn_capable = config_.ecn_capable;
    pkt.payload = std::move(payload);
    pkt.trace = desc.wr->req.trace;
    ++counters_.retransmitted_packets;
    retransmit_queue_.pop_front();
    EmitFrame(pkt);
    return true;
  }

  if (wr_queue_.empty()) {
    return false;
  }
  WrPtr wr;
  if (!config_.dcqcn.enable) {
    // Legacy path: strict FIFO, the front WR blocks the queue until its next
    // chunk is fetched. Byte-identical to the uncontrolled stack.
    wr = wr_queue_.front();
    if (wr->ready.find(wr->next_send) == wr->ready.end()) {
      return false;  // waiting for the payload fetch
    }
  } else {
    // DCQCN pacing: pick the first pacing-eligible, fetch-ready WR that is
    // the earliest WR of its QP in the queue (per-QP PSN order preserved;
    // rate-limited QPs no longer head-of-line-block other QPs).
    SimTime earliest = 0;
    bool deferred = false;
    const uint64_t scan_epoch = ++pacing_scan_epoch_;
    for (WrPtr& cand : wr_queue_) {
      const Qpn qpn = cand->req.qpn;
      QpState& cand_qp = Qp(qpn);
      if (cand_qp.pacing_scan_epoch == scan_epoch) {
        continue;  // a WR of this QP ahead of it must go first
      }
      cand_qp.pacing_scan_epoch = scan_epoch;
      if (cand->ready.find(cand->next_send) == cand->ready.end()) {
        continue;  // fetch pending; let other QPs proceed
      }
      MaybeRecoverRate(qpn, cand_qp.cc);
      if (cand_qp.cc.next_allowed > sim_.now()) {
        deferred = true;
        if (earliest == 0 || cand_qp.cc.next_allowed < earliest) {
          earliest = cand_qp.cc.next_allowed;
        }
        continue;
      }
      wr = cand;
      break;
    }
    if (wr == nullptr) {
      if (deferred) {
        // Everything sendable is rate-limited: wake the pump when the
        // earliest pacing cursor expires (deduplicated across calls).
        ++counters_.pacing_deferrals;
        if (pacing_wakeup_at_ <= sim_.now() || earliest < pacing_wakeup_at_) {
          pacing_wakeup_at_ = earliest;
          if (pacing_timer_.valid()) {
            // Physically move the pending wake instead of stacking a second
            // event: the superseded later wake would only have re-entered
            // this pump and found the cursor already serviced.
            sim_.RescheduleAt(pacing_timer_, earliest);
          } else {
            pacing_timer_ = sim_.ScheduleCancellableAt(earliest, [this] { PumpTx(); });
          }
        }
      }
      return false;
    }
  }
  auto it = wr->ready.find(wr->next_send);
  const uint32_t idx = wr->next_send++;
  FrameBuf payload = std::move(it->second);
  wr->ready.erase(it);

  QpState& qp = Qp(wr->req.qpn);
  const IbOpcode opcode = DataOpcode(*wr, idx);
  const bool last = idx + 1 == wr->send_pkts;

  RocePacket pkt;
  pkt.src_ip = local_ip_;
  pkt.dst_ip = qp.remote_ip;
  pkt.ecn_capable = config_.ecn_capable;
  pkt.bth.opcode = opcode;
  pkt.bth.dest_qp = qp.remote_qpn;
  pkt.trace = wr->req.trace;
  pkt.bth.ack_request =
      !wr->is_read_response &&
      (last || (idx + 1) % config_.ack_request_interval == 0);
  if (qp.ce_to_echo) {
    pkt.bth.becn = true;
    qp.ce_to_echo = false;
    ++counters_.tx_becn;
    Report(ProbeKind::kBecnTx, wr->req.qpn);
  }

  if (wr->is_read_response) {
    pkt.bth.psn = PsnAdd(wr->first_psn, idx);
    if (OpcodeHasAeth(opcode)) {
      AethHeader aeth;
      aeth.syndrome = AckSyndrome::kAck;
      aeth.msn = msn_table_.Entry(wr->req.qpn).msn;
      pkt.aeth = aeth;
    }
  } else {
    pkt.bth.psn =
        wr->req.kind == WorkRequest::Kind::kRead ? wr->first_psn : PsnAdd(wr->first_psn, idx);
    if (OpcodeHasReth(opcode)) {
      RethHeader reth;
      reth.virt_addr = wr->req.remote_addr;
      reth.dma_length = wr->req.length;
      pkt.reth = reth;
    }
    // Track for go-back-N retransmission.
    OutstandingPacket desc;
    desc.psn = pkt.bth.psn;
    desc.opcode = opcode;
    desc.remote_addr = wr->req.remote_addr;
    desc.offset = idx * pmtu_payload_;
    desc.len = static_cast<uint32_t>(payload.size());
    desc.wr = wr;
    const bool was_empty = qp.outstanding.empty();
    qp.outstanding.push_back(std::move(desc));
    if (was_empty) {
      timer_.Arm(wr->req.qpn);
    }
  }

  counters_.tx_bytes += payload.size();
  pkt.payload = std::move(payload);
  if (config_.dcqcn.enable) {
    ChargePacing(qp, pkt.WireSize() + kEthPhyOverhead);
  }
  EmitFrame(pkt);

  if (last) {
    FinishSending(wr);
  }
  return true;
}

void RoceStack::FinishSending(const WrPtr& wr) {
  if (config_.dcqcn.enable) {
    // QP-aware selection may finish a WR that is not at the front; erase it
    // in place and keep the fetched-prefix cursor consistent.
    auto it = std::find(wr_queue_.begin(), wr_queue_.end(), wr);
    STROM_CHECK(it != wr_queue_.end());
    const size_t pos = static_cast<size_t>(it - wr_queue_.begin());
    wr_queue_.erase(it);
    if (fetch_cursor_ > pos) {
      --fetch_cursor_;
    }
  } else {
    STROM_CHECK(!wr_queue_.empty() && wr_queue_.front() == wr);
    wr_queue_.pop_front();
    if (fetch_cursor_ > 0) {
      --fetch_cursor_;
    }
  }
  if (wr->is_read_response || wr->req.kind == WorkRequest::Kind::kRead) {
    return;  // responses need no ACK; reads complete via response data
  }
  Qp(wr->req.qpn).awaiting_ack.push_back(wr);
}

void RoceStack::FailPayloadFetch(const WrPtr& wr, const Status& status) {
  if (wr->is_read_response) {
    // Responder role: the response data cannot be produced. Drop the
    // response and tell the requester the operation failed fatally — no
    // retransmission can repair a failed host read.
    auto it = std::find(wr_queue_.begin(), wr_queue_.end(), wr);
    if (it != wr_queue_.end()) {
      wr_queue_.erase(it);
      fetch_cursor_ = 0;
    }
    SendAck(wr->req.qpn, wr->first_psn, AckSyndrome::kNakRemoteOperationalError,
            wr->req.trace);
    return;
  }
  // Requester role: the whole QP goes to Error (the flush completes `wr`,
  // which is still in wr_queue_, with `status`).
  ErrorQp(wr->req.qpn, status);
}

void RoceStack::CompleteWr(const WrPtr& wr, const Status& status) {
  if (wr->completed) {
    return;
  }
  wr->completed = true;
  const bool is_read = wr->req.kind == WorkRequest::Kind::kRead;
  if (is_read) {
    ++counters_.read_messages_completed;
  } else if (!wr->is_read_response) {
    ++counters_.write_messages_completed;
  }
  if (!wr->is_read_response) {
    Histogram* hist = is_read ? read_latency_us_ : write_latency_us_;
    if (hist != nullptr && status.ok()) {
      hist->Observe(double(sim_.now() - wr->posted_at) / 1e6);
    }
    if (probe_->on(wr->req.trace)) {
      // Indexed by WorkRequest::Kind.
      static constexpr const char* kVerb[] = {"WRITE", "READ", "RPC", "RPC_WRITE"};
      probe_->Emit({.kind = ProbeKind::kCompletion, .ok = status.ok(), .src = host_index_,
                    .qpn = wr->req.qpn, .t = sim_.now(), .begin = wr->posted_at,
                    .end = sim_.now(), .bytes = wr->req.length,
                    .label = kVerb[size_t(wr->req.kind)], .trace = wr->req.trace});
    }
  }
  if (wr->req.on_complete) {
    wr->req.on_complete(status);
  }
}

void RoceStack::SendControlPacket(RocePacket pkt) {
  control_queue_.push_back(std::move(pkt));
  PumpTx();
}

void RoceStack::EmitFrame(const RocePacket& pkt) {
  MacAddr dst_mac;
  STROM_CHECK(arp_.Lookup(pkt.dst_ip, &dst_mac))
      << "no ARP entry for " << IpToString(pkt.dst_ip);
  FrameBuf frame = EncodeRoceFrame(local_mac_, dst_mac, pkt);
  ++counters_.tx_packets;
  if (pkt.bth.opcode == IbOpcode::kAck) {
    ++counters_.tx_acks;
    if (pkt.aeth.has_value() && pkt.aeth->syndrome != AckSyndrome::kAck) {
      ++counters_.tx_naks;
    }
  }

  // Fixed TX pipeline latency plus the store-and-forward ICRC pass (one cycle
  // per data word, paper §7). The order cursor keeps the pipeline FIFO.
  const SimTime words = static_cast<SimTime>(pkt.Words(config_.data_width));
  const SimTime latency = (config_.tx_pipeline_cycles + words) * config_.clock_ps;
  tx_order_cursor_ = std::max(tx_order_cursor_, sim_.now() + latency);
  if (probe_->on(pkt.trace)) {
    const bool ack = pkt.bth.opcode == IbOpcode::kAck && pkt.aeth.has_value();
    probe_->Emit({.kind = ProbeKind::kNicTx, .opcode = uint8_t(pkt.bth.opcode),
                  .detail = uint8_t(ack ? uint8_t(pkt.aeth->syndrome) : 0),  // kAck = 0
                  .src = host_index_, .qpn = pkt.bth.dest_qp, .psn = pkt.bth.psn,
                  .aux = uint32_t(frame.size()), .t = sim_.now(), .begin = sim_.now(),
                  .end = tx_order_cursor_, .label = IbOpcodeName(pkt.bth.opcode),
                  .trace = pkt.trace, .frame = &frame});
  }
  sim_.ScheduleAt(tx_order_cursor_,
                  [this, epoch = crash_epoch_, f = std::move(frame),
                   trace = pkt.trace]() mutable {
                    // Frames still inside the TX pipeline when the stack
                    // crashed never reach the wire — even if the restart
                    // beat this event to the clock.
                    if (epoch != crash_epoch_) {
                      return;
                    }
                    if (send_frame_) {
                      send_frame_(std::move(f), trace);
                    }
                  });

  // The word-serial pipeline (II=1) accepts the next packet after `words`
  // cycles: this *is* line rate for the configured width.
  tx_busy_ = true;
  sim_.Schedule(words * config_.clock_ps, [this] {
    tx_busy_ = false;
    PumpTx();
  });
}

void RoceStack::PumpTx() {
  if (in_crash_) {
    return;
  }
  FetchPayloads();
  if (tx_busy_ || sim_.now() < paused_until_) {
    return;
  }
  if (!control_queue_.empty()) {
    RocePacket pkt = std::move(control_queue_.front());
    control_queue_.pop_front();
    EmitFrame(pkt);
    return;
  }
  TrySendNextDataPacket();
}

// ---------------------------------------------------------------------------
// RX path
// ---------------------------------------------------------------------------

void RoceStack::OnFrame(FrameBuf frame, TraceContext trace) {
  Result<RocePacket> parsed = ParseRoceFrame(frame);
  if (!parsed.ok()) {
    const bool icrc = parsed.status().code() == StatusCode::kDataLoss;
    ++(icrc ? counters_.icrc_drops : counters_.malformed_drops);
    if (probe_->on(trace)) {
      probe_->Emit({.kind = ProbeKind::kNicRxDrop,
                    .detail = uint8_t(icrc ? kRxDropIcrc : kRxDropMalformed),
                    .src = host_index_, .t = sim_.now(), .trace = trace, .frame = &frame});
    }
    return;
  }
  ++counters_.rx_packets;
  parsed->trace = trace;
  // RX pipeline: parse stages + State Table FSM + store-and-forward ICRC.
  // The order cursor keeps the pipeline FIFO across packet sizes.
  const SimTime words = static_cast<SimTime>(parsed->Words(config_.data_width));
  const SimTime latency = (config_.rx_pipeline_cycles + words) * config_.clock_ps;
  rx_order_cursor_ = std::max(rx_order_cursor_, sim_.now() + latency);
  if (probe_->on(trace)) {
    probe_->Emit({.kind = ProbeKind::kNicRx, .opcode = uint8_t(parsed->bth.opcode),
                  .src = host_index_, .qpn = parsed->bth.dest_qp, .psn = parsed->bth.psn,
                  .aux = uint32_t(frame.size()), .t = sim_.now(), .begin = sim_.now(),
                  .end = rx_order_cursor_, .label = IbOpcodeName(parsed->bth.opcode),
                  .trace = trace, .frame = &frame});
  }
  sim_.ScheduleAt(rx_order_cursor_,
                  [this, epoch = crash_epoch_, pkt = std::move(*parsed)]() mutable {
                    // Packets inside the RX pipeline when the stack crashed
                    // die with it.
                    if (epoch != crash_epoch_) {
                      return;
                    }
                    ProcessPacket(std::move(pkt));
                  });
}

void RoceStack::ProcessPacket(RocePacket pkt) {
  const Qpn qpn = pkt.bth.dest_qp;
  if (!QpConnected(qpn)) {
    const auto tomb = stale_qps_.find(qpn);
    // Epoch fence: the QP existed before this stack crashed. The peer that
    // sent this never saw the crash — answer requests with a semantic NAK
    // carrying the new memory-region epoch instead of letting them silently
    // miss (or, worse, hit re-registered memory). ACK-class packets (incl.
    // stale-epoch NAKs from a peer that also crashed) are never answered:
    // fencing an ACK buys nothing and two restarted peers must not NAK each
    // other forever.
    if (tomb != stale_qps_.end() && pkt.bth.opcode != IbOpcode::kAck) {
      ++counters_.tx_stale_naks;
      RocePacket nak;
      nak.src_ip = local_ip_;
      nak.dst_ip = tomb->second.remote_ip;
      nak.bth.opcode = IbOpcode::kAck;
      nak.bth.dest_qp = tomb->second.remote_qpn;
      nak.bth.psn = pkt.bth.psn;
      AethHeader aeth;
      aeth.syndrome = AckSyndrome::kNakStaleEpoch;
      aeth.msn = uint32_t(mr_epoch_) & 0xFFFFFF;
      nak.aeth = aeth;
      nak.trace = pkt.trace;
      SendControlPacket(std::move(nak));
      return;
    }
    ++counters_.unknown_qp_drops;
    return;
  }
  if (state_table_.Entry(qpn).phase == QpPhase::kError) {
    // An errored QP neither responds nor accepts: everything is dropped
    // until ResetQp + ConnectQp re-establish it.
    ++counters_.qp_error_drops;
    return;
  }
  // Congestion signaling happens before opcode dispatch so both directions
  // participate: a CE mark on *any* packet (request or response stream) is
  // echoed in the BECN bit of this QP's next transmission, and a BECN on any
  // packet is this stack's CNP.
  if (pkt.ecn_ce) {
    ++counters_.rx_ecn_ce;
    Qp(qpn).ce_to_echo = true;
    Report(ProbeKind::kCe, qpn);
  }
  if (pkt.bth.becn) {
    ++counters_.rx_cnp;
    OnCnp(qpn);
    if (probe_->on()) {
      const QpState::Dcqcn& cc = Qp(qpn).cc;
      probe_->Emit({.kind = ProbeKind::kCnp, .opcode = uint8_t(pkt.bth.opcode),
                    .src = host_index_, .qpn = qpn, .psn = pkt.bth.psn,
                    .aux = uint32_t(uint64_t(cc.rate_bps) >> 20), .t = sim_.now(),
                    .rate_bps = cc.rate_bps, .alpha = cc.alpha});
    }
  }
  switch (pkt.bth.opcode) {
    case IbOpcode::kAck:
      HandleAck(pkt);
      return;
    case IbOpcode::kReadRespFirst:
    case IbOpcode::kReadRespMiddle:
    case IbOpcode::kReadRespLast:
    case IbOpcode::kReadRespOnly:
      HandleReadResponse(pkt);
      return;
    default:
      HandleResponderPacket(pkt);
      return;
  }
}

void RoceStack::HandleResponderPacket(const RocePacket& pkt) {
  const Qpn qpn = pkt.bth.dest_qp;
  StateTableEntry& st = state_table_.Entry(qpn);

  const PsnCheck check = state_table_.CheckRequestPsn(qpn, pkt.bth.psn);
  if (check == PsnCheck::kInvalid) {
    ++counters_.psn_out_of_order_drops;
    if (st.nak_armed) {
      st.nak_armed = false;
      QpState& qp = Qp(qpn);
      RocePacket nak;
      nak.src_ip = local_ip_;
      nak.dst_ip = qp.remote_ip;
      nak.bth.opcode = IbOpcode::kAck;
      nak.bth.dest_qp = qp.remote_qpn;
      nak.bth.psn = st.epsn;  // the PSN we expect: retransmit from here
      AethHeader aeth;
      aeth.syndrome = AckSyndrome::kNakSequenceError;
      aeth.msn = msn_table_.Entry(qpn).msn;
      nak.aeth = aeth;
      nak.trace = pkt.trace;
      SendControlPacket(std::move(nak));
    }
    return;
  }
  if (check == PsnCheck::kDuplicate) {
    ++counters_.duplicate_psn_packets;
    if (OpcodeIsWriteLike(pkt.bth.opcode)) {
      // Re-ACK so a requester whose ACK was lost can make progress.
      SendAck(qpn, pkt.bth.psn, AckSyndrome::kAck, pkt.trace);
    } else if (pkt.bth.opcode == IbOpcode::kReadRequest) {
      HandleReadRequest(pkt);  // reads are idempotent: re-execute
    }
    return;
  }

  // Expected PSN: consume it.
  st.nak_armed = true;
  const Psn prev_epsn = st.epsn;
  if (pkt.bth.opcode == IbOpcode::kReadRequest) {
    STROM_CHECK(pkt.reth.has_value());
    st.epsn = PsnAdd(st.epsn, config_.PacketsForLength(pkt.reth->dma_length));
    AuditEpsnAdvance(qpn, prev_epsn, st.epsn);
    HandleReadRequest(pkt);
    return;
  }
  st.epsn = PsnAdd(st.epsn, 1);
  AuditEpsnAdvance(qpn, prev_epsn, st.epsn);

  if (OpcodeIsStrom(pkt.bth.opcode)) {
    HandleRpc(pkt);
    return;
  }
  HandleWritePayload(pkt);
}

void RoceStack::HandleWritePayload(const RocePacket& pkt) {
  const Qpn qpn = pkt.bth.dest_qp;
  MsnTableEntry& msn = msn_table_.Entry(qpn);
  counters_.rx_payload_bytes += pkt.payload.size();

  const IbOpcode op = pkt.bth.opcode;
  if (op == IbOpcode::kWriteFirst || op == IbOpcode::kWriteOnly) {
    STROM_CHECK(pkt.reth.has_value());
    msn.dma_addr = pkt.reth->virt_addr;
    msn.bytes_remaining = pkt.reth->dma_length;
    msn.in_message = op == IbOpcode::kWriteFirst;
  }
  const VirtAddr target = msn.dma_addr;
  msn.dma_addr += pkt.payload.size();
  msn.bytes_remaining -= std::min<uint64_t>(msn.bytes_remaining, pkt.payload.size());

  const bool ends = OpcodeEndsMessage(op);
  if (!pkt.payload.empty()) {
    Status wst = dma_.Write(target, pkt.payload, nullptr, pkt.trace);
    if (!wst.ok()) {
      // The host write was rejected: nothing was placed, so ACKing would
      // falsely promise the data landed. Surface a fatal NAK instead —
      // retransmission cannot repair a failing DMA path.
      SendAck(qpn, pkt.bth.psn, AckSyndrome::kNakRemoteOperationalError, pkt.trace);
      return;
    }
  }
  if (stream_tap_) {
    stream_tap_(qpn, pkt.payload, ends);
  }
  if (ends) {
    msn.in_message = false;
    ++msn.msn;
  }
  if (ends || pkt.bth.ack_request) {
    SendAck(qpn, pkt.bth.psn, AckSyndrome::kAck, pkt.trace);
  }
}

void RoceStack::HandleReadRequest(const RocePacket& pkt) {
  STROM_CHECK(pkt.reth.has_value());
  // The responder streams the data back with the PSNs the requester
  // pre-calculated (paper §5.1 explains this constraint of read semantics).
  auto response = std::make_shared<PendingWr>();
  response->is_read_response = true;
  response->req.kind = WorkRequest::Kind::kWrite;  // payload-from-memory path
  response->req.qpn = pkt.bth.dest_qp;
  response->req.local_addr = pkt.reth->virt_addr;
  response->req.length = pkt.reth->dma_length;
  response->req.trace = pkt.trace;
  response->posted_at = sim_.now();
  response->first_psn = pkt.bth.psn;
  response->send_pkts = config_.PacketsForLength(pkt.reth->dma_length);
  response->psn_span = response->send_pkts;
  response->last_psn = PsnAdd(response->first_psn, response->psn_span - 1);
  wr_queue_.push_back(std::move(response));
  PumpTx();
}

void RoceStack::HandleRpc(const RocePacket& pkt) {
  const Qpn qpn = pkt.bth.dest_qp;
  MsnTableEntry& msn = msn_table_.Entry(qpn);
  counters_.rx_payload_bytes += pkt.payload.size();

  RpcDelivery delivery;
  delivery.qpn = qpn;
  delivery.payload = pkt.payload;
  delivery.trace = pkt.trace;

  const IbOpcode op = pkt.bth.opcode;
  if (op == IbOpcode::kRpcParams) {
    STROM_CHECK(pkt.reth.has_value());
    delivery.rpc_opcode = static_cast<uint32_t>(pkt.reth->virt_addr);
    delivery.is_params = true;
    delivery.message_length = pkt.reth->dma_length;
  } else {
    if (op == IbOpcode::kRpcWriteFirst || op == IbOpcode::kRpcWriteOnly) {
      STROM_CHECK(pkt.reth.has_value());
      msn.rpc_opcode = static_cast<uint32_t>(pkt.reth->virt_addr);
      msn.rpc_in_flight = true;
      delivery.message_length = pkt.reth->dma_length;
    }
    delivery.rpc_opcode = msn.rpc_opcode;
    delivery.first = OpcodeStartsMessage(op);
    delivery.last = OpcodeEndsMessage(op);
  }

  const bool ends = OpcodeEndsMessage(op);
  if (ends) {
    msn.rpc_in_flight = false;
    ++msn.msn;
  }

  const bool matched = rpc_handler_ && rpc_handler_(std::move(delivery));
  if (matched) {
    ++counters_.rpc_dispatched;
    if (ends || pkt.bth.ack_request) {
      SendAck(qpn, pkt.bth.psn, AckSyndrome::kAck, pkt.trace);
    }
  } else {
    // No deployed kernel matched the RPC op-code: report an error to the
    // requesting node (paper §5.1).
    ++counters_.rpc_unmatched;
    SendAck(qpn, pkt.bth.psn, AckSyndrome::kNakInvalidRequest, pkt.trace);
  }
}

void RoceStack::SendAck(Qpn local_qpn, Psn psn, AckSyndrome syndrome, TraceContext trace) {
  QpState& qp = Qp(local_qpn);
  RocePacket ack;
  ack.src_ip = local_ip_;
  ack.dst_ip = qp.remote_ip;
  ack.bth.opcode = IbOpcode::kAck;
  ack.bth.dest_qp = qp.remote_qpn;
  ack.bth.psn = psn;
  if (qp.ce_to_echo) {
    ack.bth.becn = true;
    qp.ce_to_echo = false;
    ++counters_.tx_becn;
    Report(ProbeKind::kBecnTx, local_qpn);
  }
  ack.trace = trace;
  AethHeader aeth;
  aeth.syndrome = syndrome;
  aeth.msn = msn_table_.Entry(local_qpn).msn;
  ack.aeth = aeth;
  SendControlPacket(std::move(ack));
}

// ---------------------------------------------------------------------------
// Requester-side response handling
// ---------------------------------------------------------------------------

void RoceStack::AdvanceCumulativeAck(Qpn qpn, Psn acked_psn) {
  QpState& qp = Qp(qpn);
  StateTableEntry& st = state_table_.Entry(qpn);
  qp.consecutive_retries = 0;  // any ACK/NAK is proof of responder life

  while (!qp.outstanding.empty() &&
         PsnDistance(qp.outstanding.front().psn, acked_psn) >= 0) {
    qp.outstanding.pop_front();
  }
  const Psn prev_oldest = st.oldest_unacked;
  if (PsnDistance(st.oldest_unacked, PsnAdd(acked_psn, 1)) > 0) {
    st.oldest_unacked = PsnAdd(acked_psn, 1);
  }
  if (auditor_ != nullptr) {
    // Cumulative-ACK window may only move forward; a regression means the
    // go-back-N bookkeeping re-opened already-acknowledged PSNs.
    auditor_->NoteCheck();
    if (PsnDistance(prev_oldest, st.oldest_unacked) < 0) {
      auditor_->Violation("host" + std::to_string(host_index_) + " qp" +
                          std::to_string(qpn) + " oldest_unacked regressed: " +
                          std::to_string(prev_oldest) + " -> " +
                          std::to_string(st.oldest_unacked));
    }
  }

  // Complete fully-sent, fully-acked writes and RPCs in order.
  while (!qp.awaiting_ack.empty()) {
    const WrPtr& wr = qp.awaiting_ack.front();
    if (PsnDistance(wr->last_psn, acked_psn) < 0) {
      break;
    }
    CompleteWr(wr, Status::Ok());
    qp.awaiting_ack.pop_front();
  }

  // The timer must stay armed while reads are pending even if every request
  // descriptor has been retired: their response streams can still be lost.
  if (qp.outstanding.empty() && multi_queue_.Empty(qpn)) {
    timer_.Cancel(qpn);
  } else {
    timer_.Arm(qpn);  // progress: reset timeout and backoff
  }
}

void RoceStack::HandleAck(const RocePacket& pkt) {
  STROM_CHECK(pkt.aeth.has_value());
  const Qpn qpn = pkt.bth.dest_qp;
  ++counters_.rx_acks;

  switch (pkt.aeth->syndrome) {
    case AckSyndrome::kAck:
      AdvanceCumulativeAck(qpn, pkt.bth.psn);
      return;
    case AckSyndrome::kNakSequenceError:
      ++counters_.rx_naks;
      // The BTH PSN of the NAK is the responder's ePSN: everything before it
      // arrived; retransmit from there.
      AdvanceCumulativeAck(qpn, PsnAdd(pkt.bth.psn, kPsnMask));  // psn-1
      RetransmitFrom(qpn, pkt.bth.psn);
      return;
    case AckSyndrome::kNakInvalidRequest: {
      ++counters_.rx_naks;
      // Unmatched RPC op-code (or bad request): fail the message covering
      // this PSN *before* the cumulative advance would complete it as OK
      // (CompleteWr is idempotent, so the advance below is then a no-op for
      // the failed request).
      QpState& qp = Qp(qpn);
      for (const WrPtr& wr : qp.awaiting_ack) {
        if (PsnDistance(wr->first_psn, pkt.bth.psn) >= 0 &&
            PsnDistance(pkt.bth.psn, wr->last_psn) >= 0) {
          CompleteWr(wr, InvalidArgumentError("remote NAK: invalid request / unmatched RPC"));
        }
      }
      AdvanceCumulativeAck(qpn, pkt.bth.psn);
      return;
    }
    case AckSyndrome::kNakRemoteOperationalError:
      ++counters_.rx_naks;
      ++counters_.rx_operational_errors;
      // The responder could not execute the operation (its DMA path failed).
      // Fatal for the connection: no retransmission can repair it.
      ErrorQp(qpn, InternalError("remote NAK: responder operational error"));
      return;
    case AckSyndrome::kNakStaleEpoch:
      ++counters_.rx_naks;
      ++counters_.rx_stale_naks;
      // The peer crashed and restarted: our QP pair and any memory
      // registrations we hold are from a dead epoch. Fence immediately —
      // retransmitting can only draw the same NAK. Liveness-driven
      // reconnection (ResetQp + ConnectQp with fresh PSNs) recovers the pair.
      ErrorQp(qpn, FailedPreconditionError("remote NAK: stale epoch (peer restarted)"));
      return;
    default:
      ++counters_.rx_naks;
      return;
  }
}

void RoceStack::HandleReadResponse(const RocePacket& pkt) {
  const Qpn qpn = pkt.bth.dest_qp;
  QpState& qp = Qp(qpn);
  if (multi_queue_.Empty(qpn)) {
    ++counters_.duplicate_psn_packets;  // stale response after completion
    return;
  }
  ReadContext& ctx = multi_queue_.Head(qpn);
  const int32_t idx = PsnDistance(ctx.first_psn, pkt.bth.psn);
  const uint32_t expected_idx = ctx.bytes_placed / pmtu_payload_;
  if (idx < 0 || static_cast<uint32_t>(idx) != expected_idx) {
    // Gap or duplicate within the response stream; drop and let the
    // retransmission timer re-issue the read request.
    STROM_LOG(kDebug) << "read-resp drop psn=" << pkt.bth.psn << " idx=" << idx
                      << " expected=" << expected_idx << " placed=" << ctx.bytes_placed;
    ++counters_.psn_out_of_order_drops;
    return;
  }

  qp.consecutive_retries = 0;  // response data is forward progress
  counters_.rx_payload_bytes += pkt.payload.size();
  const VirtAddr target = ctx.local_addr + ctx.bytes_placed;
  ctx.bytes_placed += static_cast<uint32_t>(pkt.payload.size());
  const bool last = OpcodeEndsMessage(pkt.bth.opcode);
  if (!last) {
    // Response data streaming in is progress: restart the retransmission
    // timer so a long response (many packets queued behind other reads)
    // does not spuriously time out mid-stream.
    timer_.Arm(qpn);
  }

  // Locate the read-request WR for completion before popping state.
  WrPtr read_wr;
  if (last) {
    auto pending_it = pending_reads_.find(ctx.wr_id);
    if (pending_it != pending_reads_.end()) {
      read_wr = pending_it->second;
      pending_reads_.erase(pending_it);
    }
    STROM_CHECK_EQ(ctx.bytes_placed, ctx.length);
    multi_queue_.PopHead(qpn);
    // Drop the request descriptor: the read is complete.
    std::erase_if(qp.outstanding, [&](const OutstandingPacket& d) {
      return d.opcode == IbOpcode::kReadRequest && d.psn == ctx.first_psn;
    });
    // Implicit ack: response proves the request arrived.
    if (qp.outstanding.empty() && multi_queue_.Empty(qpn)) {
      timer_.Cancel(qpn);
    } else {
      timer_.Arm(qpn);
    }
  }

  if (!pkt.payload.empty()) {
    Status wst = dma_.Write(target, pkt.payload, [this, read_wr, last](Status st) {
      if (last && read_wr) {
        CompleteWr(read_wr, st);
      }
      PumpTx();  // multi-queue slot freed: retry blocked reads
    }, pkt.trace);
    if (!wst.ok()) {
      // Local DMA rejected the response data: the read cannot complete and
      // the placement stream is now broken — fatal for the QP.
      if (read_wr) {
        CompleteWr(read_wr, wst);
      }
      ErrorQp(qpn, wst);
      return;
    }
  } else if (last && read_wr) {
    CompleteWr(read_wr, Status::Ok());
  }
}

// ---------------------------------------------------------------------------
// Reliability
// ---------------------------------------------------------------------------

void RoceStack::AuditEpsnAdvance(Qpn qpn, Psn prev_epsn, Psn new_epsn) {
  if (auditor_ == nullptr) {
    return;
  }
  auditor_->NoteCheck();
  if (PsnDistance(prev_epsn, new_epsn) <= 0) {
    auditor_->Violation("host" + std::to_string(host_index_) + " qp" +
                        std::to_string(qpn) + " epsn did not advance: " +
                        std::to_string(prev_epsn) + " -> " + std::to_string(new_epsn));
  }
}

void RoceStack::RetransmitFrom(Qpn qpn, Psn psn) {
  QpState& qp = Qp(qpn);
  retransmit_queue_.clear();
  retransmit_payload_.reset();
  ++retransmit_epoch_;
  for (const OutstandingPacket& desc : qp.outstanding) {
    if (PsnDistance(psn, desc.psn) >= 0) {
      retransmit_queue_.push_back(desc);
    }
  }
  Report(ProbeKind::kRetransmit, qpn, psn, uint32_t(retransmit_queue_.size()));
  if (!retransmit_queue_.empty()) {
    timer_.RearmBackoff(qpn);
  }
  PumpTx();
}

void RoceStack::OnTimeout(Qpn qpn) {
  QpState& qp = Qp(qpn);
  const bool reads_pending = !multi_queue_.Empty(qpn);
  if (qp.outstanding.empty() && !reads_pending) {
    return;
  }
  ++counters_.timeouts;
  Report(ProbeKind::kTimeout, qpn, state_table_.Entry(qpn).oldest_unacked,
         qp.consecutive_retries + 1);
  if (++qp.consecutive_retries > config_.retry_limit) {
    ErrorQp(qpn, UnavailableError("retry budget exhausted (" +
                                  std::to_string(config_.retry_limit) +
                                  " consecutive timeouts)"));
    return;
  }
  // For reads that timed out mid-response, rewind placement progress: the
  // responder will re-send the whole response.
  if (reads_pending) {
    multi_queue_.Head(qpn).bytes_placed = 0;
  }

  if (qp.outstanding.empty()) {
    // The head read's request descriptor was retired by a later cumulative
    // ACK, but its response stream was lost: re-issue the read request.
    ReadContext& ctx = multi_queue_.Head(qpn);
    auto it = pending_reads_.find(ctx.wr_id);
    if (it == pending_reads_.end()) {
      return;
    }
    OutstandingPacket desc;
    desc.psn = ctx.first_psn;
    desc.opcode = IbOpcode::kReadRequest;
    desc.remote_addr = it->second->req.remote_addr;
    desc.len = ctx.length;
    desc.wr = it->second;
    retransmit_queue_.clear();
    retransmit_payload_.reset();
    ++retransmit_epoch_;
    retransmit_queue_.push_back(std::move(desc));
    timer_.RearmBackoff(qpn);
    PumpTx();
    return;
  }
  RetransmitFrom(qpn, state_table_.Entry(qpn).oldest_unacked);
}

// ---------------------------------------------------------------------------
// Error state machine
// ---------------------------------------------------------------------------

void RoceStack::FlushQp(Qpn qpn, const Status& status) {
  QpState& qp = Qp(qpn);
  timer_.Cancel(qpn);

  // TX engine: any retransmit state or queued message belonging to this QP
  // must not reach the wire.
  retransmit_payload_.reset();
  ++retransmit_epoch_;  // orphan in-flight retransmit payload fetches
  std::erase_if(retransmit_queue_,
                [&](const OutstandingPacket& d) { return d.wr->req.qpn == qpn; });
  for (auto it = wr_queue_.begin(); it != wr_queue_.end();) {
    const WrPtr& wr = *it;
    if (wr->req.qpn != qpn) {
      ++it;
      continue;
    }
    if (!wr->is_read_response && !wr->completed) {
      ++counters_.wrs_flushed;
      CompleteWr(wr, status);
    }
    it = wr_queue_.erase(it);
  }
  fetch_cursor_ = 0;  // conservatively rescan after mid-queue erasures

  qp.outstanding.clear();
  for (const WrPtr& wr : qp.awaiting_ack) {
    if (!wr->completed) {
      ++counters_.wrs_flushed;
      CompleteWr(wr, status);
    }
  }
  qp.awaiting_ack.clear();

  // Outstanding reads: drain this QP's multi-queue contexts and complete
  // their work requests in error.
  while (!multi_queue_.Empty(qpn)) {
    const uint64_t token = multi_queue_.Head(qpn).wr_id;
    multi_queue_.PopHead(qpn);
    auto it = pending_reads_.find(token);
    if (it != pending_reads_.end()) {
      WrPtr wr = it->second;
      pending_reads_.erase(it);
      if (!wr->completed) {
        ++counters_.wrs_flushed;
        CompleteWr(wr, status);
      }
    }
  }
  qp.consecutive_retries = 0;
  PumpTx();  // other QPs' traffic continues
}

void RoceStack::ErrorQp(Qpn qpn, const Status& status) {
  if (!QpConnected(qpn)) {
    return;
  }
  StateTableEntry& st = state_table_.Entry(qpn);
  if (st.phase == QpPhase::kError) {
    return;
  }
  st.phase = QpPhase::kError;
  ++counters_.qp_errors;
  Report(ProbeKind::kQpState, qpn, st.oldest_unacked, /*aux=*/1);  // -> Error
  STROM_LOG(kWarning) << "QP " << qpn << " -> Error: " << status;
  FlushQp(qpn, status);
  if (qp_error_handler_) {
    qp_error_handler_(qpn, status);
  }
}

Status RoceStack::ResetQp(Qpn qpn) {
  if (!QpConnected(qpn)) {
    // Idempotent: a crash already wiped this QP (stale_qps_ tombstone), or it
    // was never connected. Either way the post-reset state is what the
    // caller wants, and the reconnect path must not fail on it.
    return Status::Ok();
  }
  ++counters_.qp_resets;
  Report(ProbeKind::kQpState, qpn, state_table_.Entry(qpn).oldest_unacked, /*aux=*/0);
  FlushQp(qpn, UnavailableError("QP reset"));
  state_table_.Deactivate(qpn);
  msn_table_.Entry(qpn) = MsnTableEntry{};
  qps_[qpn] = QpState{};
  return Status::Ok();
}

void RoceStack::Crash() {
  ++counters_.crashes;
  in_crash_ = true;
  // Census the timers armed at the crash instant, then mass-cancel: the
  // timer slab must never fire a callback into wiped QP state. The count is
  // exported as roce.timers_cancelled_at_crash.
  std::vector<Qpn> connected;
  qps_.ForEach([&connected](Qpn qpn, const QpState& qp) {
    if (qp.connected) {
      connected.push_back(qpn);
    }
  });
  // QpnMap iterates in probe-slot order; sort so the flush (and the user
  // completions it fires) runs in QPN order.
  std::sort(connected.begin(), connected.end());
  for (Qpn qpn : connected) {
    if (timer_.IsArmed(qpn)) {
      ++counters_.timers_cancelled_at_crash;
    }
  }
  if (sim_.TimerPending(pacing_timer_)) {
    ++counters_.timers_cancelled_at_crash;
  }
  if (sim_.TimerPending(pause_timer_)) {
    ++counters_.timers_cancelled_at_crash;
  }
  // Fail-fast gate before flushing: completion callbacks fired by the flush
  // may try to post follow-up work, which must be rejected with an errored
  // completion (exactly one terminal state), not queued into the corpse.
  for (Qpn qpn : connected) {
    state_table_.Entry(qpn).phase = QpPhase::kError;
  }
  const Status crashed = UnavailableError("local crash");
  for (Qpn qpn : connected) {
    FlushQp(qpn, crashed);  // cancels the QP's retransmission timer too
    // Tombstone for epoch fencing, then wipe the pair completely.
    QpState& qp = qps_[qpn];
    stale_qps_[qpn] = StaleQp{qp.remote_qpn, qp.remote_ip};
    state_table_.Deactivate(qpn);
    msn_table_.Entry(qpn) = MsnTableEntry{};
    qps_[qpn] = QpState{};
  }
  // TX engine: everything still queued dies with the NIC. FlushQp erased the
  // requester-side entries per QP; read responses being produced for remote
  // requesters go down with the ship here.
  wr_queue_.clear();
  control_queue_.clear();
  retransmit_queue_.clear();
  retransmit_payload_.reset();
  ++retransmit_epoch_;
  retransmit_fetch_pending_ = false;
  fetches_in_flight_ = 0;  // their DMA completions are crash-fenced no-ops
  fetch_cursor_ = 0;
  sim_.Cancel(pacing_timer_);  // handles stay valid for post-restart re-arm
  sim_.Cancel(pause_timer_);
  pacing_wakeup_at_ = 0;
  paused_until_ = 0;
  tx_busy_ = false;
  rx_order_cursor_ = 0;
  tx_order_cursor_ = 0;
  ++crash_epoch_;  // orphan TX/RX pipeline events born before the crash
  ++mr_epoch_;     // post-restart registrations are a new epoch
  in_crash_ = false;
}

// ---------------------------------------------------------------------------
// Congestion control: DCQCN-style rate limiting + 802.3x pause
// ---------------------------------------------------------------------------

void RoceStack::OnCnp(Qpn qpn) {
  if (!config_.dcqcn.enable) {
    return;  // counted, but inert without the rate machine
  }
  QpState::Dcqcn& cc = Qp(qpn).cc;
  const double line = config_.LineRateBps();
  if (cc.rate_bps <= 0) {
    cc.rate_bps = line;
  }
  // Every CNP raises the congestion estimate; the multiplicative cut itself
  // is held off to once per rate_cut_interval (DCQCN's CNP timer).
  const double g = config_.dcqcn.alpha_gain;
  cc.alpha = (1.0 - g) * cc.alpha + g;
  if (cc.last_cut != 0 && sim_.now() - cc.last_cut < config_.dcqcn.rate_cut_interval) {
    return;
  }
  const double floor = line * config_.dcqcn.min_rate_fraction;
  cc.rate_bps = std::max(floor, cc.rate_bps * (1.0 - cc.alpha / 2.0));
  cc.last_cut = sim_.now();
  cc.last_increase = sim_.now();  // recovery restarts from the cut
  ++counters_.dcqcn_rate_cuts;
  if (probe_->on()) {
    probe_->Emit({.kind = ProbeKind::kRateCut, .src = host_index_, .qpn = qpn,
                  .t = sim_.now(), .rate_bps = cc.rate_bps, .alpha = cc.alpha});
  }
}

void RoceStack::MaybeRecoverRate(Qpn qpn, QpState::Dcqcn& cc) {
  const double line = config_.LineRateBps();
  if (cc.rate_bps <= 0 || cc.rate_bps >= line) {
    return;  // uninitialized or already at line rate: nothing to recover
  }
  if (cc.last_increase == 0) {
    cc.last_increase = sim_.now();
    return;
  }
  const double g = config_.dcqcn.alpha_gain;
  bool increased = false;
  while (sim_.now() - cc.last_increase >= config_.dcqcn.increase_interval) {
    cc.last_increase += config_.dcqcn.increase_interval;
    cc.rate_bps += config_.dcqcn.additive_increase_fraction * line;
    cc.alpha *= (1.0 - g);
    ++counters_.dcqcn_rate_increases;
    increased = true;
    if (cc.rate_bps >= line) {
      cc.rate_bps = line;
      break;
    }
  }
  // One timeline event per recovery batch keeps the sampled DCQCN timeline
  // proportional to sim time rather than to the pump-scan rate.
  if (increased && probe_->on()) {
    probe_->Emit({.kind = ProbeKind::kRateIncrease, .src = host_index_, .qpn = qpn,
                  .t = sim_.now(), .rate_bps = cc.rate_bps, .alpha = cc.alpha});
  }
}

void RoceStack::ChargePacing(QpState& qp, size_t wire_bytes) {
  QpState::Dcqcn& cc = qp.cc;
  const double line = config_.LineRateBps();
  if (cc.rate_bps <= 0) {
    cc.rate_bps = line;
  }
  if (cc.rate_bps >= line) {
    // At full line rate the TX serializer already enforces the spacing;
    // charging here too would double-count and halve throughput.
    cc.next_allowed = 0;
    return;
  }
  const SimTime spacing =
      static_cast<SimTime>(double(wire_bytes) * 8.0 * 1e12 / cc.rate_bps);
  cc.next_allowed = std::max(cc.next_allowed, sim_.now()) + spacing;
}

void RoceStack::Pause(uint16_t quanta) {
  if (quanta == 0) {
    // Explicit resume (xon).
    paused_until_ = sim_.now();
    PumpTx();
    return;
  }
  ++counters_.pfc_pause_events;
  // 802.3x: pause time is expressed in units of 512 bit-times at line rate.
  const SimTime until =
      sim_.now() +
      static_cast<SimTime>(double(quanta) * 512.0 * 1e12 / config_.LineRateBps());
  if (until > paused_until_) {
    paused_until_ = until;
    // Extending a pause moves the single resume wake to the new deadline;
    // the superseded earlier wake would have found paused_until_ still in
    // the future and pumped nothing.
    if (pause_timer_.valid()) {
      sim_.RescheduleAt(pause_timer_, until);
    } else {
      pause_timer_ = sim_.ScheduleCancellableAt(until, [this] { PumpTx(); });
    }
  }
}

}  // namespace strom
