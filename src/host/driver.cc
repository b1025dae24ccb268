#include "src/host/driver.h"

#include <algorithm>
#include <coroutine>
#include <memory>
#include <utility>

#include "src/common/logging.h"

namespace strom {

RoceDriver::RoceDriver(Simulator& sim, HostMemory& memory, Tlb& tlb, Controller& controller,
                       DriverConfig config)
    : sim_(sim), memory_(memory), tlb_(tlb), controller_(controller), config_(config) {}

void RoceDriver::AttachTelemetry(Telemetry* telemetry, const std::string& process) {
  tracer_ = &telemetry->tracer;
  track_ = tracer_->RegisterTrack(process, "verbs");
}

void RoceDriver::BeginTrace(WorkRequest& wr, const char* verb) {
  if (tracer_ == nullptr) {
    return;
  }
  wr.trace = tracer_->StartTrace();
  if (!wr.trace.sampled()) {
    return;
  }
  const SimTime posted = sim_.now();
  wr.on_complete = [this, trace = wr.trace, verb, posted,
                    inner = std::move(wr.on_complete)](Status st) {
    tracer_->Span(trace, track_, verb, posted, sim_.now());
    if (inner) {
      inner(st);
    }
  };
}

Result<RdmaBuffer> RoceDriver::AllocBuffer(uint64_t size) {
  if (size == 0) {
    return InvalidArgumentError("zero-size buffer");
  }
  const uint64_t pages = (size + kHugePageSize - 1) / kHugePageSize;
  const VirtAddr base = next_va_;
  for (uint64_t i = 0; i < pages; ++i) {
    const PhysAddr phys = memory_.AllocPage();
    STROM_RETURN_IF_ERROR(tlb_.Map(base + i * kHugePageSize, phys));
  }
  next_va_ = base + pages * kHugePageSize;
  return RdmaBuffer{base, size};
}

Status RoceDriver::WriteHost(VirtAddr addr, ByteSpan data) {
  uint64_t done = 0;
  while (done < data.size()) {
    Result<PhysAddr> phys = tlb_.Translate(addr + done);
    if (!phys.ok()) {
      return phys.status();
    }
    const uint64_t chunk =
        std::min<uint64_t>(data.size() - done, kHugePageSize - HugePageOffset(addr + done));
    memory_.Write(*phys, data.subspan(done, chunk));
    done += chunk;
  }
  return Status::Ok();
}

Result<ByteBuffer> RoceDriver::ReadHost(VirtAddr addr, uint64_t len) const {
  ByteBuffer out(len);
  uint64_t done = 0;
  while (done < len) {
    Result<PhysAddr> phys = tlb_.Translate(addr + done);
    if (!phys.ok()) {
      return phys.status();
    }
    const uint64_t chunk = std::min<uint64_t>(len - done, kHugePageSize - HugePageOffset(addr + done));
    memory_.Read(*phys, MutableByteSpan(out.data() + done, chunk));
    done += chunk;
  }
  return out;
}

uint64_t RoceDriver::ReadHostU64(VirtAddr addr) const {
  // Polling path (PollU64 re-reads on every wake): one translate, one
  // in-place page read, no buffer. Words straddling a page take the general
  // path.
  if (HugePageOffset(addr) + 8 <= kHugePageSize) {
    Result<PhysAddr> phys = tlb_.Translate(addr);
    STROM_CHECK(phys.ok()) << phys.status();
    return memory_.ReadU64(*phys);
  }
  Result<ByteBuffer> data = ReadHost(addr, 8);
  STROM_CHECK(data.ok()) << data.status();
  return LoadLe64(data->data());
}

void RoceDriver::WriteHostU64(VirtAddr addr, uint64_t value) {
  uint8_t buf[8];
  StoreLe64(buf, value);
  Status st = WriteHost(addr, ByteSpan(buf, 8));
  STROM_CHECK(st.ok()) << st;
}

void RoceDriver::FillHost(VirtAddr addr, uint64_t len, uint8_t value) {
  ByteBuffer chunk(std::min<uint64_t>(len, kHugePageSize), value);
  uint64_t done = 0;
  while (done < len) {
    const uint64_t n = std::min<uint64_t>(len - done, chunk.size());
    Status st = WriteHost(addr + done, ByteSpan(chunk.data(), n));
    STROM_CHECK(st.ok()) << st;
    done += n;
  }
}

WorkRequest RoceDriver::MakeRequest(WorkRequest::Kind kind, Qpn qpn, VirtAddr local,
                                    VirtAddr remote, uint32_t length,
                                    std::function<void(Status)> done) {
  WorkRequest wr;
  wr.kind = kind;
  wr.qpn = qpn;
  wr.local_addr = local;
  wr.remote_addr = remote;
  wr.length = length;
  wr.wr_id = next_wr_id_++;
  wr.on_complete = std::move(done);
  return wr;
}

void RoceDriver::PostWrite(Qpn qpn, VirtAddr local, VirtAddr remote, uint32_t length,
                           std::function<void(Status)> done) {
  WorkRequest wr =
      MakeRequest(WorkRequest::Kind::kWrite, qpn, local, remote, length, std::move(done));
  BeginTrace(wr, "write");
  controller_.PostWork(std::move(wr));
}

void RoceDriver::PostRead(Qpn qpn, VirtAddr local, VirtAddr remote, uint32_t length,
                          std::function<void(Status)> done) {
  WorkRequest wr =
      MakeRequest(WorkRequest::Kind::kRead, qpn, local, remote, length, std::move(done));
  BeginTrace(wr, "read");
  controller_.PostWork(std::move(wr));
}

void RoceDriver::PostWriteBatch(Qpn qpn, std::vector<BatchWrite> writes) {
  std::vector<WorkRequest> batch;
  batch.reserve(writes.size());
  for (BatchWrite& w : writes) {
    WorkRequest wr = MakeRequest(WorkRequest::Kind::kWrite, qpn, w.local, w.remote, w.length,
                                 std::move(w.done));
    BeginTrace(wr, "write");
    batch.push_back(std::move(wr));
  }
  controller_.PostWorkBatch(std::move(batch));
}

void RoceDriver::PostRpc(uint32_t rpc_opcode, Qpn qpn, ByteBuffer params,
                         std::function<void(Status)> done) {
  WorkRequest wr = MakeRequest(WorkRequest::Kind::kRpc, qpn, 0, rpc_opcode,
                               static_cast<uint32_t>(params.size()), std::move(done));
  wr.inline_data = std::move(params);
  BeginTrace(wr, "rpc");
  controller_.PostWork(std::move(wr));
}

void RoceDriver::PostRpcWrite(uint32_t rpc_opcode, Qpn qpn, VirtAddr origin, uint32_t length,
                              std::function<void(Status)> done) {
  WorkRequest wr = MakeRequest(WorkRequest::Kind::kRpcWrite, qpn, origin, rpc_opcode, length,
                               std::move(done));
  BeginTrace(wr, "rpc_write");
  controller_.PostWork(std::move(wr));
}

void RoceDriver::PostLocalRpc(uint32_t rpc_opcode, Qpn qpn, ByteBuffer params) {
  TraceContext trace;
  if (tracer_ != nullptr) {
    trace = tracer_->StartTrace();
    if (trace.sampled()) {
      tracer_->Instant(trace, track_, "local_rpc", sim_.now());
    }
  }
  controller_.PostLocalRpc(rpc_opcode, qpn, std::move(params), trace);
}

ValueTask<RoceCounters> RoceDriver::QueryNicCounters() {
  co_await Delay(sim_, controller_.counter_read_cost());
  co_return controller_.ReadNicCounters();
}

namespace {

// Bridges a callback-style post into an awaitable completion.
struct CompletionState {
  SimEvent event;
  Status status;
  explicit CompletionState(Simulator& sim) : event(sim) {}
};

}  // namespace

ValueTask<Status> RoceDriver::Write(Qpn qpn, VirtAddr local, VirtAddr remote, uint32_t length) {
  auto state = std::make_shared<CompletionState>(sim_);
  PostWrite(qpn, local, remote, length, [state](Status st) {
    state->status = st;
    state->event.Trigger();
  });
  co_await state->event.Wait();
  co_return state->status;
}

ValueTask<Status> RoceDriver::Read(Qpn qpn, VirtAddr local, VirtAddr remote, uint32_t length) {
  auto state = std::make_shared<CompletionState>(sim_);
  PostRead(qpn, local, remote, length, [state](Status st) {
    state->status = st;
    state->event.Trigger();
  });
  co_await state->event.Wait();
  co_return state->status;
}

ValueTask<Status> RoceDriver::Rpc(uint32_t rpc_opcode, Qpn qpn, ByteBuffer params) {
  auto state = std::make_shared<CompletionState>(sim_);
  PostRpc(rpc_opcode, qpn, std::move(params), [state](Status st) {
    state->status = st;
    state->event.Trigger();
  });
  co_await state->event.Wait();
  co_return state->status;
}

ValueTask<Status> RoceDriver::RpcWrite(uint32_t rpc_opcode, Qpn qpn, VirtAddr origin,
                                       uint32_t length) {
  auto state = std::make_shared<CompletionState>(sim_);
  PostRpcWrite(rpc_opcode, qpn, origin, length, [state](Status st) {
    state->status = st;
    state->event.Trigger();
  });
  co_await state->event.Wait();
  co_return state->status;
}

namespace {

// Parks a poller on its word until a write overlaps it, then resumes it at
// the first instant of its poll grid at or after the write: the instant a
// host thread re-checking every `interval` since `checked_at` would first
// see it. co_await yields that instant, the new grid origin.
class WordWriteAwaiter {
 public:
  WordWriteAwaiter(Simulator& sim, HostMemory& memory, const Tlb& tlb, VirtAddr addr,
                   SimTime checked_at, SimTime interval)
      : memory_(memory), tlb_(tlb), addr_(addr),
        parked_(std::make_shared<Parked>(sim, checked_at, interval)) {}
  WordWriteAwaiter(const WordWriteAwaiter&) = delete;
  WordWriteAwaiter& operator=(const WordWriteAwaiter&) = delete;
  // A poller destroyed while parked (simulation teardown) turns its watches
  // into no-ops; host memory may already be gone, so they are not removed.
  ~WordWriteAwaiter() { parked_->handle = nullptr; }

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    parked_->handle = h;
    // A word that crosses a page is watched on both physical segments; the
    // first write to either wakes the poller, the other watch is spent.
    SegmentVec segs;
    Status st = tlb_.ResolveInto(addr_, 8, segs);
    STROM_CHECK(st.ok()) << st;
    for (const DmaSegment& seg : segs) {
      memory_.WatchWrite(seg.phys, seg.length, [p = parked_] { p->OnWrite(); });
    }
  }
  SimTime await_resume() const { return parked_->resume_at; }

 private:
  struct Parked {
    Parked(Simulator& s, SimTime at, SimTime every) : sim(s), checked_at(at), interval(every) {}
    void OnWrite() {
      if (!handle) {
        return;
      }
      const SimTime since = sim.now() - checked_at;
      const SimTime ticks = std::max<SimTime>(1, (since + interval - 1) / interval);
      resume_at = checked_at + ticks * interval;
      sim.ScheduleAt(resume_at, [h = std::exchange(handle, nullptr)] { h.resume(); });
    }

    Simulator& sim;
    SimTime checked_at;
    SimTime interval;
    SimTime resume_at = 0;
    std::coroutine_handle<> handle;
  };

  HostMemory& memory_;
  const Tlb& tlb_;
  VirtAddr addr_;
  std::shared_ptr<Parked> parked_;
};

}  // namespace

ValueTask<uint64_t> RoceDriver::PollU64(VirtAddr addr, uint64_t sentinel) {
  // Event-driven spin (DESIGN.md §7): rather than simulating every idle
  // re-check, the poller sleeps until a write lands on its word and wakes on
  // the grid instant its spin loop would have seen it. A write of the
  // sentinel itself only moves the grid origin.
  SimTime checked_at = sim_.now();
  while (true) {
    const uint64_t value = ReadHostU64(addr);
    if (value != sentinel) {
      co_return value;
    }
    checked_at = co_await WordWriteAwaiter(sim_, memory_, tlb_, addr, checked_at,
                                           config_.poll_interval);
  }
}

}  // namespace strom
