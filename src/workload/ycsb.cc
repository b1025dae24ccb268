#include "src/workload/ycsb.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/kernels/traversal.h"
#include "src/sim/task.h"
#include "src/telemetry/flight_recorder.h"
#include "src/testbed/workload.h"

namespace strom {

namespace {

uint32_t RoundUpPow2(uint32_t n) {
  uint32_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

YcsbEngine::YcsbEngine(Fabric& fabric, YcsbConfig config)
    : fabric_(fabric),
      config_(config),
      zipf_(config.sessions_per_host * static_cast<uint64_t>(fabric.num_hosts()),
            config.zipf_theta) {
  hosts_.resize(fabric.num_hosts());
}

YcsbEngine::~YcsbEngine() {
  if (!crash_recovery_) {
    return;
  }
  MetricsRegistry& metrics = fabric_.telemetry().metrics;
  metrics.LatchGauges("ycsb.arrival_timers_cancelled_at_crash");
  for (size_t i = 0; i < liveness_.size(); ++i) {
    metrics.LatchGauges("node" + std::to_string(i) + ".liveness.");
  }
}

void YcsbEngine::Setup() {
  STROM_CHECK(!setup_done_);
  const int n = fabric_.num_hosts();
  const KernelConfig kc{fabric_.profile().roce.clock_ps, fabric_.profile().roce.data_width};
  for (int i = 0; i < n; ++i) {
    Host& h = hosts_[i];
    h.rng = Rng(config_.seed * 0x1000193u + static_cast<uint64_t>(i));
    RoceDriver& drv = fabric_.node(i).driver();
    STROM_CHECK(fabric_.node(i)
                    .engine()
                    .DeployKernel(std::make_unique<TraversalKernel>(
                        fabric_.node(i).sim(), kc))
                    .ok());
    const uint32_t slots = config_.max_outstanding_per_host;
    h.local_buf = drv.AllocBuffer(uint64_t(slots) * config_.value_bytes)->addr;
    h.resp_buf = drv.AllocBuffer(uint64_t(slots) * (config_.value_bytes + 8))->addr;
    h.data_region =
        drv.AllocBuffer(uint64_t(config_.keys_per_server) * config_.value_bytes)->addr;
    STROM_CHECK(
        drv.WriteHost(h.local_buf, RandomBytes(slots * config_.value_bytes, config_.seed + i))
            .ok());
    for (uint32_t s = 0; s < slots; ++s) {
      h.free_slots.push_back(slots - 1 - s);  // pop_back hands out slot 0 first
    }
    h.slots.resize(slots);
    // Large table relative to the key count so chains stay rare (fig08's
    // best-case GET assumption).
    h.table.emplace(*RemoteHashTable::Create(drv, RoundUpPow2(config_.keys_per_server * 4),
                                             config_.value_bytes,
                                             config_.keys_per_server * 2));
    for (uint64_t key = 1; key <= config_.keys_per_server; ++key) {
      STROM_CHECK(h.table->Put(key, config_.seed + 7).ok());
    }
  }
  // One bidirectional QP per unordered host pair and lane. PSNs are offset
  // per lane so every connection starts from a distinct sequence.
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      for (uint32_t k = 0; k < config_.qps_per_peer; ++k) {
        fabric_.ConnectQp(a, QpnFor(b, k), b, QpnFor(a, k),
                          static_cast<Psn>(1000 + k * 10),
                          static_cast<Psn>(5000 + k * 10));
      }
    }
  }
  setup_done_ = true;
}

void YcsbEngine::EnableCrashRecovery(const LivenessConfig& liveness) {
  STROM_CHECK(setup_done_) << "EnableCrashRecovery needs the QP lanes from Setup()";
  STROM_CHECK(!crash_recovery_);
  crash_recovery_ = true;
  if (const char* bug = std::getenv("STROM_CHAOS_BUG");
      bug != nullptr && std::strcmp(bug, "no_fence") == 0) {
    chaos_bug_no_fence_ = true;
  }
  const int n = fabric_.num_hosts();
  pair_incarnation_.assign(size_t(n) * size_t(n), 0);
  for (int i = 0; i < n; ++i) {
    auto monitor =
        std::make_unique<LivenessMonitor>(fabric_.node(i).sim(), i, liveness);
    for (int j = 0; j < n; ++j) {
      if (j == i) {
        continue;
      }
      // The probe models keepalive + response: it succeeds only while both
      // NICs are up (a dead local NIC can't probe; a dead peer can't answer).
      auto probe = [this, i, j] {
        return fabric_.node(i).nic_alive() && fabric_.node(j).nic_alive();
      };
      // The lower-indexed end owns the out-of-band handshake so the two
      // monitors don't re-reset each other's freshly reconnected lanes; the
      // higher-indexed end's lease re-acquire just reopens its posting gate.
      auto reconnect = [this, i, j](int /*attempt*/) {
        if (i > j) {
          return;
        }
        const int a = i;
        const int b = j;
        const uint32_t inc =
            ++pair_incarnation_[size_t(a) * size_t(fabric_.num_hosts()) + size_t(b)];
        for (uint32_t k = 0; k < config_.qps_per_peer; ++k) {
          // Fresh PSN block per incarnation, disjoint from the Setup()
          // ranges, so frames from any previous life land outside the
          // receive window.
          fabric_.ReconnectQp(a, QpnFor(b, k), b, QpnFor(a, k),
                              static_cast<Psn>(10000 + inc * 1000 + k * 10),
                              static_cast<Psn>(500000 + inc * 1000 + k * 10));
        }
      };
      monitor->AddPeer(j, probe, reconnect);
    }
    monitor->AttachTelemetry(&fabric_.telemetry(), "node" + std::to_string(i));
    liveness_.push_back(std::move(monitor));
  }
  fabric_.telemetry().metrics.AddGauge("ycsb.arrival_timers_cancelled_at_crash",
                                       [this] {
                                         uint64_t total = 0;
                                         for (const Host& h : hosts_) {
                                           total += h.shard.arrival_timers_cancelled_at_crash;
                                         }
                                         return double(total);
                                       });
  fabric_.AddCrashListener([this](const FaultEpisode& ep, bool restarted) {
    OnCrashEvent(ep, restarted);
  });
}

void YcsbEngine::OnCrashEvent(const FaultEpisode& ep, bool restarted) {
  if (ep.type == FaultType::kSwitchCrash) {
    // Network-level: sessions ride it out through retransmission; a long
    // outage errors QPs via retry exhaustion, which is itself terminal.
    return;
  }
  const bool host_level = ep.type == FaultType::kHostCrash;
  for (int i = 0; i < fabric_.num_hosts(); ++i) {
    if (!ep.Matches(i)) {
      continue;
    }
    if (restarted) {
      HandleHostRestart(i, host_level);
    } else {
      HandleHostCrash(i, host_level);
    }
  }
}

void YcsbEngine::HandleHostCrash(int index, bool host_level) {
  Host& h = hosts_[index];
  if (host_level) {
    // Host software died: the lease timers, the arrival stream, and the
    // not-yet-posted backlog go with it. Backlog ops reach their terminal
    // state here (errored), matching what a restarted client would report
    // for requests it had accepted but not issued.
    liveness_[index]->OnLocalCrash();
    Simulator& sim = fabric_.node(index).sim();
    if (h.arrival_timer.valid() && sim.TimerPending(h.arrival_timer)) {
      ++h.shard.arrival_timers_cancelled_at_crash;
      sim.Cancel(h.arrival_timer);
    }
    h.shard.ops_failed += h.backlog.size();
    h.backlog.clear();
    h.arrivals_done = true;  // cleared again if the host restarts in-window
  }
  // NIC state is gone either way: responses to this host's in-flight GETs
  // can never arrive (the QPs are tombstoned), and GETs other hosts aimed
  // *at* this node died inside its kernel pipelines. Fence both directions.
  if (chaos_bug_no_fence_) {
    return;
  }
  for (uint32_t s = 0; s < h.slots.size(); ++s) {
    FenceSlot(index, s);
  }
  for (int other = 0; other < fabric_.num_hosts(); ++other) {
    if (other == index) {
      continue;
    }
    Host& o = hosts_[other];
    for (uint32_t s = 0; s < o.slots.size(); ++s) {
      if (o.slots[s].get_pending && o.slots[s].dst == index) {
        FenceSlot(other, s);
      }
    }
  }
}

void YcsbEngine::HandleHostRestart(int index, bool host_level) {
  Host& h = hosts_[index];
  if (!host_level) {
    return;  // NIC-only: the lease machinery notices the probe heal on its own
  }
  liveness_[index]->OnLocalRestart();
  Simulator& sim = fabric_.node(index).sim();
  if (sim.now() < config_.duration) {
    h.arrivals_done = false;
    ScheduleArrival(index);
  }
}

void YcsbEngine::FenceSlot(int host, uint32_t slot) {
  Host& h = hosts_[host];
  SlotInfo& si = h.slots[slot];
  if (!si.get_pending) {
    return;
  }
  // Poke the polled status word with the host-local fence code. The poll
  // coroutine wakes on its next tick and retires the op as fenced-stale —
  // exactly one terminal state even if a straggler response races the poke
  // (whichever write lands first decides the outcome).
  fabric_.node(host).driver().WriteHostU64(
      si.status_addr, MakeStatusWord(KernelStatusCode::kFencedStale, 0));
}

YcsbEngine::Op YcsbEngine::MakeOp(int host) {
  Host& h = hosts_[host];
  Op op;
  if (config_.incast) {
    op.kind = Op::kWrite;
    op.dst = 0;
    const uint64_t mix = MixRank(h.rng.Next());
    op.key = 1 + mix % config_.keys_per_server;
    op.lane = static_cast<uint32_t>((mix >> 40) % config_.qps_per_peer);
    return op;
  }
  const uint64_t rank = zipf_.Next(h.rng);
  const uint64_t mix = MixRank(rank);
  op.dst = static_cast<int>(mix % static_cast<uint64_t>(fabric_.num_hosts()));
  if (op.dst == host) {
    op.dst = (op.dst + 1) % fabric_.num_hosts();
  }
  op.key = 1 + (mix >> 16) % config_.keys_per_server;
  op.lane = static_cast<uint32_t>((mix >> 40) % config_.qps_per_peer);
  const double u = h.rng.NextDouble();
  if (u < config_.read_fraction) {
    op.kind = Op::kRead;
  } else if (u < config_.read_fraction + config_.write_fraction) {
    op.kind = Op::kWrite;
  } else {
    op.kind = Op::kGet;
  }
  return op;
}

void YcsbEngine::ScheduleArrival(int host) {
  Host& h = hosts_[host];
  const double mean_ps = 1e12 / config_.ops_per_host_per_sec;
  const double u = h.rng.NextDouble();
  const SimTime dt =
      std::max<SimTime>(1, static_cast<SimTime>(-std::log(1.0 - u) * mean_ps));
  // One cancellable timer per host carries the whole arrival stream: the
  // callback is installed once and every subsequent arrival just re-arms the
  // deadline, so the steady-state loop allocates nothing per op.
  Simulator& sim = fabric_.node(host).sim();
  if (h.arrival_timer.valid()) {
    sim.Reschedule(h.arrival_timer, dt);
  } else {
    h.arrival_timer =
        sim.ScheduleCancellable(dt, [this, host, &sim] { Arrival(host, sim); });
  }
}

void YcsbEngine::Arrival(int host, Simulator& sim) {
  Host& h = hosts_[host];
  if (sim.now() >= config_.duration) {
    h.arrivals_done = true;
    return;
  }
  Op op = MakeOp(host);
  op.arrival = sim.now();
  ++h.shard.ops_arrived;
  h.backlog.push_back(op);
  Pump(host);
  ScheduleArrival(host);
}

void YcsbEngine::Pump(int host) {
  Host& h = hosts_[host];
  while (h.outstanding < config_.max_outstanding_per_host && !h.backlog.empty()) {
    const Op op = h.backlog.front();
    h.backlog.pop_front();
    // Session-level fast-fail while the peer's lease is expired: the op
    // reaches its terminal state (errored) without burning a posting slot on
    // a QP that is known dead. Re-posting resumes at lease re-acquire.
    if (crash_recovery_ && !liveness_[host]->PeerHealthy(op.dst)) {
      ++h.shard.ops_failed;
      continue;
    }
    Post(host, op);
  }
}

void YcsbEngine::Post(int host, const Op& op) {
  Host& h = hosts_[host];
  STROM_CHECK(!h.free_slots.empty());
  const uint32_t slot = h.free_slots.back();
  h.free_slots.pop_back();
  ++h.outstanding;

  RoceDriver& drv = fabric_.node(host).driver();
  const Qpn qpn = QpnFor(op.dst, op.lane);
  const VirtAddr local = h.local_buf + uint64_t(slot) * config_.value_bytes;
  Host& server = hosts_[op.dst];

  switch (op.kind) {
    case Op::kRead: {
      const VirtAddr remote = server.data_region + (op.key - 1) * config_.value_bytes;
      drv.PostRead(qpn, local, remote, config_.value_bytes,
                   [this, host, op, slot](Status st) {
                     Complete(host, op, slot, st.ok() ? Outcome::kOk : Outcome::kFailed);
                   });
      return;
    }
    case Op::kWrite: {
      const VirtAddr remote = server.data_region + (op.key - 1) * config_.value_bytes;
      drv.PostWrite(qpn, local, remote, config_.value_bytes,
                    [this, host, op, slot](Status st) {
                      Complete(host, op, slot, st.ok() ? Outcome::kOk : Outcome::kFailed);
                    });
      return;
    }
    case Op::kGet: {
      const VirtAddr resp = h.resp_buf + uint64_t(slot) * (config_.value_bytes + 8);
      const VirtAddr status_addr = resp + config_.value_bytes;
      drv.WriteHostU64(status_addr, 0);
      h.slots[slot] = SlotInfo{true, op.dst, status_addr};
      // In crash-recovery mode the RPC post's own completion feeds the fence:
      // a flushed/NAKed parameter send means the kernel never saw the
      // request, so the response will never come — poke the status word
      // instead of polling forever. (Without the callback, a lost response
      // is exactly the hang STROM_CHAOS_BUG=no_fence demonstrates.)
      std::function<void(Status)> on_post;
      if (crash_recovery_ && !chaos_bug_no_fence_) {
        on_post = [this, host, slot](Status st) {
          if (!st.ok()) {
            FenceSlot(host, slot);
          }
        };
      }
      drv.PostRpc(kTraversalRpcOpcode, qpn,
                  server.table->LookupParams(op.key, resp).Encode(),
                  std::move(on_post));
      struct Ctx {
        YcsbEngine* eng;
        RoceDriver* drv;
        VirtAddr status_addr;
        int host;
        Op op;
        uint32_t slot;
      };
      auto poll = [](Ctx c) -> Task {
        const uint64_t status = co_await c.drv->PollU64(c.status_addr, 0);
        Outcome outcome = Outcome::kFailed;
        if (StatusWordCode(status) == KernelStatusCode::kOk) {
          outcome = Outcome::kOk;
        } else if (StatusWordCode(status) == KernelStatusCode::kFencedStale) {
          outcome = Outcome::kFenced;
        }
        c.eng->Complete(c.host, c.op, c.slot, outcome);
      };
      fabric_.node(host).sim().Spawn(poll(Ctx{this, &drv, status_addr, host, op, slot}));
      return;
    }
  }
}

void YcsbEngine::Complete(int host, const Op& op, uint32_t slot, Outcome outcome) {
  Host& h = hosts_[host];
  --h.outstanding;
  h.free_slots.push_back(slot);
  h.slots[slot] = SlotInfo{};
  if (outcome == Outcome::kOk) {
    ++h.shard.ops_completed;
    if (op.arrival >= config_.warmup) {
      const SimTime latency = fabric_.node(host).sim().now() - op.arrival;
      h.shard.all.Add(latency);
      switch (op.kind) {
        case Op::kRead:
          ++h.shard.reads;
          h.shard.read_lat.Add(latency);
          break;
        case Op::kWrite:
          ++h.shard.writes;
          h.shard.write_lat.Add(latency);
          break;
        case Op::kGet:
          ++h.shard.gets;
          h.shard.get_lat.Add(latency);
          break;
      }
    }
  } else if (outcome == Outcome::kFenced) {
    ++h.shard.ops_fenced;
  } else {
    ++h.shard.ops_failed;
  }
  Pump(host);
}

bool YcsbEngine::AllDone() const {
  for (const Host& h : hosts_) {
    if (!h.arrivals_done || !h.backlog.empty() || h.outstanding != 0) {
      return false;
    }
  }
  return true;
}

YcsbReport YcsbEngine::Run() {
  STROM_CHECK(setup_done_) << "call Setup() first";
  const int n = fabric_.num_hosts();
  if (crash_recovery_) {
    for (auto& monitor : liveness_) {
      monitor->Start();
    }
  }
  for (int i = 0; i < n; ++i) {
    if (config_.incast && i == 0) {
      hosts_[i].arrivals_done = true;  // the incast victim only serves
      continue;
    }
    ScheduleArrival(i);
  }
  // Wedge guard: a lost GET response (possible under fault plans) would poll
  // forever; bound the run instead of hanging.
  fabric_.sim().ScheduleAt(config_.duration * 3, [this] { deadline_hit_ = true; });
  fabric_.sim().RunUntil([this] { return AllDone() || deadline_hit_; });
  // Leases renew forever by design; stop the monitors now that the workload
  // has drained (or wedged) so the residual-event drain below terminates.
  for (auto& monitor : liveness_) {
    monitor->Stop();
  }
  report_.deadline_hit = deadline_hit_;
  if (!deadline_hit_) {
    fabric_.sim().RunUntilIdle();
  } else if (fabric_.flight_recorder() != nullptr) {
    // The run wedged: capture the protocol state leading up to the stall
    // while it is still in the ring.
    const MetricsRegistry::Snapshot snap = fabric_.telemetry().metrics.Snap();
    fabric_.flight_recorder()->DumpAuto("watchdog: ycsb drain deadline", &snap);
  }

  // Fold the per-host shards in host order (see Host::shard).
  for (const Host& h : hosts_) {
    report_.ops_arrived += h.shard.ops_arrived;
    report_.ops_completed += h.shard.ops_completed;
    report_.ops_failed += h.shard.ops_failed;
    report_.ops_fenced += h.shard.ops_fenced;
    report_.arrival_timers_cancelled_at_crash += h.shard.arrival_timers_cancelled_at_crash;
    report_.reads += h.shard.reads;
    report_.writes += h.shard.writes;
    report_.gets += h.shard.gets;
    report_.all.Merge(h.shard.all);
    report_.read_lat.Merge(h.shard.read_lat);
    report_.write_lat.Merge(h.shard.write_lat);
    report_.get_lat.Merge(h.shard.get_lat);
  }

  auto fold_switch = [this](FabricSwitch& sw) {
    for (int p = 0; p < sw.num_ports(); ++p) {
      const FabricPortCounters& c = sw.counters(p);
      report_.ce_marked += c.ce_marked;
      report_.tail_drops += c.tail_drops;
      report_.queue_bytes_peak = std::max(report_.queue_bytes_peak, c.queue_bytes_peak);
    }
  };
  for (int l = 0; l < fabric_.num_leaves(); ++l) {
    fold_switch(fabric_.leaf(l));
  }
  for (int s = 0; s < fabric_.num_spines(); ++s) {
    fold_switch(fabric_.spine(s));
  }
  for (int i = 0; i < n; ++i) {
    const RoceCounters& c = fabric_.node(i).stack().counters();
    report_.rx_cnp += c.rx_cnp;
    report_.rate_cuts += c.dcqcn_rate_cuts;
    report_.pacing_deferrals += c.pacing_deferrals;
    report_.pfc_pause_events += c.pfc_pause_events;
  }
  for (const auto& monitor : liveness_) {
    const LivenessCounters& c = monitor->counters();
    report_.peers_declared_dead += c.peers_declared_dead;
    report_.reconnect_attempts += c.reconnect_attempts;
    report_.leases_acquired += c.leases_acquired;
  }
  return report_;
}

}  // namespace strom
