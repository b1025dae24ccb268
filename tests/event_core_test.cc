// Event core tests (DESIGN.md §12):
//   * same-seed identity — the SAME run (one seed, one topology) executed
//     twice in one process must produce byte-identical observable output
//     (pcapng SHA-256s, metrics dumps, end time, op counts, pop count) on a
//     fig11-style StRoM shuffle slice and on a 4-host YCSB rack under a
//     chaos fault plan and under a crash-restart plan,
//   * cancellation stress — randomized arm/cancel/re-arm churn against a
//     reference model, with near and far deadlines,
//   * same-timestamp FIFO order, including a timer cancelled by an event at
//     its own timestamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/fabric/fabric.h"
#include "src/faults/fault_plan.h"
#include "src/host/liveness.h"
#include "src/kernels/shuffle.h"
#include "src/sim/event_queue.h"
#include "src/sim/task.h"
#include "src/telemetry/telemetry.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"
#include "src/workload/ycsb.h"
#include "tests/sha256_test_util.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

// Saves/restores the process-wide telemetry defaults around each trial and
// pins the run ordinal, so a rerun labels its metrics exactly like the first
// run did.
struct TrialGuard {
  TrialGuard() : saved(Testbed::telemetry_defaults) { Testbed::run_ordinal = 0; }
  ~TrialGuard() {
    Testbed::telemetry_defaults = saved;
    Testbed::run_ordinal = -1;
  }
  TestbedTelemetryDefaults saved;
};

struct TrialOutput {
  std::map<std::string, std::string> capture_digests;  // basename -> sha256
  std::string metrics_json;
  std::string metrics_csv;
  SimTime end_time = 0;
  uint64_t ok = 0;
  uint64_t errored = 0;
  uint64_t events_processed = 0;
};

void HashCaptures(const std::vector<std::string>& paths, const std::string& prefix,
                  TrialOutput* out) {
  for (const std::string& path : paths) {
    out->capture_digests[path.substr(prefix.size())] = Sha256File(path);
  }
}

void ExpectIdentical(const TrialOutput& first, const TrialOutput& rerun,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(first.capture_digests, rerun.capture_digests);
  EXPECT_EQ(first.metrics_json, rerun.metrics_json);
  EXPECT_EQ(first.metrics_csv, rerun.metrics_csv);
  EXPECT_EQ(first.end_time, rerun.end_time);
  EXPECT_EQ(first.ok, rerun.ok);
  EXPECT_EQ(first.errored, rerun.errored);
  // Cancelled deadlines are physically removed, never popped, so even the
  // pop count must agree exactly.
  EXPECT_EQ(first.events_processed, rerun.events_processed);
}

// ---------------------------------------------------------------------------
// Trial 1: fig11 slice — the StRoM shuffle kernel partitioning a small tuple
// stream on the receiving NIC (the retransmission-timer-heavy WRITE stream
// the fig11 bench runs, at 1/1000 scale).
// ---------------------------------------------------------------------------

TrialOutput RunShuffleSlice(const std::string& tag) {
  TrialGuard guard;
  TelemetryCollector collector;
  Testbed::telemetry_defaults = TestbedTelemetryDefaults{};
  Testbed::telemetry_defaults.collector = &collector;

  constexpr uint32_t kPartitionBits = 10;
  constexpr uint32_t kNumPartitions = 1u << kPartitionBits;
  constexpr size_t kBytes = 128 * 1024;

  TrialOutput out;
  const std::string prefix = ::testing::TempDir() + "/evcore_" + tag;
  {
    std::optional<Testbed> bed(std::in_place, Profile10G());
    HashCaptures(bed->EnableCapture(prefix), prefix, &out);
    bed->ConnectQp(0, kQp, 1, kQp);
    const KernelConfig kc{bed->profile().roce.clock_ps, bed->profile().roce.data_width};
    STROM_CHECK(bed->node(1)
                    .engine()
                    .DeployKernel(std::make_unique<ShuffleKernel>(bed->node(1).sim(), kc))
                    .ok());
    RoceDriver& drv = bed->node(0).driver();
    const VirtAddr resp = drv.AllocBuffer(MiB(1))->addr;
    const VirtAddr input = drv.AllocBuffer(kBytes + kHugePageSize)->addr;
    uint64_t stride = (kBytes / kNumPartitions) * 3 / 2 + 256;
    stride = (stride + 7) & ~uint64_t{7};
    const VirtAddr dest =
        bed->node(1).driver().AllocBuffer(stride * kNumPartitions + kHugePageSize)->addr;
    STROM_CHECK(drv.WriteHost(input, TuplesToBytes(RandomTuples(kBytes / 8, 99))).ok());
    drv.WriteHostU64(resp, 0);

    ShuffleParams config;
    config.target_addr = resp;
    config.partition_bits = kPartitionBits;
    config.region_base = dest;
    config.region_stride = stride;
    drv.PostRpc(kShuffleRpcOpcode, kQp, config.Encode());
    drv.PostRpcWrite(kShuffleRpcOpcode, kQp, input, kBytes);

    bool done = false;
    struct Ctx {
      RoceDriver& drv;
      VirtAddr resp;
      bool* done;
    };
    auto waiter = [](Ctx c) -> Task {
      auto poll = c.drv.PollU64(c.resp, 0);
      co_await poll;
      *c.done = true;
    };
    bed->sim().Spawn(waiter(Ctx{drv, resp, &done}));
    bed->sim().RunUntil([&] { return done; });
    bed->sim().RunUntilIdle();
    out.ok = done ? 1 : 0;
    out.end_time = bed->sim().now();
    out.events_processed = bed->sim().events_processed();
  }
  out.metrics_json = collector.MetricsJson();
  out.metrics_csv = collector.MetricsCsv();
  return out;
}

// ---------------------------------------------------------------------------
// Trial 2: 4-host YCSB rack under a chaos fault plan — loss, flaps and
// retries drive the retransmission/backoff path hard, which is exactly where
// the cancellable-timer conversion must not perturb the wire.
// ---------------------------------------------------------------------------

TrialOutput RunYcsbChaosTrial(const std::string& tag) {
  TrialGuard guard;
  TelemetryCollector collector;
  Testbed::telemetry_defaults = TestbedTelemetryDefaults{};
  Testbed::telemetry_defaults.collector = &collector;

  YcsbConfig cfg;
  cfg.sessions_per_host = 1000;
  cfg.ops_per_host_per_sec = 100000;
  cfg.duration = Us(300);
  cfg.warmup = Us(20);
  cfg.max_outstanding_per_host = 16;

  Profile profile = Profile10G();
  profile.roce.max_qps = 4 * cfg.qps_per_peer + 8;
  FabricTopologyConfig topo;
  topo.num_hosts = 4;

  TrialOutput out;
  const std::string prefix = ::testing::TempDir() + "/evcore_" + tag;
  {
    std::optional<Fabric> fabric(std::in_place, profile, topo);
    HashCaptures(fabric->EnableCapture(prefix), prefix, &out);
    fabric->ApplyFaultPlan(std::make_shared<const FaultPlan>(MakeRandomPlan(7, Ms(1))));
    YcsbEngine engine(*fabric, cfg);
    engine.Setup();
    const YcsbReport report = engine.Run();
    out.ok = report.ops_completed;
    out.errored = report.ops_failed;
    out.end_time = fabric->sim().now();
    out.events_processed = fabric->sim().events_processed();
  }
  out.metrics_json = collector.MetricsJson();
  out.metrics_csv = collector.MetricsCsv();
  return out;
}

// ---------------------------------------------------------------------------
// Trial 3: the same rack under a crash-restart plan with the full recovery
// stack armed (leases, backoff reconnects, epoch fencing). Crashes
// mass-cancel slab timers and restarts re-arm them, which is the harshest
// timer churn the event core sees. This is the only same-seed identity check
// under a crash plan.
// ---------------------------------------------------------------------------

TrialOutput RunYcsbCrashTrial(const std::string& tag) {
  TrialGuard guard;
  TelemetryCollector collector;
  Testbed::telemetry_defaults = TestbedTelemetryDefaults{};
  Testbed::telemetry_defaults.collector = &collector;
  Testbed::telemetry_defaults.dump_on_crash = false;  // crashes are the point here

  YcsbConfig cfg;
  cfg.sessions_per_host = 1000;
  cfg.ops_per_host_per_sec = 100000;
  cfg.duration = Us(300);
  cfg.warmup = Us(20);
  cfg.max_outstanding_per_host = 16;

  LivenessConfig liveness;
  liveness.lease_interval = Us(10);
  liveness.backoff_initial = Us(5);
  liveness.backoff_max = Us(80);

  Profile profile = Profile10G();
  profile.roce.max_qps = 4 * cfg.qps_per_peer + 8;
  FabricTopologyConfig topo;
  topo.num_hosts = 4;

  TrialOutput out;
  const std::string prefix = ::testing::TempDir() + "/evcore_" + tag;
  {
    std::optional<Fabric> fabric(std::in_place, profile, topo);
    HashCaptures(fabric->EnableCapture(prefix), prefix, &out);
    fabric->ApplyFaultPlan(
        std::make_shared<const FaultPlan>(MakeCrashPlan(11, Us(300), 4, 1)));
    YcsbEngine engine(*fabric, cfg);
    engine.Setup();
    engine.EnableCrashRecovery(liveness);
    const YcsbReport report = engine.Run();
    EXPECT_FALSE(report.deadline_hit) << tag;
    EXPECT_EQ(report.ops_arrived,
              report.ops_completed + report.ops_failed + report.ops_fenced)
        << tag << ": every op must reach exactly one terminal state";
    out.ok = report.ops_completed;
    out.errored = report.ops_failed + report.ops_fenced;
    out.end_time = fabric->sim().now();
    out.events_processed = fabric->sim().events_processed();
  }
  out.metrics_json = collector.MetricsJson();
  out.metrics_csv = collector.MetricsCsv();
  return out;
}

TEST(EventCoreEquivalence, ShuffleSliceIsByteIdenticalAcrossReruns) {
  const TrialOutput first = RunShuffleSlice("shf_a");
  const TrialOutput rerun = RunShuffleSlice("shf_b");
  EXPECT_EQ(first.ok, 1u);
  EXPECT_FALSE(first.capture_digests.empty());
  ExpectIdentical(first, rerun, "shuffle slice");
}

TEST(EventCoreEquivalence, YcsbRackWithFaultPlanIsByteIdenticalAcrossReruns) {
  const TrialOutput first = RunYcsbChaosTrial("ycsb_a");
  const TrialOutput rerun = RunYcsbChaosTrial("ycsb_b");
  EXPECT_GT(first.ok, 0u);
  EXPECT_FALSE(first.capture_digests.empty());
  ExpectIdentical(first, rerun, "ycsb chaos rack");
}

TEST(EventCoreEquivalence, YcsbRackWithCrashPlanIsByteIdenticalAcrossReruns) {
  const TrialOutput first = RunYcsbCrashTrial("crash_a");
  const TrialOutput rerun = RunYcsbCrashTrial("crash_b");
  EXPECT_GT(first.ok, 0u);
  EXPECT_FALSE(first.capture_digests.empty());
  ExpectIdentical(first, rerun, "ycsb crash-recovery rack");
}

// ---------------------------------------------------------------------------
// Cancellation stress: randomized arm/cancel/re-arm/pop churn against a
// reference model (an ordered set of (when, seq, label) triples). Timestamps
// mix near deadlines with ones up to ~0.3 s out, so removals land at every
// depth of a heap that holds both, and every fire is compared
// label-for-label.
// ---------------------------------------------------------------------------

void CancellationStress(uint64_t seed) {
  SCOPED_TRACE(seed);
  EventQueue q;
  Rng rng(seed);

  constexpr int kTimers = 64;
  std::vector<int> fired;  // labels in fire order, compared against the model
  std::vector<EventQueue::TimerId> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(q.CreateTimer([&fired, i] { fired.push_back(i); }));
  }

  // Reference model: (when, seq, label) for every live entry; one-shot
  // labels are kTimers + slot-independent counter.
  using Key = std::tuple<SimTime, uint64_t, int>;
  std::set<Key> model;
  std::vector<std::optional<Key>> pending(kTimers);  // timer -> live key
  std::vector<int> model_fired;
  uint64_t next_seq = 0;
  int next_oneshot = kTimers;
  SimTime now = 0;

  auto random_when = [&]() -> SimTime {
    // 1/3 near (~16 ns), 1/3 mid (~4 us), 1/3 far (~0.3 s).
    switch (rng.Below(3)) {
      case 0:
        return now + 1 + SimTime(rng.Below(1 << 14));
      case 1:
        return now + 1 + SimTime(rng.Below(1 << 22));
      default:
        return now + 1 + SimTime(rng.Below(uint64_t{1} << 38));
    }
  };

  for (int step = 0; step < 20000; ++step) {
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2: {  // arm / re-arm a random timer
        const int i = static_cast<int>(rng.Below(kTimers));
        const SimTime when = random_when();
        if (pending[i]) {
          model.erase(*pending[i]);
        }
        pending[i] = Key{when, next_seq, i};
        model.insert(*pending[i]);
        q.ArmTimer(timers[i], when);
        ++next_seq;
        break;
      }
      case 3: {  // cancel a random timer
        const int i = static_cast<int>(rng.Below(kTimers));
        const bool was_pending = pending[i].has_value();
        if (was_pending) {
          model.erase(*pending[i]);
          pending[i].reset();
        }
        EXPECT_EQ(q.CancelTimer(timers[i]), was_pending);
        break;
      }
      case 4:
      case 5: {  // one-shot push
        const SimTime when = random_when();
        const int label = next_oneshot++;
        model.insert(Key{when, next_seq, label});
        q.Push(when, [&fired, label] { fired.push_back(label); });
        ++next_seq;
        break;
      }
      default: {  // pop
        ASSERT_EQ(q.empty(), model.empty());
        if (model.empty()) {
          break;
        }
        const Key expect = *model.begin();
        ASSERT_EQ(q.NextTime(), std::get<0>(expect));
        EventQueue::Event ev = q.Pop();
        ASSERT_EQ(ev.when, std::get<0>(expect));
        ASSERT_EQ(ev.seq, std::get<1>(expect));
        model.erase(model.begin());
        const int label = std::get<2>(expect);
        if (label < kTimers) {
          pending[label].reset();
        }
        model_fired.push_back(label);
        now = ev.when;
        ev.Run();
        ASSERT_EQ(fired.size(), model_fired.size());
        ASSERT_EQ(fired.back(), model_fired.back());
        break;
      }
    }
    ASSERT_EQ(q.size(), model.size());
  }
  // Drain: every remaining entry fires in model order.
  while (!model.empty()) {
    const Key expect = *model.begin();
    model.erase(model.begin());
    EventQueue::Event ev = q.Pop();
    ASSERT_EQ(ev.when, std::get<0>(expect));
    ASSERT_EQ(ev.seq, std::get<1>(expect));
    ev.Run();
    ASSERT_EQ(fired.back(), std::get<2>(expect));
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventCoreCancellation, StressMatchesReferenceModelHeap) {
  CancellationStress(17);
  CancellationStress(4242);
}

// ---------------------------------------------------------------------------
// Same-timestamp FIFO. A long run of equal-`when` events must fire in
// insertion order, interleaved one-shots and timers alike — and a timer
// cancelled by an earlier event at the same timestamp must not fire at all.
// ---------------------------------------------------------------------------

TEST(EventCoreBatching, SameTimestampFifoHeap) {
  EventQueue q;
  std::vector<int> order;
  constexpr SimTime kT = 5000;
  constexpr int kRun = 64;

  std::vector<EventQueue::TimerId> timers;
  for (int i = 0; i < kRun; ++i) {
    if (i % 3 == 1) {
      timers.push_back(q.CreateTimer([&order, i] { order.push_back(i); }));
      q.ArmTimer(timers.back(), kT);
    } else {
      q.Push(kT, [&order, i] { order.push_back(i); });
    }
  }
  // A few stragglers behind the run keep the heap non-trivial.
  q.Push(kT + 1, [&order] { order.push_back(1000); });
  q.Push(kT + 2, [&order] { order.push_back(1001); });

  while (!q.empty()) {
    q.Pop().Run();
  }
  ASSERT_EQ(order.size(), size_t{kRun + 2});
  for (int i = 0; i < kRun; ++i) {
    EXPECT_EQ(order[i], i) << "same-timestamp events must fire in insertion order";
  }
  EXPECT_EQ(order[kRun], 1000);
  EXPECT_EQ(order[kRun + 1], 1001);
}

TEST(EventCoreBatching, CancelInsideSameTimestampRun) {
  // Event 0 (at T) cancels a timer also scheduled at T that has not fired
  // yet: the timer must be physically removed, the pop count must stay
  // exact, and the remaining events keep FIFO order.
  EventQueue q;
  std::vector<int> order;
  constexpr SimTime kT = 777;

  EventQueue::TimerId victim = q.CreateTimer([&order] { order.push_back(-1); });
  EventQueue::TimerId mover = q.CreateTimer([&order] { order.push_back(-2); });
  q.Push(kT, [&] {
    order.push_back(0);
    EXPECT_TRUE(q.CancelTimer(victim));
    q.ArmTimer(mover, kT + 50);  // re-arm out of the live run
  });
  q.ArmTimer(victim, kT);
  q.ArmTimer(mover, kT);
  for (int i = 1; i <= 24; ++i) {  // bulk up the equal-when run
    q.Push(kT, [&order, i] { order.push_back(i); });
  }

  uint64_t pops = 0;
  while (!q.empty()) {
    q.Pop().Run();
    ++pops;
  }
  // 1 canceller + 24 one-shots + the moved timer; the victim never fires.
  EXPECT_EQ(pops, 26u);
  ASSERT_EQ(order.size(), 26u);
  EXPECT_EQ(order[0], 0);
  for (int i = 1; i <= 24; ++i) {
    EXPECT_EQ(order[i], i);
  }
  EXPECT_EQ(order[25], -2);  // the rescheduled timer fires at kT + 50
  EXPECT_FALSE(q.TimerPending(victim));
}

}  // namespace
}  // namespace strom
