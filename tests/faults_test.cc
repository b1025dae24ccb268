// Tests for the fault-plan engine (src/faults/) and the error-path state
// machine it exercises: plan parsing, deterministic episode scheduling, and
// end-to-end QP error / flush / reconnect behaviour under injected faults.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/faults/fault_engine.h"
#include "src/faults/fault_plan.h"
#include "src/netsim/link.h"
#include "src/sim/simulator.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"
#include "src/workload/crash_scenario.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

// --- plan parsing -----------------------------------------------------------

TEST(FaultPlan, ParsesEpisodesAndRoundTrips) {
  const std::string text =
      "# comment line\n"
      "seed 7\n"
      "link0 burst_loss 10us 4ms p_gb=0.02 p_bg=0.3 loss_good=0 loss_bad=0.5\n"
      "link* jitter 0us - max=2us\n"
      "link1 reorder 1ms 2ms p=0.1 delay=5us\n"
      "link* duplicate 0us - p=0.01\n"
      "link0 down 100us 200us\n"
      "dma1 read_error 1ms 2ms p=0.1\n"
      "dma* write_error 0us - p=0.05\n";
  Result<FaultPlan> plan = FaultPlan::Parse(text);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->seed, 7u);
  ASSERT_EQ(plan->episodes.size(), 7u);

  const FaultEpisode& burst = plan->episodes[0];
  EXPECT_EQ(burst.type, FaultType::kBurstLoss);
  EXPECT_EQ(burst.target, 0);
  EXPECT_EQ(burst.start, Us(10));
  EXPECT_EQ(burst.end, Ms(4));
  EXPECT_DOUBLE_EQ(burst.p_good_to_bad, 0.02);
  EXPECT_DOUBLE_EQ(burst.p_bad_to_good, 0.3);
  EXPECT_DOUBLE_EQ(burst.loss_bad, 0.5);

  const FaultEpisode& jitter = plan->episodes[1];
  EXPECT_EQ(jitter.type, FaultType::kJitter);
  EXPECT_EQ(jitter.target, -1);       // link* = every side
  EXPECT_EQ(jitter.end, SimTime(-1));  // "-" = open-ended
  EXPECT_EQ(jitter.delay, Us(2));

  EXPECT_EQ(plan->episodes[4].type, FaultType::kLinkDown);
  EXPECT_EQ(plan->episodes[5].type, FaultType::kDmaReadError);
  EXPECT_EQ(plan->episodes[5].target, 1);
  EXPECT_EQ(plan->episodes[6].type, FaultType::kDmaWriteError);
  EXPECT_EQ(plan->episodes[6].target, -1);

  // ToString() -> Parse() must reproduce the plan exactly.
  Result<FaultPlan> again = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->ToString(), plan->ToString());
  EXPECT_EQ(again->seed, plan->seed);
  ASSERT_EQ(again->episodes.size(), plan->episodes.size());
}

TEST(FaultPlan, RejectsMalformedInput) {
  // Unknown fault type.
  EXPECT_FALSE(FaultPlan::Parse("link0 meteor_strike 0us -\n").ok());
  // DMA targets only take dma fault types.
  EXPECT_FALSE(FaultPlan::Parse("dma0 burst_loss 0us - p_gb=0.1 p_bg=0.1\n").ok());
  // Link targets only take link fault types.
  EXPECT_FALSE(FaultPlan::Parse("link0 read_error 0us - p=0.5\n").ok());
  // End before start.
  EXPECT_FALSE(FaultPlan::Parse("link0 down 5ms 1ms\n").ok());
  // Probability out of range.
  EXPECT_FALSE(FaultPlan::Parse("link0 duplicate 0us - p=1.5\n").ok());
  // Bad time unit.
  EXPECT_FALSE(FaultPlan::Parse("link0 down 10parsecs 20us\n").ok());
  // Bad target.
  EXPECT_FALSE(FaultPlan::Parse("nvme0 down 0us -\n").ok());
}

TEST(FaultPlan, EpisodeActivationWindow) {
  FaultEpisode ep;
  ep.start = Us(10);
  ep.end = Us(20);
  EXPECT_FALSE(ep.ActiveAt(Us(9)));
  EXPECT_TRUE(ep.ActiveAt(Us(10)));
  EXPECT_TRUE(ep.ActiveAt(Us(19)));
  EXPECT_FALSE(ep.ActiveAt(Us(20)));

  FaultEpisode open;
  open.start = Us(5);
  open.end = -1;
  EXPECT_TRUE(open.ActiveAt(Ms(100)));

  FaultEpisode wildcard;
  wildcard.target = -1;
  EXPECT_TRUE(wildcard.Matches(0));
  EXPECT_TRUE(wildcard.Matches(7));
  FaultEpisode pinned;
  pinned.target = 3;
  EXPECT_FALSE(pinned.Matches(0));
  EXPECT_TRUE(pinned.Matches(3));
}

TEST(FaultPlan, ParsesCrashEpisodesAndRoundTrips) {
  const std::string text =
      "seed 9\n"
      "host1 crash 300us - restart_after=150us\n"
      "nic0 crash 50us -\n"
      "switch0 crash 1ms - restart_after=20us\n"
      "host* crash 2ms -\n";
  Result<FaultPlan> plan = FaultPlan::Parse(text);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->episodes.size(), 4u);

  const FaultEpisode& host = plan->episodes[0];
  EXPECT_EQ(host.type, FaultType::kHostCrash);
  EXPECT_EQ(host.target, 1);
  EXPECT_EQ(host.start, Us(300));
  EXPECT_EQ(host.restart_after, Us(150));
  EXPECT_TRUE(IsCrashFault(host.type));
  EXPECT_EQ(FaultTargetKindOf(host.type), FaultTargetKind::kHost);

  const FaultEpisode& nic = plan->episodes[1];
  EXPECT_EQ(nic.type, FaultType::kNicCrash);
  EXPECT_EQ(nic.restart_after, SimTime(-1)) << "no restart_after = crash-stop";
  EXPECT_EQ(FaultTargetKindOf(nic.type), FaultTargetKind::kNic);

  EXPECT_EQ(plan->episodes[2].type, FaultType::kSwitchCrash);
  EXPECT_EQ(plan->episodes[3].target, -1);  // host* wildcard

  Result<FaultPlan> again = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->ToString(), plan->ToString());

  // Crash types belong to node/switch targets only, and vice versa.
  EXPECT_FALSE(FaultPlan::Parse("link0 crash 0us -\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("host0 down 0us -\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("switch0 read_error 0us - p=1\n").ok());
}

TEST(FaultPlan, MakeCrashPlanIsDeterministicSparesNode0AndRoundTrips) {
  const FaultPlan a = MakeCrashPlan(11, Ms(2), 4, 2);
  EXPECT_EQ(a.ToString(), MakeCrashPlan(11, Ms(2), 4, 2).ToString());
  EXPECT_NE(a.ToString(), MakeCrashPlan(12, Ms(2), 4, 2).ToString());
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const FaultPlan plan = MakeCrashPlan(seed, Ms(2), 4, 2);
    ASSERT_FALSE(plan.episodes.empty());
    bool has_crash = false;
    for (const FaultEpisode& ep : plan.episodes) {
      if (!IsCrashFault(ep.type)) {
        continue;
      }
      has_crash = true;
      if (ep.type != FaultType::kSwitchCrash) {
        EXPECT_NE(ep.target, 0) << "node 0 is the canonical survivor";
        EXPECT_GE(ep.restart_after, 0) << "crash plans are crash-recovery";
      }
    }
    EXPECT_TRUE(has_crash) << "seed " << seed;
    Result<FaultPlan> replay = FaultPlan::Parse(plan.ToString());
    ASSERT_TRUE(replay.ok()) << replay.status();
    EXPECT_EQ(replay->ToString(), plan.ToString()) << "seed " << seed;
  }
}

TEST(FaultPlan, MakeRandomPlanIsDeterministicAndParses) {
  const FaultPlan a = MakeRandomPlan(42, Ms(10));
  const FaultPlan b = MakeRandomPlan(42, Ms(10));
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_FALSE(a.episodes.empty());

  const FaultPlan c = MakeRandomPlan(43, Ms(10));
  EXPECT_NE(a.ToString(), c.ToString());

  // Generated plans must survive the text round trip (CI artifacts are
  // replayed from the dumped text form).
  Result<FaultPlan> replay = FaultPlan::Parse(a.ToString());
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->ToString(), a.ToString());
}

// --- fault engine on a bare link -------------------------------------------

TEST(FaultEngine, LinkDownEpisodeDropsOnlyInsideWindow) {
  auto plan = std::make_shared<FaultPlan>();
  FaultEpisode ep;
  ep.type = FaultType::kLinkDown;
  ep.target = -1;
  ep.start = Us(10);
  ep.end = Us(20);
  plan->episodes.push_back(ep);

  Simulator sim;
  PointToPointLink link(sim, LinkConfig{});
  FaultEngine engine(sim, plan);
  engine.AttachLink(link, 0);

  int received = 0;
  link.Attach(1, [&](FrameBuf, TraceContext) { ++received; });
  const auto send = [&] { link.Send(0, FrameBuf::Adopt(ByteBuffer(100, 0))); };
  sim.ScheduleAt(Us(0), send);   // before the window: delivered
  sim.ScheduleAt(Us(15), send);  // inside: dropped
  sim.ScheduleAt(Us(25), send);  // after: delivered
  sim.RunUntilIdle();

  EXPECT_EQ(received, 2);
  EXPECT_EQ(engine.counters().frames_dropped, 1u);
  EXPECT_EQ(link.counters(0).frames_dropped, 1u);
}

TEST(FaultEngine, SameSeedSameDecisions) {
  const std::string text =
      "seed 11\n"
      "link* burst_loss 0us - p_gb=0.1 p_bg=0.3 loss_good=0.02 loss_bad=0.6\n"
      "link* duplicate 0us - p=0.05\n"
      "link* reorder 0us - p=0.05 delay=3us\n";

  const auto run = [&](uint64_t seed) {
    Result<FaultPlan> parsed = FaultPlan::Parse(text);
    STROM_CHECK(parsed.ok());
    auto plan = std::make_shared<FaultPlan>(std::move(*parsed));
    plan->seed = seed;
    Simulator sim;
    PointToPointLink link(sim, LinkConfig{});
    FaultEngine engine(sim, plan);
    engine.AttachLink(link, 0);
    uint64_t received = 0;
    link.Attach(1, [&](FrameBuf, TraceContext) { ++received; });
    for (int i = 0; i < 500; ++i) {
      link.Send(0, FrameBuf::Adopt(ByteBuffer(256, uint8_t(i))));
    }
    sim.RunUntilIdle();
    return std::make_tuple(received, engine.counters().frames_dropped,
                           engine.counters().frames_duplicated,
                           engine.counters().frames_delayed);
  };

  const auto a = run(5);
  EXPECT_EQ(a, run(5)) << "same seed must reproduce every per-frame decision";
  EXPECT_NE(a, run(6)) << "different seed should diverge (statistically certain)";

  // The plan actually did something.
  EXPECT_GT(std::get<1>(a), 0u);
  EXPECT_GT(std::get<2>(a), 0u);
}

// --- end-to-end error paths through the testbed -----------------------------

TEST(FaultE2e, ResponderDmaReadErrorNaksAndErrorsRequesterQp) {
  // All payload fetches on node 1 fail: a READ from node 0 must complete
  // with an error (NAK remote operational error -> QP Error -> flush), not
  // hang.
  Result<FaultPlan> plan = FaultPlan::Parse("seed 1\ndma1 read_error 0us - p=1\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  Testbed bed(Profile10G());
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;

  bool done = false;
  Status completion;
  bed.node(0).driver().PostRead(kQp, local, remote, 4096, [&](Status st) {
    done = true;
    completion = st;
  });
  bed.sim().RunUntil([&] { return done; });
  bed.sim().RunUntilIdle();

  ASSERT_TRUE(done) << "errored READ must still complete";
  EXPECT_FALSE(completion.ok());
  EXPECT_EQ(bed.node(0).stack().counters().rx_operational_errors, 1u);
  EXPECT_EQ(bed.node(0).stack().counters().qp_errors, 1u);
  EXPECT_GT(bed.fault_engine()->counters().dma_read_errors, 0u);
}

TEST(FaultE2e, ResponderDmaWriteErrorNaksWrite) {
  Result<FaultPlan> plan = FaultPlan::Parse("seed 1\ndma1 write_error 0us - p=1\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  Testbed bed(Profile10G());
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  ASSERT_TRUE(bed.node(0).driver().WriteHost(local, RandomBytes(512, 9)).ok());

  bool done = false;
  Status completion;
  bed.node(0).driver().PostWrite(kQp, local, remote, 512, [&](Status st) {
    done = true;
    completion = st;
  });
  bed.sim().RunUntil([&] { return done; });
  bed.sim().RunUntilIdle();

  ASSERT_TRUE(done);
  EXPECT_FALSE(completion.ok());
  EXPECT_EQ(bed.node(0).stack().counters().rx_operational_errors, 1u);
  EXPECT_GT(bed.fault_engine()->counters().dma_write_errors, 0u);
}

TEST(FaultE2e, RetryExhaustionErrorsQpAndReconnectResumesTraffic) {
  // The acceptance scenario: a link flap longer than the retry budget moves
  // the QP to Error, the in-flight WR completes with an error through the
  // host callback, and after ReconnectQp (PSN resync) traffic resumes.
  Profile p = Profile10G();
  p.roce.retry_limit = 2;
  p.roce.retransmission_timeout = Us(100);

  Result<FaultPlan> plan = FaultPlan::Parse("seed 3\nlink* down 50us 5ms\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  Testbed bed(p);
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  bed.ConnectQp(0, kQp, 1, kQp);
  RoceDriver& drv = bed.node(0).driver();
  const VirtAddr local = drv.AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const ByteBuffer payload = RandomBytes(2048, 4);
  ASSERT_TRUE(drv.WriteHost(local, payload).ok());

  std::vector<Qpn> errored_qps;
  drv.SetQpErrorHandler([&](Qpn qpn, const Status& st) {
    errored_qps.push_back(qpn);
    EXPECT_FALSE(st.ok());
  });

  int completions = 0;
  Status first_completion;
  bed.sim().ScheduleAt(Us(100), [&] {  // posted mid-outage
    drv.PostWrite(kQp, local, remote, 2048, [&](Status st) {
      ++completions;
      first_completion = st;
    });
  });
  bed.sim().RunUntil([&] { return completions > 0; });

  // retry_limit=2 with 100us RTO: timeouts at ~200us/400us/800us exhaust the
  // budget well inside the 5ms outage.
  ASSERT_EQ(completions, 1) << "flushed WR must complete exactly once";
  EXPECT_FALSE(first_completion.ok());
  ASSERT_EQ(errored_qps.size(), 1u) << "QP error handler must fire once";
  EXPECT_EQ(errored_qps[0], kQp);
  EXPECT_EQ(bed.node(0).stack().counters().qp_errors, 1u);
  EXPECT_EQ(bed.node(0).stack().counters().wrs_flushed, 1u);

  // Ride out the outage, resync both ends, and verify traffic flows again.
  bed.sim().RunFor(Ms(6));
  bed.ReconnectQp(0, kQp, 1, kQp);
  EXPECT_EQ(bed.node(0).stack().counters().qp_resets, 1u);

  bool again = false;
  drv.PostWrite(kQp, local, remote, 2048, [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    again = true;
  });
  bed.sim().RunUntil([&] { return again; });
  bed.sim().RunUntilIdle();
  ASSERT_TRUE(again);
  EXPECT_EQ(*bed.node(1).driver().ReadHost(remote, payload.size()), payload);
  // Exactly one error episode: the post-reconnect write succeeded cleanly.
  EXPECT_EQ(bed.node(0).stack().counters().qp_errors, 1u);
}

TEST(FaultE2e, PlanAppliedToSwitchTopologyTargetsPerPortSides) {
  // In a 3-node switch topology, link targets address global side indices
  // 2*port (node side) / 2*port+1 (switch side). Downing only node 2's
  // sides must leave node0 <-> node1 traffic untouched.
  Result<FaultPlan> plan = FaultPlan::Parse(
      "seed 1\n"
      "link4 down 0us -\n"
      "link5 down 0us -\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  Testbed bed(Profile10G(), 3);
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const ByteBuffer data = RandomBytes(1024, 2);
  ASSERT_TRUE(bed.node(0).driver().WriteHost(local, data).ok());

  bool done = false;
  bed.node(0).driver().PostWrite(kQp, local, remote, 1024, [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    done = true;
  });
  bed.sim().RunUntil([&] { return done; });
  bed.sim().RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_EQ(*bed.node(1).driver().ReadHost(remote, data.size()), data);
  EXPECT_EQ(bed.fault_engine()->counters().frames_dropped, 0u);
}

TEST(FaultE2e, SwitchedTestbedHonorsSwitchCrash) {
  // The 3-node testbed's switch is crashable like any fabric switch: a
  // WRITE in flight when switch0 dies is lost inside the switch, and
  // go-back-N delivers it intact after the restart.
  Result<FaultPlan> plan =
      FaultPlan::Parse("seed 1\nswitch0 crash 10us - restart_after=200us\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  Testbed bed(Profile10G(), 3);
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const ByteBuffer data = RandomBytes(32768, 8);
  ASSERT_TRUE(bed.node(0).driver().WriteHost(local, data).ok());

  // 32KiB at 10G is ~26us of wire time: posted at 0 it is still crossing
  // the switch when it dies at 10us.
  bool done = false;
  SimTime completed_at = 0;
  bed.node(0).driver().PostWrite(kQp, local, remote, data.size(), [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    done = true;
    completed_at = bed.sim().now();
  });
  bed.sim().RunUntil([&] { return done; });
  bed.sim().RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_GT(completed_at, Us(210)) << "completion must wait for the restart";
  EXPECT_EQ(*bed.node(1).driver().ReadHost(remote, data.size()), data);
  FabricSwitch& sw = bed.leaf(0);
  uint64_t crash_drops = 0;
  for (int port = 0; port < sw.num_ports(); ++port) {
    crash_drops += sw.counters(port).crash_drops;
  }
  EXPECT_GT(crash_drops + sw.crash_ingress_drops(), 0u);
}

// --- crash-restart failure domain -------------------------------------------

TEST(CrashE2e, LocalNicCrashFlushesInFlightWriteAndCountsArmedTimers) {
  // nic0 dies mid-WRITE. The crash must flush the in-flight WR with an
  // errored completion at the crash instant (exactly one terminal state) and
  // census the armed retransmission/pacing timers it mass-cancels.
  Result<FaultPlan> plan =
      FaultPlan::Parse("seed 1\nnic0 crash 150us - restart_after=500us\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  Testbed bed(Profile10G());
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  int crash_events = 0;
  int restart_events = 0;
  bed.AddCrashListener([&](const FaultEpisode& ep, bool restarted) {
    EXPECT_EQ(ep.type, FaultType::kNicCrash);
    EXPECT_EQ(ep.target, 0);
    (restarted ? restart_events : crash_events) += 1;
  });
  bed.ConnectQp(0, kQp, 1, kQp);
  RoceDriver& drv = bed.node(0).driver();
  const VirtAddr local = drv.AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const ByteBuffer payload = RandomBytes(32768, 6);
  ASSERT_TRUE(drv.WriteHost(local, payload).ok());

  // 32KiB at 10G is ~26us of wire time: posted at 140us it is still in
  // flight when the NIC dies at 150us.
  int completions = 0;
  Status first;
  bed.sim().ScheduleAt(Us(140), [&] {
    drv.PostWrite(kQp, local, remote, payload.size(), [&](Status st) {
      ++completions;
      first = st;
    });
  });
  bed.sim().RunUntil([&] { return completions > 0; });

  ASSERT_EQ(completions, 1) << "crash flush must complete the WR exactly once";
  EXPECT_FALSE(first.ok());
  EXPECT_LE(bed.sim().now(), Us(151)) << "flush happens at the crash, not at RTO";
  const RoceCounters& c0 = bed.node(0).stack().counters();
  EXPECT_EQ(c0.crashes, 1u);
  EXPECT_GE(c0.timers_cancelled_at_crash, 1u) << "RTO timer was armed at the crash";
  EXPECT_GE(c0.wrs_flushed, 1u);
  EXPECT_EQ(crash_events, 1);

  // Ride out the restart (crash 150us + 500us), resync, verify traffic.
  bed.sim().RunFor(Ms(1));
  EXPECT_EQ(restart_events, 1);
  bed.ReconnectQp(0, kQp, 1, kQp);
  bool again = false;
  drv.PostWrite(kQp, local, remote, payload.size(), [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    again = true;
  });
  bed.sim().RunUntil([&] { return again; });
  bed.sim().RunUntilIdle();
  ASSERT_TRUE(again);
  EXPECT_EQ(*bed.node(1).driver().ReadHost(remote, payload.size()), payload);
}

TEST(CrashE2e, PeerNicRestartFencesStaleEpochWithNak) {
  // nic1 dies and restarts while node 0 has a WRITE in flight. Node 0 keeps
  // retransmitting into the dead window; the retry that lands on the
  // restarted NIC hits the epoch tombstone and draws NAK(stale epoch), which
  // errors the requester QP instead of letting pre-crash bytes land in the
  // peer's fresh memory state.
  Result<FaultPlan> plan =
      FaultPlan::Parse("seed 1\nnic1 crash 150us - restart_after=200us\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Defaults: RTO 100us doubling, retry_limit 7 — the ~450us retry arrives
  // after the 350us restart and well inside the retry budget, so the QP
  // errors through the stale NAK, not through retry exhaustion.
  Testbed bed(Profile10G());
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  bed.ConnectQp(0, kQp, 1, kQp);
  RoceDriver& drv = bed.node(0).driver();
  const VirtAddr local = drv.AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const ByteBuffer payload = RandomBytes(32768, 7);
  ASSERT_TRUE(drv.WriteHost(local, payload).ok());

  int completions = 0;
  Status first;
  bed.sim().ScheduleAt(Us(140), [&] {
    drv.PostWrite(kQp, local, remote, payload.size(), [&](Status st) {
      ++completions;
      first = st;
    });
  });
  bed.sim().RunUntil([&] { return completions > 0; });

  ASSERT_EQ(completions, 1);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(bed.node(1).stack().counters().crashes, 1u);
  EXPECT_GE(bed.node(1).stack().counters().tx_stale_naks, 1u)
      << "restarted NIC must fence the stale-epoch retransmission";
  EXPECT_GE(bed.node(0).stack().counters().rx_stale_naks, 1u);
  EXPECT_EQ(bed.node(0).stack().counters().qp_errors, 1u);

  // A fresh handshake clears the tombstone and traffic resumes.
  bed.sim().RunUntilIdle();
  bed.ReconnectQp(0, kQp, 1, kQp);
  bool again = false;
  drv.PostWrite(kQp, local, remote, payload.size(), [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    again = true;
  });
  bed.sim().RunUntil([&] { return again; });
  bed.sim().RunUntilIdle();
  ASSERT_TRUE(again);
  EXPECT_EQ(*bed.node(1).driver().ReadHost(remote, payload.size()), payload);
  EXPECT_EQ(bed.node(0).stack().counters().qp_errors, 1u);
}

TEST(CrashE2e, ReconnectRacesSecondCrashOfSamePeer) {
  // nic1 crashes, restarts at 200us, then crashes AGAIN at 220us — before
  // the survivors' exponential backoff (5,10,20,40,80us from detection at
  // ~110us) produces a reconnect attempt that sees it alive. The second
  // crash lands inside the backoff window of the first recovery; every
  // session op must still reach exactly one terminal state.
  Result<FaultPlan> plan = FaultPlan::Parse(
      "seed 5\n"
      "nic1 crash 100us - restart_after=100us\n"
      "nic1 crash 220us - restart_after=40us\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  const CrashScenarioConfig cfg = CrashScenarioConfig::Small();
  const CrashScenarioResult r = RunCrashScenario(cfg, *plan);

  EXPECT_FALSE(r.outcome.violation)
      << r.outcome.violation_kind << ": " << r.outcome.detail;
  EXPECT_GT(r.report.ops_arrived, 0u);
  EXPECT_EQ(r.report.ops_arrived,
            r.report.ops_completed + r.report.ops_failed + r.report.ops_fenced);
  EXPECT_FALSE(r.report.deadline_hit);
  EXPECT_GE(r.report.peers_declared_dead, 2u);
  EXPECT_GE(r.report.reconnect_attempts, 2u)
      << "backoff must keep retrying across the second crash";
  EXPECT_GE(r.report.leases_acquired, 1u);
  EXPECT_EQ(r.frame_blocks_leaked, 0);
  EXPECT_EQ(r.audit_violations, 0u);
}

}  // namespace
}  // namespace strom
