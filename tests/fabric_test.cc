// Fabric + workload-engine tests:
//   * zipfian generator sanity (range, skew, uniform degenerate, determinism),
//   * switch egress/ECN determinism: the same seed produces the identical
//     mark sequence and byte-identical pcapng captures, serially and under
//     ParallelFor with 4 workers (the bench --jobs plumbing),
//   * the paper-style incast claim: ECN/DCQCN keeps the victim queue below
//     the tail-drop point and cuts p999 vs the CC-disabled run,
//   * fault-plan link flaps on fabric links route through the same QP
//     Error -> flush -> ReconnectQp -> resume path as 2-node links.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/parallel.h"
#include "src/fabric/fabric.h"
#include "src/faults/fault_plan.h"
#include "src/testbed/workload.h"
#include "src/workload/ycsb.h"
#include "src/workload/zipf.h"
#include "tests/sha256_test_util.h"

namespace strom {
namespace {

// ---------------------------------------------------------------------------
// Zipfian generator
// ---------------------------------------------------------------------------

TEST(Zipfian, RanksInRangeAndSkewed) {
  constexpr uint64_t kN = 1000;
  constexpr int kDraws = 50000;
  ZipfianGenerator zipf(kN, 0.99);
  Rng rng(7);
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t rank = zipf.Next(rng);
    ASSERT_LT(rank, kN);
    ++counts[rank];
  }
  // Rank 0 is the hottest item and theta=0.99 concentrates mass heavily:
  // the head must dominate any mid-table rank and the top ten must carry a
  // large share of all draws.
  EXPECT_GT(counts[0], counts[kN / 2] * 10);
  int top10 = 0;
  for (int r = 0; r < 10; ++r) {
    top10 += counts[r];
  }
  EXPECT_GT(top10, kDraws / 4);
}

TEST(Zipfian, ThetaZeroIsUniform) {
  constexpr uint64_t kN = 10;
  constexpr int kDraws = 100000;
  ZipfianGenerator zipf(kN, 0.0);
  Rng rng(11);
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[zipf.Next(rng)];
  }
  for (uint64_t r = 0; r < kN; ++r) {
    EXPECT_GT(counts[r], kDraws / kN / 2) << "rank " << r;
    EXPECT_LT(counts[r], kDraws * 2 / kN) << "rank " << r;
  }
}

TEST(Zipfian, SameSeedSameSequence) {
  ZipfianGenerator a(4096, 0.99);
  ZipfianGenerator b(4096, 0.99);
  Rng ra(42);
  Rng rb(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(ra), b.Next(rb)) << "draw " << i;
  }
}

TEST(Zipfian, MixRankScatters) {
  // MixRank must be deterministic and spread adjacent ranks apart so hot
  // keys do not all land on one destination host.
  EXPECT_EQ(MixRank(1), MixRank(1));
  std::map<uint64_t, int> dsts;
  for (uint64_t rank = 0; rank < 64; ++rank) {
    ++dsts[MixRank(rank) % 8];
  }
  EXPECT_GT(dsts.size(), 4u) << "adjacent ranks all map to the same buckets";
}

// ---------------------------------------------------------------------------
// Incast congestion-control claim
// ---------------------------------------------------------------------------

// Mirrors bench/ycsb_rack --compare: 3->1 incast over a single-switch rack
// with a shallow egress queue (40 KiB cap, 16 KiB ECN threshold).
YcsbReport RunIncast(bool cc_enabled) {
  YcsbConfig cfg;
  cfg.incast = true;
  cfg.sessions_per_host = 100000;
  cfg.ops_per_host_per_sec = 700000;
  cfg.max_outstanding_per_host = 256;
  cfg.duration = Us(1000);

  Profile profile = Profile10G();
  profile.roce.max_qps = 4 * cfg.qps_per_peer + 8;
  profile.roce.ecn_capable = cc_enabled;
  profile.roce.dcqcn.enable = cc_enabled;

  FabricTopologyConfig topo;
  topo.num_hosts = 4;
  topo.sw.egress_queue_bytes = 40 * 1024;
  topo.sw.ecn_threshold_bytes = 16 * 1024;

  Fabric fabric(profile, topo);
  YcsbEngine engine(fabric, cfg);
  engine.Setup();
  return engine.Run();
}

TEST(FabricIncast, EcnDcqcnCutsTailLatency) {
  const YcsbReport off = RunIncast(/*cc_enabled=*/false);
  const YcsbReport on = RunIncast(/*cc_enabled=*/true);

  ASSERT_FALSE(off.deadline_hit);
  ASSERT_FALSE(on.deadline_hit);
  ASSERT_GT(off.all.count(), 0u);
  ASSERT_GT(on.all.count(), 0u);

  // Without CC the unthrottled senders overflow the shallow victim queue and
  // pay go-back-N retransmission timeouts; nothing ECN-related happens.
  EXPECT_GT(off.tail_drops, 0u);
  EXPECT_EQ(off.ce_marked, 0u);
  EXPECT_EQ(off.rx_cnp, 0u);

  // With CC the switch marks, the victim echoes, the senders cut rate, and
  // the queue never reaches the drop point.
  EXPECT_GT(on.ce_marked, 0u);
  EXPECT_GT(on.rx_cnp, 0u);
  EXPECT_GT(on.rate_cuts, 0u);
  EXPECT_EQ(on.tail_drops, 0u);
  EXPECT_LT(on.queue_bytes_peak, off.queue_bytes_peak);

  const SimTime p999_off = off.all.Percentile(99.9);
  const SimTime p999_on = on.all.Percentile(99.9);
  EXPECT_LT(p999_on, p999_off)
      << "DCQCN must shorten the tail: off=" << ToUs(p999_off)
      << "us on=" << ToUs(p999_on) << "us";
}

// ---------------------------------------------------------------------------
// Egress/ECN determinism, serial and under 4 workers
// ---------------------------------------------------------------------------

struct IncastPoint {
  uint64_t ce_marked = 0;
  uint64_t rx_cnp = 0;
  uint64_t completed = 0;
  SimTime p999 = 0;
};

struct FabricTrial {
  std::vector<IncastPoint> points;
  std::map<std::string, std::string> capture_digests;  // suffix -> sha256
};

constexpr int kFabricPoints = 2;

FabricTrial RunFabricTrial(const std::string& tag, int jobs) {
  const std::string prefix = ::testing::TempDir() + "/fabric_det_" + tag;
  const TestbedTelemetryDefaults saved = Fabric::telemetry_defaults;
  Fabric::telemetry_defaults.capture_prefix = prefix;
  Fabric::telemetry_defaults.capture_runs = kFabricPoints;

  FabricTrial out;
  out.points.resize(kFabricPoints);
  ParallelFor(kFabricPoints, jobs, [&](size_t i) {
    Fabric::run_ordinal = static_cast<int64_t>(i);
    const YcsbReport r = RunIncast(/*cc_enabled=*/true);
    out.points[i] = IncastPoint{r.ce_marked, r.rx_cnp, r.ops_completed,
                                r.all.count() > 0 ? r.all.Percentile(99.9) : 0};
    Fabric::run_ordinal = -1;
  });

  Fabric::telemetry_defaults = saved;
  for (int run = 0; run < kFabricPoints; ++run) {
    const std::string run_part = run == 0 ? "" : ".run" + std::to_string(run);
    for (const char* kind :
         {"fabric", "node0.nic", "node1.nic", "node2.nic", "node3.nic"}) {
      const std::string suffix = run_part + "." + kind + ".pcapng";
      out.capture_digests[suffix] = Sha256File(prefix + suffix);
    }
  }
  return out;
}

TEST(FabricDeterminism, SameSeedIdenticalMarksAndCaptures) {
  const FabricTrial serial_a = RunFabricTrial("serial_a", 1);
  const FabricTrial serial_b = RunFabricTrial("serial_b", 1);
  const FabricTrial parallel = RunFabricTrial("parallel", 4);

  ASSERT_EQ(serial_a.points.size(), serial_b.points.size());
  for (int i = 0; i < kFabricPoints; ++i) {
    // The mark/echo counters and the tail are functions of the seed alone.
    EXPECT_EQ(serial_a.points[i].ce_marked, serial_b.points[i].ce_marked);
    EXPECT_EQ(serial_a.points[i].ce_marked, parallel.points[i].ce_marked);
    EXPECT_EQ(serial_a.points[i].rx_cnp, parallel.points[i].rx_cnp);
    EXPECT_EQ(serial_a.points[i].completed, parallel.points[i].completed);
    EXPECT_EQ(serial_a.points[i].p999, parallel.points[i].p999);
    EXPECT_GT(serial_a.points[i].ce_marked, 0u)
        << "a trial that never marks proves nothing";
  }
  // Byte-identical pcapng = identical frame bytes in identical order =
  // identical mark sequence, regardless of worker count.
  EXPECT_EQ(serial_a.capture_digests, serial_b.capture_digests);
  EXPECT_EQ(serial_a.capture_digests, parallel.capture_digests);
}

// ---------------------------------------------------------------------------
// Fault-plan link flap -> QP error -> ReconnectQp recovery (satellite: fabric
// links use the same error path as the 2-node cable)
// ---------------------------------------------------------------------------

TEST(FabricChaos, LinkFlapRoutesThroughQpRecovery) {
  constexpr Qpn kQp = 1;
  Profile profile = Profile10G();
  FabricTopologyConfig topo;
  topo.num_hosts = 4;
  Fabric fabric(profile, topo);

  // Host link ordinals follow host order, so link ordinal 1 is host 1's
  // cable and global side 2 is its node-side transmit direction. A 14 ms
  // flap is longer than the full retry budget (100us RTO doubling to the
  // 5 ms cap over 7 retries), so the requester MUST exhaust and error out.
  Result<FaultPlan> plan = FaultPlan::Parse(
      "seed 5\n"
      "link2 down 100us 14ms\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  fabric.ApplyFaultPlan(std::make_shared<const FaultPlan>(*plan));

  fabric.ConnectQp(1, kQp, 2, kQp);
  fabric.ConnectQp(0, kQp, 3, kQp);
  RoceDriver& drv1 = fabric.node(1).driver();
  RoceDriver& drv0 = fabric.node(0).driver();
  const VirtAddr src1 = drv1.AllocBuffer(KiB(64))->addr;
  const VirtAddr dst2 = fabric.node(2).driver().AllocBuffer(KiB(64))->addr;
  const VirtAddr src0 = drv0.AllocBuffer(KiB(64))->addr;
  const VirtAddr dst3 = fabric.node(3).driver().AllocBuffer(KiB(64))->addr;
  STROM_CHECK(drv1.WriteHost(src1, RandomBytes(KiB(64), 3)).ok());
  STROM_CHECK(drv0.WriteHost(src0, RandomBytes(KiB(64), 4)).ok());

  int reconnects = 0;
  bool reconnect_pending = false;
  const auto on_qp_error = [&](Qpn, const Status&) {
    if (reconnect_pending) {
      return;
    }
    reconnect_pending = true;
    fabric.sim().Schedule(Ms(1), [&] {
      ++reconnects;
      fabric.ReconnectQp(1, kQp, 2, kQp, Psn(20000 + 1000 * reconnects),
                         Psn(30000 + 1000 * reconnects));
      reconnect_pending = false;
    });
  };
  drv1.SetQpErrorHandler(on_qp_error);
  fabric.node(2).driver().SetQpErrorHandler(on_qp_error);

  // Op 1: before the flap; must complete cleanly.
  bool op1_done = false;
  Status op1_status;
  drv1.PostWrite(kQp, src1, dst2, 4096, [&](Status st) {
    op1_done = true;
    op1_status = st;
  });
  fabric.sim().RunUntil([&] { return op1_done; });
  EXPECT_TRUE(op1_status.ok()) << op1_status;

  // Op 2: lands inside the flap; the requester retries into the dead link,
  // exhausts the budget, and the QP must move to Error and flush the WQE.
  // RunFor (not RunUntil-on-now): with cancellable timers there may be no
  // event between the flap start and its end, and the clock must still stop
  // at 150us rather than jump across the whole down window.
  fabric.sim().RunFor(Us(150) - fabric.sim().now());
  bool op2_done = false;
  Status op2_status;
  drv1.PostWrite(kQp, src1, dst2, 4096, [&](Status st) {
    op2_done = true;
    op2_status = st;
  });

  // Bystander flow on untouched links keeps completing during the flap.
  bool bystander_done = false;
  Status bystander_status;
  drv0.PostWrite(kQp, src0, dst3, 4096, [&](Status st) {
    bystander_done = true;
    bystander_status = st;
  });

  fabric.sim().RunUntil([&] { return op2_done && bystander_done; });
  EXPECT_FALSE(op2_status.ok()) << "a flushed WQE must complete in error";
  EXPECT_TRUE(bystander_status.ok()) << bystander_status;
  EXPECT_GT(fabric.node(1).stack().counters().qp_errors, 0u);

  // Recovery: the error handler's resync must restore the connection.
  fabric.sim().RunUntil([&] { return !reconnect_pending; });
  EXPECT_EQ(reconnects, 1);
  if (fabric.sim().now() < Ms(15)) {
    fabric.sim().RunFor(Ms(15) - fabric.sim().now());
  }
  bool op3_done = false;
  Status op3_status;
  drv1.PostWrite(kQp, src1, dst2, 4096, [&](Status st) {
    op3_done = true;
    op3_status = st;
  });
  fabric.sim().RunUntil([&] { return op3_done; });
  EXPECT_TRUE(op3_status.ok()) << op3_status;
  EXPECT_GT(fabric.fault_engine()->counters().frames_dropped, 0u)
      << "the plan never bit: the flap missed the traffic";
}

// ---------------------------------------------------------------------------
// Leaf/spine routing smoke: the two-tier topology carries a mixed workload
// ---------------------------------------------------------------------------

TEST(FabricTopology, LeafSpineCarriesMixedWorkload) {
  YcsbConfig cfg;
  cfg.sessions_per_host = 1000;
  cfg.ops_per_host_per_sec = 100000;
  cfg.duration = Us(300);
  cfg.max_outstanding_per_host = 16;

  Profile profile = Profile10G();
  profile.roce.max_qps = 4 * cfg.qps_per_peer + 8;

  FabricTopologyConfig topo;
  topo.num_hosts = 4;
  topo.num_leaves = 2;
  topo.num_spines = 2;

  Fabric fabric(profile, topo);
  YcsbEngine engine(fabric, cfg);
  engine.Setup();
  const YcsbReport r = engine.Run();
  EXPECT_FALSE(r.deadline_hit);
  EXPECT_GT(r.ops_arrived, 0u);
  EXPECT_EQ(r.ops_completed, r.ops_arrived);
  EXPECT_EQ(r.ops_failed, 0u);
}

}  // namespace
}  // namespace strom
