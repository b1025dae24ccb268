// Tests for the online conservation auditors (src/telemetry/audit.h): clean
// runs pass every check, an injected silent drop (a frame that vanishes
// without touching a drop counter) trips link conservation, a deliberately
// leaked FrameBuf trips the pool leak sweep (also across worker threads),
// abort mode dies loudly, and an audit violation dumps a flight-recorder
// bundle whose reason localizes the offender — the reporting sweep point's
// own bundle when several points run on --jobs workers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <string>
#include <vector>

#include "src/common/frame_buf.h"
#include "src/common/parallel.h"
#include "src/faults/fault_engine.h"
#include "src/faults/fault_plan.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/flight_recorder.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Saves/restores the process-wide defaults so tests compose in any order.
struct DefaultsGuard {
  DefaultsGuard() : saved(Testbed::telemetry_defaults) {}
  ~DefaultsGuard() { Testbed::telemetry_defaults = saved; }
  TestbedTelemetryDefaults saved;
};

// Drives `writes` completed WRITEs across a fresh two-node testbed built
// under the current telemetry defaults. Returns the silent-drop ground truth
// from the fault engine (0 when no plan is attached).
// `on_built`, if set, runs right after the testbed is constructed.
uint64_t RunWrites(const std::string& plan_text, int writes,
                   const std::function<void(Testbed&)>& on_built = {}) {
  Testbed bed(Profile10G());
  if (on_built) {
    on_built(bed);
  }
  if (!plan_text.empty()) {
    Result<FaultPlan> plan = FaultPlan::Parse(plan_text);
    EXPECT_TRUE(plan.ok()) << plan.status();
    bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  }
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  EXPECT_TRUE(bed.node(0).driver().WriteHost(local, RandomBytes(4096, 11)).ok());

  int done = 0;
  for (int i = 0; i < writes; ++i) {
    bed.node(0).driver().PostWrite(kQp, local, remote, 4096, [&done](Status st) {
      EXPECT_TRUE(st.ok()) << st;
      ++done;
    });
  }
  bed.sim().RunUntil([&] { return done == writes; });
  bed.sim().RunUntilIdle();
  EXPECT_EQ(done, writes);
  return bed.fault_engine() != nullptr
             ? bed.fault_engine()->counters().frames_silently_dropped
             : 0;
}

TEST(Audit, CleanRunPassesEveryCheck) {
  DefaultsGuard guard;
  Auditor auditor(Auditor::Mode::kWarn);
  Testbed::telemetry_defaults.auditor = &auditor;
  RunWrites("", 32);
  EXPECT_GT(auditor.checks(), 0u) << "auditor was attached but checked nothing";
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST(Audit, SilentDropTripsLinkConservation) {
  DefaultsGuard guard;
  Auditor auditor(Auditor::Mode::kWarn);
  Testbed::telemetry_defaults.auditor = &auditor;
  // Silently drop ~20% of frames on every link side: go-back-N still
  // completes the workload, but sent != delivered + dropped at teardown.
  const uint64_t silent = RunWrites("seed 4\nlink* silent_drop 0us - p=0.2\n", 32);
  EXPECT_GT(silent, 0u) << "plan injected no silent drops";
  EXPECT_GT(auditor.violations(), 0u)
      << "silent drops must break link frame conservation";
}

TEST(Audit, SilentDropWithoutAuditorGoesUnnoticed) {
  // The control for the test above: the same plan with no auditor attached
  // completes cleanly — exactly the failure mode the auditors exist to catch.
  DefaultsGuard guard;
  Testbed::telemetry_defaults.auditor = nullptr;
  const uint64_t silent = RunWrites("seed 4\nlink* silent_drop 0us - p=0.2\n", 32);
  EXPECT_GT(silent, 0u);
}

TEST(AuditDeathTest, AbortModeDiesOnViolation) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DefaultsGuard guard;
        Auditor auditor(Auditor::Mode::kAbort);
        Testbed::telemetry_defaults.auditor = &auditor;
        RunWrites("seed 4\nlink* silent_drop 0us - p=0.2\n", 32);
      },
      "VIOLATION");
}

TEST(Audit, ViolationDumpsLocalizedBundle) {
  DefaultsGuard guard;
  const std::string stem = TempPath("audit_violation_bundle");
  Auditor auditor(Auditor::Mode::kWarn);
  Testbed::telemetry_defaults.auditor = &auditor;
  Testbed::telemetry_defaults.flight_recorder = true;
  Testbed::telemetry_defaults.postmortem_stem = stem;
  RunWrites("seed 4\nlink* silent_drop 0us - p=0.2\n", 32);
  ASSERT_GT(auditor.violations(), 0u);

  // The first violation dumped the bundle; the teardown's explicit dump is a
  // no-op after that, so the reason preserves the audit scene.
  Result<FlightRecordBundle> bundle = LoadFlightRecords(stem + ".flightrec.bin");
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle->reason.rfind("audit: ", 0), 0u) << bundle->reason;
  EXPECT_NE(bundle->reason.find("conservation"), std::string::npos)
      << "reason must localize the failed invariant: " << bundle->reason;
  EXPECT_EQ(bundle->hosts.size(), 2u);
}

TEST(Audit, ViolationDumpsOnlyTheReportingPointsRecorder) {
  // Two sweep points on two workers share one auditor and each own a flight
  // recorder. Point 1 builds its testbed after point 0 does, and point 0
  // then violates link conservation: the dump must be point 0's bundle, and
  // point 1's clean run must dump nothing.
  DefaultsGuard guard;
  Auditor auditor(Auditor::Mode::kWarn);
  Testbed::telemetry_defaults.auditor = &auditor;
  Testbed::telemetry_defaults.flight_recorder = true;
  const std::string stems[2] = {TempPath("audit_point0"), TempPath("audit_point1")};
  for (const std::string& stem : stems) {
    std::remove((stem + ".flightrec.bin").c_str());
  }
  std::atomic<int> built{0};
  auto wait_for = [&built](int n) {
    while (built.load() < n) {
      std::this_thread::yield();
    }
  };
  // Each point blocks until the other has started, so the two run on
  // different workers.
  ParallelFor(2, 2, [&](size_t i) {
    auto own_stem = [&](Testbed& bed) {
      bed.flight_recorder()->set_auto_dump_stem(stems[i]);
      built.fetch_add(1);
    };
    if (i == 0) {
      RunWrites("seed 4\nlink* silent_drop 0us - p=0.2\n", 32, [&](Testbed& bed) {
        own_stem(bed);
        wait_for(2);
      });
    } else {
      wait_for(1);
      RunWrites("", 32, own_stem);
    }
  });
  ASSERT_GT(auditor.violations(), 0u);

  Result<FlightRecordBundle> bundle = LoadFlightRecords(stems[0] + ".flightrec.bin");
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle->reason.rfind("audit: ", 0), 0u) << bundle->reason;
  EXPECT_FALSE(LoadFlightRecords(stems[1] + ".flightrec.bin").ok())
      << "a violation on point 0 dumped point 1's recorder";
}

TEST(Audit, FrameBufLeakSweepTrips) {
  const uint64_t before = FrameBlocksOutstanding();
  auto leaked = std::make_unique<FrameBuf>(FrameBuf::Allocate(256));
  ASSERT_GT(FrameBlocksOutstanding(), before);

  // The sweep bench_util runs at exit, in miniature.
  Auditor auditor(Auditor::Mode::kWarn);
  auditor.Expect(FrameBlocksOutstanding() == before, "frame pool leak");
  EXPECT_EQ(auditor.violations(), 1u);

  leaked.reset();
  EXPECT_EQ(FrameBlocksOutstanding(), before);
  Auditor clean(Auditor::Mode::kWarn);
  clean.Expect(FrameBlocksOutstanding() == before, "frame pool leak");
  EXPECT_EQ(clean.violations(), 0u);
}

TEST(Audit, FrameBufLeakSweepTripsAcrossWorkers) {
  // The census is per thread, folded in when a worker exits, so it must be
  // exact once ParallelFor has joined (the --jobs sweep runner's case).
  const uint64_t before = FrameBlocksOutstanding();
  ParallelFor(4, 4, [](size_t i) {
    std::vector<FrameBuf> frames;
    for (size_t n = 0; n < 16 * (i + 1); ++n) {
      frames.push_back(FrameBuf::Allocate(64 << (n % 8)));
    }
  });
  EXPECT_EQ(FrameBlocksOutstanding(), before);

  // A block allocated on a worker and handed to the main thread stays
  // counted until the main thread releases it.
  std::vector<FrameBuf> handed(4);
  ParallelFor(4, 4, [&handed](size_t i) { handed[i] = FrameBuf::Allocate(256); });
  EXPECT_EQ(FrameBlocksOutstanding(), before + 4);
  Auditor auditor(Auditor::Mode::kWarn);
  auditor.Expect(FrameBlocksOutstanding() == before, "frame pool leak");
  EXPECT_EQ(auditor.violations(), 1u);

  handed.clear();
  EXPECT_EQ(FrameBlocksOutstanding(), before);
}

TEST(Audit, ExpectCountsChecksAndViolations) {
  Auditor auditor(Auditor::Mode::kWarn);
  auditor.Expect(true, "fine");
  auditor.NoteCheck();
  auditor.Expect(false, "broken");
  EXPECT_EQ(auditor.checks(), 3u);
  EXPECT_EQ(auditor.violations(), 1u);
}

// With an auditor and no other sink, a PSN violation must still name the
// stack that saw it. A READ of 4 GiB - 1 at a 512-byte payload MTU spans
// exactly half the 24-bit PSN space, so the responder's ePSN "advance" reads
// as a step backwards: the inline ePSN audit fires on host 2, the responder.
TEST(Audit, PsnViolationNamesTheReportingHost) {
  DefaultsGuard guard;
  Auditor auditor(Auditor::Mode::kWarn);
  Testbed::telemetry_defaults = TestbedTelemetryDefaults{};
  Testbed::telemetry_defaults.auditor = &auditor;
  Profile profile = Profile10G();
  profile.roce.ip_mtu = 572;  // RoCE payload per packet: 512 bytes
  profile.link.ip_mtu = 572;
  FabricTopologyConfig topo;
  topo.num_hosts = 3;
  std::string log;
  {
    Fabric fabric(profile, topo);
    fabric.ConnectQp(0, kQp, 2, kQp);
    const VirtAddr local = fabric.node(0).driver().AllocBuffer(MiB(1))->addr;
    const VirtAddr remote = fabric.node(2).driver().AllocBuffer(MiB(1))->addr;
    ::testing::internal::CaptureStderr();
    fabric.node(0).driver().PostRead(kQp, local, remote, 0xFFFFFFFFu);
    fabric.sim().RunUntil([&] { return auditor.violations() > 0; });
    log = ::testing::internal::GetCapturedStderr();
  }
  ASSERT_GT(auditor.violations(), 0u);
  EXPECT_NE(log.find("host2 qp1 epsn did not advance"), std::string::npos) << log;
}

}  // namespace
}  // namespace strom
