// Tests for the flight recorder (src/telemetry/flight_recorder.h): ring
// semantics, the serialized bundle round-tripping every record type, dump
// idempotence, same-seed runs producing byte-identical bundles, the
// per-thread current-run recorder, and the stromtrace post-mortem inspector
// decoding and cross-checking a bundle.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/frame_buf.h"
#include "src/telemetry/flight_recorder.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"
#include "tools/stromtrace/inspector.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

struct DefaultsGuard {
  DefaultsGuard() : saved(Testbed::telemetry_defaults) {}
  ~DefaultsGuard() { Testbed::telemetry_defaults = saved; }
  TestbedTelemetryDefaults saved;
};

bool RecordsEqual(const FlightRecord& a, const FlightRecord& b) {
  return a.t_ps == b.t_ps && a.qpn == b.qpn && a.psn == b.psn && a.aux == b.aux &&
         a.host == b.host && a.type == b.type && a.opcode == b.opcode;
}

// One record of every type, fields chosen so no two records share a value.
std::vector<FlightRecord> AllTypeRecords() {
  std::vector<FlightRecord> records;
  uint32_t n = 1;
  for (const FlightRecordType type :
       {FlightRecordType::kTx, FlightRecordType::kRx, FlightRecordType::kNak,
        FlightRecordType::kCnp, FlightRecordType::kQpState, FlightRecordType::kRetransmit,
        FlightRecordType::kTimeout, FlightRecordType::kAudit}) {
    FlightRecord r;
    r.t_ps = uint64_t(Us(n));
    r.qpn = 100 + n;
    r.psn = 1000 + n;
    r.aux = 10 + n;
    r.host = uint16_t(n % 2);
    r.type = uint8_t(type);
    r.opcode = uint8_t(n);
    records.push_back(r);
    ++n;
  }
  return records;
}

TEST(FlightRecorder, RingKeepsNewestOldestFirst) {
  FlightRecorder recorder(1, /*ring_capacity=*/4);
  for (uint32_t i = 0; i < 6; ++i) {
    recorder.Record(Us(i), 0, FlightRecordType::kTx, 0, kQp, i, 0);
  }
  EXPECT_EQ(recorder.records_written(), 6u);
  const std::vector<FlightRecord> records = recorder.HostRecords(0);
  ASSERT_EQ(records.size(), 4u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].psn, 2 + i) << "ring must keep the newest, oldest-first";
  }
  // Out-of-range hosts are ignored, not fatal (the hot path cannot CHECK).
  recorder.Record(Us(9), 7, FlightRecordType::kTx, 0, kQp, 9, 0);
  EXPECT_TRUE(recorder.HostRecords(7).empty());
}

TEST(FlightRecorder, BundleRoundTripsEveryRecordType) {
  const std::string stem = TempPath("fr_roundtrip");
  FlightRecorder recorder(2);
  const std::vector<FlightRecord> written = AllTypeRecords();
  for (const FlightRecord& r : written) {
    recorder.Record(SimTime(r.t_ps), r.host, static_cast<FlightRecordType>(r.type),
                    r.opcode, r.qpn, r.psn, r.aux);
  }
  ASSERT_TRUE(recorder.Dump(stem, "unit test").ok());

  Result<FlightRecordBundle> bundle = LoadFlightRecords(stem + ".flightrec.bin");
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle->reason, "unit test");
  ASSERT_EQ(bundle->hosts.size(), 2u);
  size_t matched = 0;
  for (const FlightRecord& w : written) {
    for (const FlightRecord& r : bundle->hosts[w.host]) {
      if (RecordsEqual(w, r)) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_EQ(matched, written.size()) << "every record type must survive the round trip";
}

TEST(FlightRecorder, DumpIsIdempotent) {
  const std::string stem = TempPath("fr_idempotent");
  FlightRecorder recorder(1);
  recorder.Record(Us(1), 0, FlightRecordType::kTx, 0, kQp, 1, 0);
  ASSERT_TRUE(recorder.Dump(stem, "first").ok());
  EXPECT_TRUE(recorder.dumped());
  const std::string first = ReadFileBytes(stem + ".flightrec.bin");

  // A later trigger must not overwrite the original scene.
  recorder.Record(Us(2), 0, FlightRecordType::kTimeout, 0, kQp, 2, 1);
  ASSERT_TRUE(recorder.Dump(stem, "second").ok());
  EXPECT_EQ(ReadFileBytes(stem + ".flightrec.bin"), first);
  EXPECT_FALSE(recorder.DumpAuto("third"));
}

TEST(FlightRecorder, DumpAutoRequiresStem) {
  FlightRecorder recorder(1);
  recorder.Record(Us(1), 0, FlightRecordType::kTx, 0, kQp, 1, 0);
  EXPECT_FALSE(recorder.DumpAuto("no stem configured"));
  EXPECT_FALSE(recorder.dumped());
}

// Runs a deterministic write workload with the flight recorder armed and a
// teardown bundle dump; returns the stem.
std::string RunRecordedWorkload(const std::string& stem) {
  DefaultsGuard guard;
  Testbed::telemetry_defaults.flight_recorder = true;
  Testbed::telemetry_defaults.postmortem_stem = stem;
  {
    Testbed bed(Profile10G());
    bed.ConnectQp(0, kQp, 1, kQp);
    const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
    const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
    EXPECT_TRUE(bed.node(0).driver().WriteHost(local, RandomBytes(4096, 13)).ok());
    int done = 0;
    for (int i = 0; i < 24; ++i) {
      bed.node(0).driver().PostWrite(kQp, local, remote, 4096,
                                     [&done](Status st) { done += st.ok(); });
    }
    bed.sim().RunUntil([&] { return done == 24; });
    bed.sim().RunUntilIdle();
    EXPECT_EQ(done, 24);
  }
  return stem;
}

TEST(FlightRecorder, SameSeedRunsProduceByteIdenticalBundles) {
  const std::string a = RunRecordedWorkload(TempPath("fr_det_a"));
  const std::string b = RunRecordedWorkload(TempPath("fr_det_b"));
  for (const char* suffix : {".flightrec.bin", ".frames.pcapng", ".metrics.csv"}) {
    const std::string bytes_a = ReadFileBytes(a + suffix);
    EXPECT_FALSE(bytes_a.empty()) << a << suffix;
    EXPECT_EQ(bytes_a, ReadFileBytes(b + suffix))
        << suffix << " must be byte-identical across same-seed runs";
  }
}

TEST(FlightRecorder, CurrentRecorderIsPerThread) {
  // A run on another thread (a --jobs worker) building and tearing down its
  // own recorder must leave the recorder this thread's fatal hook and
  // auditor dump untouched.
  DefaultsGuard guard;
  Testbed::telemetry_defaults.flight_recorder = true;
  Testbed bed(Profile10G());
  ASSERT_NE(bed.flight_recorder(), nullptr);
  EXPECT_EQ(CurrentFlightRecorder(), bed.flight_recorder());
  std::thread other([] {
    Testbed second(Profile10G());
    EXPECT_EQ(CurrentFlightRecorder(), second.flight_recorder());
  });
  other.join();
  EXPECT_EQ(CurrentFlightRecorder(), bed.flight_recorder());
}

TEST(Postmortem, InspectorDecodesAndCrossChecksBundle) {
  const std::string stem = RunRecordedWorkload(TempPath("fr_inspect"));
  Result<PostmortemReport> pm = InspectPostmortem(stem);
  ASSERT_TRUE(pm.ok()) << pm.status();
  EXPECT_EQ(pm->reason, "explicit");
  EXPECT_EQ(pm->hosts.size(), 2u);
  EXPECT_GT(pm->records, 0u);
  EXPECT_GT(pm->type_counts[uint8_t(FlightRecordType::kTx)], 0u);
  EXPECT_GT(pm->type_counts[uint8_t(FlightRecordType::kRx)], 0u);
  EXPECT_TRUE(pm->have_frames);
  EXPECT_GT(pm->frames, 0u);
  EXPECT_EQ(pm->frames_matched, pm->frames)
      << "every captured frame must match a tx/rx ring record";
  EXPECT_TRUE(pm->inconsistencies.empty())
      << "clean bundle flagged: " << pm->inconsistencies.front();
  const std::string text = FormatPostmortemReport(*pm);
  EXPECT_NE(text.find("reason: explicit"), std::string::npos);
}

TEST(Postmortem, InspectorFlagsFrameWithoutRingRecord) {
  const std::string stem = TempPath("fr_mismatch");
  FlightRecorder recorder(1);
  // An old record puts the frame below inside the ring's retention window...
  recorder.Record(Us(1), 0, FlightRecordType::kQpState, 0, kQp, 0, 1);
  // ...but the frame itself never got a matching kTx record.
  FrameBuf frame = FrameBuf::Allocate(64);
  recorder.RecordFrame(Us(5), 0, /*tx=*/true, frame);
  ASSERT_TRUE(recorder.Dump(stem, "mismatch test").ok());

  Result<PostmortemReport> pm = InspectPostmortem(stem);
  ASSERT_TRUE(pm.ok()) << pm.status();
  EXPECT_EQ(pm->frames, 1u);
  EXPECT_EQ(pm->frames_matched, 0u);
  ASSERT_FALSE(pm->inconsistencies.empty());
  EXPECT_NE(pm->inconsistencies.front().find("no matching tx record"), std::string::npos)
      << pm->inconsistencies.front();
}

TEST(Postmortem, MissingBundleIsAnError) {
  EXPECT_FALSE(InspectPostmortem(TempPath("fr_nonexistent")).ok());
}

TEST(Postmortem, RecoveryTimelineReconstructsCrashStory) {
  // Synthesize the full record sequence of one NIC bounce observed by two
  // survivors: crash -> per-host dead-peer detection -> backoff attempts ->
  // restart -> lease re-acquire -> first post-restart delivery. The
  // inspector must stitch it into one RecoveryTimeline with per-observer
  // phase times, and --faults must render it.
  FlightRecorder recorder(3);
  // nic1 dies at 100us; survivors notice via lease expiry.
  recorder.Record(Us(100), 1, FlightRecordType::kCrash, /*opcode=*/1, 0, 0, 1);
  recorder.Record(Us(110), 0, FlightRecordType::kPeerDead, 0, 0, 0, 1);
  recorder.Record(Us(112), 2, FlightRecordType::kPeerDead, 0, 0, 0, 1);
  recorder.Record(Us(115), 0, FlightRecordType::kReconnectAttempt, 0, 0, /*attempt=*/0, 1);
  recorder.Record(Us(117), 2, FlightRecordType::kReconnectAttempt, 0, 0, 0, 1);
  recorder.Record(Us(125), 0, FlightRecordType::kReconnectAttempt, 0, 0, 1, 1);
  recorder.Record(Us(200), 1, FlightRecordType::kRestart, 1, 0, 0, 1);
  recorder.Record(Us(205), 0, FlightRecordType::kLeaseAcquired, 0, 0, 0, 1);
  recorder.Record(Us(207), 2, FlightRecordType::kLeaseAcquired, 0, 0, 0, 1);
  recorder.Record(Us(210), 1, FlightRecordType::kRx, 0, kQp, 1001, 0);
  const std::string stem = TempPath("fr_recovery");
  ASSERT_TRUE(recorder.Dump(stem, "crash: nic1").ok());

  Result<PostmortemReport> pm = InspectPostmortem(stem);
  ASSERT_TRUE(pm.ok()) << pm.status();
  ASSERT_EQ(pm->recoveries.size(), 1u);
  const RecoveryTimeline& r = pm->recoveries[0];
  EXPECT_EQ(r.what, "nic1");
  EXPECT_EQ(r.kind, 1);
  EXPECT_EQ(r.target, 1);
  EXPECT_EQ(r.crash, Us(100));
  EXPECT_EQ(r.restart, Us(200));
  EXPECT_EQ(r.first_rx_after_restart, Us(210));
  ASSERT_EQ(r.observers.size(), 2u);
  EXPECT_EQ(r.observers[0].host, 0);
  EXPECT_EQ(r.observers[0].detected, Us(110));
  EXPECT_EQ(r.observers[0].first_attempt, Us(115));
  EXPECT_EQ(r.observers[0].attempts, 2);
  EXPECT_EQ(r.observers[0].reacquired, Us(205));
  EXPECT_EQ(r.observers[1].host, 2);
  EXPECT_EQ(r.observers[1].attempts, 1);
  EXPECT_EQ(r.observers[1].reacquired, Us(207));

  const std::string text =
      FormatPostmortemReport(*pm, /*timeline=*/false, /*faults=*/true);
  EXPECT_NE(text.find("recovery timelines:"), std::string::npos) << text;
  EXPECT_NE(text.find("nic1 crash @ 100.000 us"), std::string::npos) << text;
  EXPECT_NE(text.find("lease re-acquired"), std::string::npos) << text;
  // Without --faults the report only hints at the crash count.
  const std::string brief = FormatPostmortemReport(*pm);
  EXPECT_EQ(brief.find("recovery timelines:"), std::string::npos);
  EXPECT_NE(brief.find("--faults"), std::string::npos);
}

TEST(Postmortem, CrashStopShowsNoRestart) {
  FlightRecorder recorder(2);
  recorder.Record(Us(50), 1, FlightRecordType::kCrash, /*opcode=*/0, 0, 0, 1);
  recorder.Record(Us(60), 0, FlightRecordType::kPeerDead, 0, 0, 0, 1);
  recorder.Record(Us(65), 0, FlightRecordType::kReconnectAttempt, 0, 0, 0, 1);
  const std::string stem = TempPath("fr_crashstop");
  ASSERT_TRUE(recorder.Dump(stem, "crash: host1").ok());

  Result<PostmortemReport> pm = InspectPostmortem(stem);
  ASSERT_TRUE(pm.ok()) << pm.status();
  ASSERT_EQ(pm->recoveries.size(), 1u);
  const RecoveryTimeline& r = pm->recoveries[0];
  EXPECT_EQ(r.what, "host1");
  EXPECT_EQ(r.restart, -1);
  EXPECT_EQ(r.first_rx_after_restart, -1);
  ASSERT_EQ(r.observers.size(), 1u);
  EXPECT_EQ(r.observers[0].reacquired, -1);
  EXPECT_EQ(r.observers[0].attempts, 1);  // counted to ring end, never re-acquired
}

}  // namespace
}  // namespace strom
