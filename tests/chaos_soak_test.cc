// Chaos soak: randomized fault plans (MakeRandomPlan) over a mixed
// WRITE / READ / StRoM-RPC workload, asserting the error-path invariants:
//   * every operation reaches exactly one terminal state (completed or
//     errored) before a simulated-time watchdog deadline — nothing hangs,
//   * payloads that complete OK are CRC64-intact,
//   * the same seed produces byte-identical pcapng captures, with and
//     without abort-mode conservation auditors attached.
//
// Environment knobs (all optional; the CI chaos-soak job sets them):
//   STROM_CHAOS_SEED          run a single seed instead of the default set
//   STROM_CHAOS_PROFILE       "10g" (default) or "100g"
//   STROM_CHAOS_ARTIFACT_DIR  where to dump plan text + captures
//                             (default: the gtest temp dir)
//   STROM_CHAOS_AUDIT         non-empty: attach the conservation auditors and
//                             arm the flight recorder; a violation dumps a
//                             post-mortem bundle ("<prefix>.postmortem.*")
//                             into the artifact dir and fails the test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/crc.h"
#include "src/faults/fault_plan.h"
#include "src/telemetry/audit.h"
#include "src/kernels/traversal.h"
#include "src/kvs/linked_list.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"
#include "tests/sha256_test_util.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
constexpr uint32_t kValueSize = 64;
constexpr uint64_t kOpStride = 8192;  // per-op buffer slot (max op length)
constexpr int kOps = 36;
// Generous simulated-time budget per op: covers the worst random flap
// (horizon/10 = 1 ms) plus full backoff retransmission several times over.
constexpr SimTime kOpDeadline = Ms(40);
constexpr SimTime kPlanHorizon = Ms(10);

std::string EnvOr(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : fallback;
}

std::string ArtifactDir() {
  std::string dir = EnvOr("STROM_CHAOS_ARTIFACT_DIR", ::testing::TempDir());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
  if (!dir.empty() && dir.back() != '/') {
    dir += '/';
  }
  return dir;
}

// Saves/restores the process-wide telemetry defaults so audited and plain
// soaks compose in one process.
struct TelemetryDefaultsGuard {
  TelemetryDefaultsGuard() : saved(Testbed::telemetry_defaults) {}
  ~TelemetryDefaultsGuard() { Testbed::telemetry_defaults = saved; }
  TestbedTelemetryDefaults saved;
};

struct SoakResult {
  bool audited = false;
  uint64_t audit_checks = 0;
  uint64_t audit_violations = 0;
  int completed_ok = 0;
  int completed_error = 0;
  int watchdog_timeouts = 0;
  int crc_mismatches = 0;
  int double_completions = 0;
  int qp_error_events = 0;
  int reconnects = 0;
  FaultEngineCounters faults;
  std::string plan_text;
  std::vector<std::string> capture_paths;
};

uint64_t Crc(ByteSpan data) { return Crc64::Compute(data); }

// Runs one seeded soak. The Testbed lives inside so captures are flushed
// (writers destroyed) by the time the caller hashes the files.
// `abort_audit` attaches abort-mode auditors (a violation kills the process)
// whatever STROM_CHAOS_AUDIT says.
SoakResult RunSoak(uint64_t seed, const std::string& profile_name, const std::string& prefix,
                   bool abort_audit = false) {
  SoakResult result;
  const Profile profile = profile_name == "100g" ? Profile100G() : Profile10G();

  // Opt-in conservation audits (STROM_CHAOS_AUDIT, set by the CI chaos-soak
  // job): warn-mode auditors plus an armed flight recorder, so a violation
  // dumps a post-mortem bundle next to the plan/capture artifacts where the
  // CI failure-upload step ships it. The auditor must outlive the Testbed
  // because the conservation sweeps run at teardown.
  TelemetryDefaultsGuard defaults_guard;
  std::optional<Auditor> auditor;
  if (abort_audit || !EnvOr("STROM_CHAOS_AUDIT", "").empty()) {
    result.audited = true;
    auditor.emplace(abort_audit ? Auditor::Mode::kAbort : Auditor::Mode::kWarn);
    Testbed::telemetry_defaults.auditor = &*auditor;
    Testbed::telemetry_defaults.flight_recorder = true;
    Testbed::telemetry_defaults.postmortem_stem = prefix + ".postmortem";
  }

  std::optional<Testbed> bed_holder(std::in_place, profile);
  Testbed& bed = *bed_holder;
  result.capture_paths = bed.EnableCapture(prefix);

  const FaultPlan plan = MakeRandomPlan(seed, kPlanHorizon);
  result.plan_text = plan.ToString();
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(plan));
  bed.ConnectQp(0, kQp, 1, kQp);

  RoceDriver& drv0 = bed.node(0).driver();
  RoceDriver& drv1 = bed.node(1).driver();
  const VirtAddr write_src = drv0.AllocBuffer(MiB(1))->addr;
  const VirtAddr read_dst = drv0.AllocBuffer(MiB(1))->addr;
  const VirtAddr resp_region = drv0.AllocBuffer(MiB(1))->addr;
  const VirtAddr write_dst = drv1.AllocBuffer(MiB(1))->addr;
  const VirtAddr read_src = drv1.AllocBuffer(MiB(1))->addr;
  const VirtAddr elems = drv1.AllocBuffer(MiB(1))->addr;
  const VirtAddr values = drv1.AllocBuffer(MiB(1))->addr;

  // Seeded source data for READ ops.
  const ByteBuffer read_pool = RandomBytes(kOps * kOpStride, seed ^ 0xF00D);
  STROM_CHECK(drv1.WriteHost(read_src, read_pool).ok());

  // Remote linked list + traversal kernel for RPC ops (fig07 workload).
  const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
  STROM_CHECK(bed.node(1)
                  .engine()
                  .DeployKernel(std::make_unique<TraversalKernel>(bed.node(1).sim(), kc))
                  .ok());
  std::vector<uint64_t> keys;
  for (int i = 1; i <= 8; ++i) {
    keys.push_back(uint64_t(i) * 1000);
  }
  Result<RemoteLinkedList> list = RemoteLinkedList::Build(drv1, elems, values, keys, kValueSize, 17);
  STROM_CHECK(list.ok()) << list.status();

  // QP error handling: either side's handler schedules one resync that
  // resets both ends with fresh PSNs (out-of-band recovery, paper §4.3).
  bool reconnect_pending = false;
  const auto schedule_reconnect = [&] {
    ++result.qp_error_events;
    if (reconnect_pending) {
      return;
    }
    reconnect_pending = true;
    bed.sim().Schedule(Ms(1), [&] {
      ++result.reconnects;
      const Psn base = Psn(10000 + 1000 * result.reconnects);
      bed.ReconnectQp(0, kQp, 1, kQp, base, base + 40000);
      reconnect_pending = false;
    });
  };
  drv0.SetQpErrorHandler([&](Qpn, const Status&) { schedule_reconnect(); });
  drv1.SetQpErrorHandler([&](Qpn, const Status&) { schedule_reconnect(); });

  Rng rng(seed * 77 + 1);
  for (int op = 0; op < kOps; ++op) {
    // Pace ops across the plan horizon so every fault window overlaps
    // traffic; back-to-back ops would drain the workload in a fraction of
    // the horizon and most episodes would never bite.
    const SimTime op_start = SimTime(op) * kPlanHorizon / kOps;
    if (bed.sim().now() < op_start) {
      bed.sim().RunFor(op_start - bed.sim().now());
    }
    const SimTime deadline = bed.sim().now() + kOpDeadline;
    const int kind = op % 3;
    const uint32_t len = uint32_t(64) << rng.Below(8);  // 64 B .. 8 KiB
    const uint64_t slot = uint64_t(op) * kOpStride;
    const uint64_t errors_at_post = bed.node(0).stack().counters().qp_errors +
                                    bed.node(1).stack().counters().qp_errors;

    int completions = 0;
    Status status;
    ByteBuffer expected;
    VirtAddr rpc_status_addr = 0;
    const auto done = [&](Status st) {
      ++completions;
      status = st;
    };

    if (kind == 0) {  // WRITE node0 -> node1
      expected = RandomBytes(len, seed * 1000 + uint64_t(op));
      STROM_CHECK(drv0.WriteHost(write_src + slot, expected).ok());
      drv0.PostWrite(kQp, write_src + slot, write_dst + slot, len, done);
    } else if (kind == 1) {  // READ node1 -> node0
      expected.assign(read_pool.begin() + slot, read_pool.begin() + slot + len);
      drv0.PostRead(kQp, read_dst + slot, read_src + slot, len, done);
    } else {  // StRoM traversal RPC; terminal state is the status word
      const uint64_t key = keys[rng.Below(keys.size())];
      expected = list->ExpectedValue(key);
      rpc_status_addr = resp_region + slot + kValueSize;
      drv0.FillHost(resp_region + slot, kValueSize + 8, 0);
      drv0.PostRpc(kTraversalRpcOpcode, kQp, list->LookupParams(key, resp_region + slot).Encode(),
                   done);
    }

    // Drive the simulator until the op reaches a terminal state. For RPCs
    // the request completion is not terminal: wait for the kernel's status
    // word, or for a QP error that explains its absence.
    bool terminal = false;
    bool rpc_status_seen = false;
    while (!terminal) {
      if (kind == 2) {
        rpc_status_seen = drv0.ReadHostU64(rpc_status_addr) != 0;
        const uint64_t errors_now = bed.node(0).stack().counters().qp_errors +
                                    bed.node(1).stack().counters().qp_errors;
        if (rpc_status_seen) {
          terminal = true;
          break;
        }
        if (completions > 0 && (!status.ok() || errors_now > errors_at_post)) {
          terminal = true;  // request flushed or a QP died: response won't come
          break;
        }
      } else if (completions > 0) {
        terminal = true;
        break;
      }
      if (bed.sim().now() >= deadline) {
        break;
      }
      if (!bed.sim().Step()) {
        break;  // queue drained with the op still pending
      }
    }

    if (completions > 1) {
      ++result.double_completions;
    }
    if (!terminal) {
      ++result.watchdog_timeouts;
      ADD_FAILURE() << "op " << op << " (kind " << kind << ", len " << len
                    << ") hit the watchdog at sim time " << bed.sim().now();
      continue;
    }

    // The network completion (ACK) can race the responder's PCIe write to
    // host memory; drain the queue so landed payloads are visible before
    // the integrity check.
    bed.sim().RunUntilIdle();

    // Classify + integrity-check the terminal state.
    if (kind == 0 && status.ok()) {
      Result<ByteBuffer> landed = drv1.ReadHost(write_dst + slot, len);
      if (!landed.ok() || Crc(*landed) != Crc(expected)) {
        ++result.crc_mismatches;
      }
      ++result.completed_ok;
    } else if (kind == 1 && status.ok()) {
      Result<ByteBuffer> landed = drv0.ReadHost(read_dst + slot, len);
      if (!landed.ok() || Crc(*landed) != Crc(expected)) {
        ++result.crc_mismatches;
      }
      ++result.completed_ok;
    } else if (kind == 2 && rpc_status_seen) {
      const uint64_t status_word = drv0.ReadHostU64(rpc_status_addr);
      if (StatusWordCode(status_word) == KernelStatusCode::kOk) {
        Result<ByteBuffer> landed = drv0.ReadHost(resp_region + slot, kValueSize);
        if (!landed.ok() || Crc(*landed) != Crc(expected)) {
          ++result.crc_mismatches;
        }
        ++result.completed_ok;
      } else {
        ++result.completed_error;  // kernel reported the fault; no hang
      }
    } else {
      ++result.completed_error;
    }

    // If a resync is in flight, let it land before the next op posts.
    if (reconnect_pending) {
      bed.sim().RunUntil([&] { return !reconnect_pending; });
    }
  }

  bed.sim().RunUntilIdle();
  result.faults = bed.fault_engine()->counters();
  bed_holder.reset();  // teardown runs the conservation sweeps
  if (auditor) {
    result.audit_checks = auditor->checks();
    result.audit_violations = auditor->violations();
  }
  return result;
}

void CheckInvariants(const SoakResult& r, uint64_t seed, const std::string& profile) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " profile " + profile + "\nplan:\n" + r.plan_text);
  EXPECT_EQ(r.watchdog_timeouts, 0);
  EXPECT_EQ(r.crc_mismatches, 0);
  EXPECT_EQ(r.double_completions, 0);
  if (r.audited) {
    // Counted drops/delays/duplicates conserve frames; only genuinely lost
    // accounting (the bug class the auditors exist for) trips this. The
    // dumped "<prefix>.postmortem" bundle localizes the offender.
    EXPECT_GT(r.audit_checks, 0u) << "auditor attached but never consulted";
    EXPECT_EQ(r.audit_violations, 0u)
        << "conservation audit tripped; decode the bundle with stromtrace --postmortem";
  }
  EXPECT_EQ(r.completed_ok + r.completed_error, kOps)
      << "every op must reach exactly one terminal state";
  // The randomized plans always include a link flap; the workload must make
  // real progress around it.
  EXPECT_GT(r.completed_ok, 0);
  // The plan must actually have bitten: a soak where no fault ever fired
  // proves nothing about the error paths.
  EXPECT_GT(r.faults.frames_dropped + r.faults.frames_delayed + r.faults.frames_duplicated +
                r.faults.dma_read_errors + r.faults.dma_write_errors,
            0u);
  std::printf("  [soak] seed=%llu profile=%s ok=%d err=%d qp_errors=%d reconnects=%d "
              "dropped=%llu delayed=%llu duplicated=%llu dma_err=%llu\n",
              (unsigned long long)seed, profile.c_str(), r.completed_ok, r.completed_error,
              r.qp_error_events, r.reconnects, (unsigned long long)r.faults.frames_dropped,
              (unsigned long long)r.faults.frames_delayed,
              (unsigned long long)r.faults.frames_duplicated,
              (unsigned long long)(r.faults.dma_read_errors + r.faults.dma_write_errors));
}

void DumpArtifacts(const SoakResult& r, const std::string& prefix) {
  std::ofstream out(prefix + ".plan.txt", std::ios::binary | std::ios::trunc);
  out << r.plan_text;
}

TEST(ChaosSoak, SeededPlansCompleteOrError) {
  const std::string profile = EnvOr("STROM_CHAOS_PROFILE", "10g");
  // Default set mixes clean-recovery seeds with ones whose plans include a
  // DMA-error episode, driving the full QP Error -> flush -> reconnect ->
  // resume path (seeds 10, 16, 21 at the current MakeRandomPlan).
  std::vector<uint64_t> seeds{1, 10, 16, 21};
  const std::string seed_env = EnvOr("STROM_CHAOS_SEED", "");
  if (!seed_env.empty()) {
    seeds = {std::strtoull(seed_env.c_str(), nullptr, 10)};
  }
  for (const uint64_t seed : seeds) {
    const std::string prefix =
        ArtifactDir() + "chaos_seed" + std::to_string(seed) + "_" + profile;
    const SoakResult r = RunSoak(seed, profile, prefix);
    DumpArtifacts(r, prefix);
    CheckInvariants(r, seed, profile);
  }
}

TEST(ChaosSoak, SameSeedProducesIdenticalCaptures) {
  const std::string profile = EnvOr("STROM_CHAOS_PROFILE", "10g");
  const uint64_t seed = std::strtoull(EnvOr("STROM_CHAOS_SEED", "1").c_str(), nullptr, 10);
  const std::string dir = ArtifactDir();
  // The second pair runs under abort-mode conservation auditors: they must
  // not trip, and the audited rerun must be byte-identical too.
  for (const bool abort_audit : {false, true}) {
    SCOPED_TRACE(abort_audit ? "abort-mode audit" : "no audit");
    const std::string stem = dir + (abort_audit ? "chaos_rerun_abort_" : "chaos_rerun_");
    const SoakResult a = RunSoak(seed, profile, stem + "a", abort_audit);
    const SoakResult b = RunSoak(seed, profile, stem + "b", abort_audit);
    CheckInvariants(a, seed, profile);

    EXPECT_EQ(a.plan_text, b.plan_text);
    EXPECT_EQ(a.completed_ok, b.completed_ok);
    EXPECT_EQ(a.completed_error, b.completed_error);
    EXPECT_EQ(a.reconnects, b.reconnects);
    EXPECT_EQ(a.audit_checks, b.audit_checks);
    ASSERT_EQ(a.capture_paths.size(), b.capture_paths.size());
    for (size_t i = 0; i < a.capture_paths.size(); ++i) {
      EXPECT_EQ(Sha256File(a.capture_paths[i]), Sha256File(b.capture_paths[i]))
          << a.capture_paths[i] << " vs " << b.capture_paths[i];
    }
  }
}

}  // namespace
}  // namespace strom
