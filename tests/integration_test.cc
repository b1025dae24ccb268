// Cross-module integration and property tests: profile-parameterized data
// integrity sweeps, PSN wrap-around, kernels under packet loss, randomized
// traversal structures verified against a host-side reference, and the 100 G
// profile's headline behaviours.
#include <gtest/gtest.h>

#include "src/kernels/hll.h"
#include "src/kernels/shuffle.h"
#include "src/kernels/traversal.h"
#include "src/kvs/linked_list.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

// ---------------------------------------------------------------------------
// Parameterized payload-integrity sweep over both profiles.
// ---------------------------------------------------------------------------

// gtest prints a param without operator<< as a raw byte dump, and ctest test
// names embed that dump, so the struct carries its padding as zeroed bytes:
// left implicit, it holds stack garbage and the names change from build to build.
struct SweepParam {
  constexpr SweepParam(bool use_100g_in, size_t payload_in)
      : use_100g(use_100g_in), payload(payload_in) {}
  bool use_100g;
  uint8_t reserved[7] = {};
  size_t payload;
};
static_assert(sizeof(SweepParam) == 16, "SweepParam must have no implicit padding");

class PayloadSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PayloadSweep, WriteThenReadBackIsLossless) {
  const SweepParam p = GetParam();
  Testbed bed(p.use_100g ? Profile100G() : Profile10G());
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(p.payload + kHugePageSize)->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(p.payload + kHugePageSize)->addr;

  ByteBuffer data = RandomBytes(p.payload, p.payload);
  ASSERT_TRUE(bed.node(0).driver().WriteHost(local, data).ok());

  bool write_done = false;
  bed.node(0).driver().PostWrite(kQp, local, remote, static_cast<uint32_t>(p.payload),
                                 [&](Status st) {
                                   EXPECT_TRUE(st.ok()) << st;
                                   write_done = true;
                                 });
  bed.sim().RunUntil([&] { return write_done; });
  ASSERT_TRUE(write_done);
  // The host CPU observes the posted DMA write once it lands in DRAM.
  bed.sim().RunUntilIdle();
  EXPECT_EQ(*bed.node(1).driver().ReadHost(remote, p.payload), data);

  // Read it back through the other verb.
  bool read_done = false;
  const VirtAddr readback = bed.node(0).driver().AllocBuffer(p.payload + kHugePageSize)->addr;
  bed.node(0).driver().PostRead(kQp, readback, remote, static_cast<uint32_t>(p.payload),
                                [&](Status st) {
                                  EXPECT_TRUE(st.ok()) << st;
                                  read_done = true;
                                });
  bed.sim().RunUntil([&] { return read_done; });
  ASSERT_TRUE(read_done);
  EXPECT_EQ(*bed.node(0).driver().ReadHost(readback, p.payload), data);
}

INSTANTIATE_TEST_SUITE_P(
    BothProfiles, PayloadSweep,
    ::testing::Values(SweepParam{false, 1}, SweepParam{false, 64}, SweepParam{false, 1439},
                      SweepParam{false, 1440}, SweepParam{false, 1441},
                      SweepParam{false, 4096}, SweepParam{false, 100'000},
                      SweepParam{true, 64}, SweepParam{true, 1440}, SweepParam{true, 4096},
                      SweepParam{true, 1'000'000}),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      return std::string(param_info.param.use_100g ? "p100g_" : "p10g_") +
             std::to_string(param_info.param.payload) + "B";
    });

// ---------------------------------------------------------------------------
// PSN wrap-around: connections whose sequence numbers cross 2^24.
// ---------------------------------------------------------------------------

TEST(PsnWrap, MultiPacketTrafficAcrossTheWrap) {
  Testbed bed(Profile10G());
  // Initial PSNs a few packets below the 24-bit wrap on both sides.
  bed.ConnectQp(0, kQp, 1, kQp, /*psn_a=*/0xFFFFFA, /*psn_b=*/0xFFFFFC);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(2))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(2))->addr;

  // 40 packets worth of writes: PSNs wrap mid-stream.
  const size_t n = 40 * 1440;
  ByteBuffer data = RandomBytes(n, 9);
  ASSERT_TRUE(bed.node(0).driver().WriteHost(local, data).ok());
  bool done = false;
  bed.node(0).driver().PostWrite(kQp, local, remote, static_cast<uint32_t>(n),
                                 [&](Status st) {
                                   EXPECT_TRUE(st.ok()) << st;
                                   done = true;
                                 });
  bed.sim().RunUntil([&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_EQ(*bed.node(1).driver().ReadHost(remote, n), data);

  // And a read whose response PSNs cross the wrap again.
  bool read_done = false;
  bed.node(0).driver().PostRead(kQp, local + MiB(1), remote, 20 * 1440, [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    read_done = true;
  });
  bed.sim().RunUntil([&] { return read_done; });
  ASSERT_TRUE(read_done);
  EXPECT_EQ(*bed.node(0).driver().ReadHost(local + MiB(1), 20 * 1440),
            ByteBuffer(data.begin(), data.begin() + 20 * 1440));
}

TEST(PsnWrap, LossRecoveryAcrossTheWrap) {
  Testbed bed(Profile10G());
  bed.ConnectQp(0, kQp, 1, kQp, 0xFFFFFE, 0xFFFFF0);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const size_t n = 10 * 1440;
  ByteBuffer data = RandomBytes(n, 10);
  ASSERT_TRUE(bed.node(0).driver().WriteHost(local, data).ok());
  bed.direct_link()->DropNext(0, 2);

  bool done = false;
  bed.node(0).driver().PostWrite(kQp, local, remote, static_cast<uint32_t>(n),
                                 [&](Status st) {
                                   EXPECT_TRUE(st.ok()) << st;
                                   done = true;
                                 });
  bed.sim().RunUntil([&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_EQ(*bed.node(1).driver().ReadHost(remote, n), data);
}

// ---------------------------------------------------------------------------
// Kernels under packet loss: reliability below the kernel keeps exactly-once
// chunk delivery (go-back-N drops out-of-order packets before the tap).
// ---------------------------------------------------------------------------

TEST(KernelsUnderLoss, ShuffleStreamWithDropsPartitionsCorrectly) {
  Testbed bed(Profile10G());
  bed.ConnectQp(0, kQp, 1, kQp);
  const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
  ASSERT_TRUE(
      bed.node(1).engine().DeployKernel(std::make_unique<ShuffleKernel>(bed.sim(), kc)).ok());
  const VirtAddr resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(4))->addr;
  const VirtAddr dest = bed.node(1).driver().AllocBuffer(MiB(8))->addr;

  ShuffleParams config;
  config.target_addr = resp;
  config.partition_bits = 3;
  config.region_base = dest;
  config.region_stride = KiB(512);
  bed.node(0).driver().WriteHostU64(resp, 0);
  bed.node(0).driver().PostRpc(kShuffleRpcOpcode, kQp, config.Encode());
  bed.sim().RunUntilIdle();  // configuration survives before the lossy stream

  std::vector<uint64_t> tuples = RandomTuples(40'000, 13);
  ByteBuffer payload = TuplesToBytes(tuples);
  ASSERT_TRUE(bed.node(0).driver().WriteHost(local, payload).ok());
  bed.direct_link()->DropNext(0, 5);  // five stream packets lost
  bed.node(0).driver().PostRpcWrite(kShuffleRpcOpcode, kQp, local,
                                    static_cast<uint32_t>(payload.size()));

  bool done = false;
  bed.sim().RunUntil([&] {
    done = bed.node(0).driver().ReadHostU64(resp) != 0;
    return done;
  });
  ASSERT_TRUE(done) << "status word never arrived";
  bed.sim().RunUntilIdle();
  const uint64_t status = bed.node(0).driver().ReadHostU64(resp);
  EXPECT_EQ(StatusWordExtra(status), tuples.size());  // every tuple exactly once

  std::vector<std::vector<uint64_t>> expected(8);
  for (uint64_t t : tuples) {
    expected[RadixPartition(t, 3)].push_back(t);
  }
  for (size_t p = 0; p < 8; ++p) {
    ByteBuffer region =
        *bed.node(1).driver().ReadHost(dest + p * KiB(512), expected[p].size() * 8);
    for (size_t i = 0; i < expected[p].size(); ++i) {
      ASSERT_EQ(LoadLe64(region.data() + i * 8), expected[p][i]);
    }
  }
  EXPECT_GT(bed.node(0).stack().counters().retransmitted_packets, 0u);
}

TEST(KernelsUnderLoss, HllTapSeesEachChunkExactlyOnce) {
  Testbed bed(Profile10G());
  bed.ConnectQp(0, kQp, 1, kQp);
  const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
  auto owned = std::make_unique<HllKernel>(bed.sim(), kc);
  HllKernel* kernel = owned.get();
  ASSERT_TRUE(bed.node(1).engine().DeployKernel(std::move(owned)).ok());
  ASSERT_TRUE(bed.node(1).engine().AttachReceiveTap(kQp, kHllRpcOpcode).ok());

  const size_t n_tuples = 30'000;
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  ByteBuffer payload = TuplesToBytes(RandomTuples(n_tuples, 21));
  ASSERT_TRUE(bed.node(0).driver().WriteHost(local, payload).ok());

  bed.direct_link()->DropNext(0, 3);
  bool done = false;
  bed.node(0).driver().PostWrite(kQp, local, remote, static_cast<uint32_t>(payload.size()),
                                 [&](Status st) {
                                   EXPECT_TRUE(st.ok()) << st;
                                   done = true;
                                 });
  bed.sim().RunUntil([&] { return done; });
  bed.sim().RunUntilIdle();
  // Retransmissions and duplicate drops must not double-count items.
  EXPECT_EQ(kernel->items_processed(), n_tuples);
}

// ---------------------------------------------------------------------------
// Randomized traversal structures vs a host-side reference walker.
// ---------------------------------------------------------------------------

class RandomTraversal : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTraversal, KernelMatchesHostReference) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  Testbed bed(Profile10G());
  bed.ConnectQp(0, kQp, 1, kQp);
  const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
  ASSERT_TRUE(
      bed.node(1).engine().DeployKernel(std::make_unique<TraversalKernel>(bed.sim(), kc)).ok());
  const VirtAddr resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;

  // Random list: random length, random unique keys, random value size.
  const size_t length = 1 + rng.Below(24);
  const uint32_t value_size = static_cast<uint32_t>(8u << rng.Below(6));  // 8..256
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < length; ++i) {
    keys.push_back(rng.Next() | 1);
  }
  const VirtAddr elems = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr values = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  auto list =
      RemoteLinkedList::Build(bed.node(1).driver(), elems, values, keys, value_size, seed);
  ASSERT_TRUE(list.ok());

  // Probe with a mix of present and absent keys under EQUAL.
  for (int probe = 0; probe < 8; ++probe) {
    const bool present = rng.Chance(0.6);
    const uint64_t key = present ? keys[rng.Below(keys.size())] : (rng.Next() | 1);
    const bool expect_found =
        present || std::find(keys.begin(), keys.end(), key) != keys.end();

    bed.node(0).driver().FillHost(resp, value_size + 8, 0);
    bed.node(0).driver().PostRpc(kTraversalRpcOpcode, kQp,
                                 list->LookupParams(key, resp).Encode());
    bool done = false;
    bed.sim().RunUntil([&] {
      done = bed.node(0).driver().ReadHostU64(resp + value_size) != 0;
      return done;
    });
    ASSERT_TRUE(done);
    const uint64_t status = bed.node(0).driver().ReadHostU64(resp + value_size);
    if (expect_found) {
      EXPECT_EQ(StatusWordCode(status), KernelStatusCode::kOk) << "key " << key;
      EXPECT_EQ(*bed.node(0).driver().ReadHost(resp, value_size), list->ExpectedValue(key));
      // Hop count matches the key's position in the chain.
      const size_t pos =
          std::find(keys.begin(), keys.end(), key) - keys.begin();
      EXPECT_EQ(StatusWordIterations(status), pos + 1);
    } else {
      EXPECT_EQ(StatusWordCode(status), KernelStatusCode::kNotFound);
      EXPECT_EQ(StatusWordIterations(status), keys.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTraversal, ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Headline 100 G behaviours.
// ---------------------------------------------------------------------------

TEST(Profile100G, LatencyLowerThanAt10G) {
  auto measure = [](const Profile& profile) {
    Testbed bed(profile);
    bed.ConnectQp(0, kQp, 1, kQp);
    const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
    const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
    SimTime done_at = -1;
    bed.node(0).driver().PostWrite(kQp, local, remote, 1024,
                                   [&](Status) { done_at = bed.sim().now(); });
    bed.sim().RunUntil([&] { return done_at >= 0; });
    return done_at;
  };
  // Faster clock + fewer store-and-forward words + faster wire.
  EXPECT_LT(measure(Profile100G()), measure(Profile10G()));
}

TEST(Profile100G, SaturatesNearLineRateForLargeWrites) {
  Testbed bed(Profile100G());
  bed.ConnectQp(0, kQp, 1, kQp);
  const size_t n = MiB(8);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(n + kHugePageSize)->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(n + kHugePageSize)->addr;
  bed.node(0).driver().FillHost(local, n, 0x3C);

  const SimTime start = bed.sim().now();
  bool done = false;
  bed.node(0).driver().PostWrite(kQp, local, remote, static_cast<uint32_t>(n),
                                 [&](Status st) {
                                   EXPECT_TRUE(st.ok());
                                   done = true;
                                 });
  bed.sim().RunUntil([&] { return done; });
  const double gbps = static_cast<double>(n) * 8 / ToSec(bed.sim().now() - start) / 1e9;
  EXPECT_GT(gbps, 85.0);
  EXPECT_LT(gbps, 100.0);
}

// ---------------------------------------------------------------------------
// End-to-end telemetry: a traced WRITE and READ leave spans along the whole
// data path (host issue -> DMA fetch -> NIC TX -> wire -> NIC RX -> DMA
// write) in causal order, and an untraced testbed records nothing.
// ---------------------------------------------------------------------------

TEST(TelemetryIntegration, WriteAndReadSpansAreCausallyOrdered) {
  Testbed bed(Profile10G());
  bed.tracer().Enable();
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  ASSERT_TRUE(bed.node(0).driver().WriteHost(local, RandomBytes(4096, 7)).ok());

  bool write_done = false;
  bed.node(0).driver().PostWrite(kQp, local, remote, 4096, [&](Status st) {
    EXPECT_TRUE(st.ok());
    write_done = true;
  });
  bed.sim().RunUntil([&] { return write_done; });

  bool read_done = false;
  bed.node(0).driver().PostRead(kQp, local, remote, 4096, [&](Status st) {
    EXPECT_TRUE(st.ok());
    read_done = true;
  });
  bed.sim().RunUntil([&] { return read_done; });

  const auto& tracks = bed.tracer().tracks();
  const auto& events = bed.tracer().events();
  ASSERT_FALSE(events.empty());
  for (const Tracer::Event& e : events) {
    EXPECT_GE(e.end, e.begin) << e.name;
  }

  // Earliest span of `id` on a track of `process` whose name starts with
  // `prefix` and begins at or after `not_before`.
  auto find = [&](uint64_t id, const std::string& process, const std::string& prefix,
                  SimTime not_before = 0) -> const Tracer::Event* {
    const Tracer::Event* best = nullptr;
    for (const Tracer::Event& e : events) {
      if (e.trace_id != id || tracks[static_cast<size_t>(e.track)].process != process ||
          e.name.rfind(prefix, 0) != 0 || e.begin < not_before) {
        continue;
      }
      if (best == nullptr || e.begin < best->begin) {
        best = &e;
      }
    }
    return best;
  };
  auto verb_span = [&](const std::string& verb) -> const Tracer::Event* {
    for (const Tracer::Event& e : events) {
      if (e.name == verb && tracks[static_cast<size_t>(e.track)].process == "node0") {
        return &e;
      }
    }
    return nullptr;
  };

  // WRITE: issue -> payload fetch -> TX -> wire -> RX -> remote DMA write.
  const Tracer::Event* wr = verb_span("write");
  ASSERT_NE(wr, nullptr);
  const Tracer::Event* cmd = find(wr->trace_id, "node0", "cmd.issue");
  ASSERT_NE(cmd, nullptr);
  const Tracer::Event* fetch = find(wr->trace_id, "node0", "dma.read", cmd->begin);
  ASSERT_NE(fetch, nullptr);
  const Tracer::Event* tx = find(wr->trace_id, "node0", "tx:WRITE", fetch->begin);
  ASSERT_NE(tx, nullptr);
  const Tracer::Event* wire = find(wr->trace_id, "network", "wire", tx->begin);
  ASSERT_NE(wire, nullptr);
  const Tracer::Event* rx = find(wr->trace_id, "node1", "rx:WRITE", wire->begin);
  ASSERT_NE(rx, nullptr);
  const Tracer::Event* place = find(wr->trace_id, "node1", "dma.write", rx->begin);
  ASSERT_NE(place, nullptr);
  EXPECT_LE(place->end, wr->end);  // placed before the initiator saw completion

  // READ: the same trace id covers the full round trip — request out,
  // responder DMA fetch, response back, local DMA write.
  const Tracer::Event* rd = verb_span("read");
  ASSERT_NE(rd, nullptr);
  EXPECT_NE(rd->trace_id, wr->trace_id);
  const Tracer::Event* req_tx = find(rd->trace_id, "node0", "tx:READ_REQUEST");
  ASSERT_NE(req_tx, nullptr);
  const Tracer::Event* req_rx = find(rd->trace_id, "node1", "rx:READ_REQUEST", req_tx->begin);
  ASSERT_NE(req_rx, nullptr);
  const Tracer::Event* resp_fetch = find(rd->trace_id, "node1", "dma.read", req_rx->begin);
  ASSERT_NE(resp_fetch, nullptr);
  const Tracer::Event* resp_tx = find(rd->trace_id, "node1", "tx:READ_RESP", resp_fetch->begin);
  ASSERT_NE(resp_tx, nullptr);
  const Tracer::Event* resp_rx = find(rd->trace_id, "node0", "rx:READ_RESP", resp_tx->begin);
  ASSERT_NE(resp_rx, nullptr);
  const Tracer::Event* resp_place = find(rd->trace_id, "node0", "dma.write", resp_rx->begin);
  ASSERT_NE(resp_place, nullptr);
  EXPECT_LE(resp_place->end, rd->end);
}

TEST(TelemetryIntegration, UntracedRunRecordsZeroEvents) {
  Testbed bed(Profile10G());  // tracing off by default
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  bool done = false;
  bed.node(0).driver().PostWrite(kQp, local, remote, 1024, [&](Status) { done = true; });
  bed.sim().RunUntil([&] { return done; });
  EXPECT_TRUE(bed.tracer().events().empty());
}

}  // namespace
}  // namespace strom
