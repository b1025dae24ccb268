// Robustness: parser fuzzing (arbitrary bytes must never crash the frame
// parsers or the decoders of the flight-recorder bundle and pcapng files the
// telemetry subscribers write) and fault-injection soak runs (random
// loss/corruption on both directions under mixed traffic must still deliver
// everything correctly).
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "src/kernels/traversal.h"
#include "src/kvs/linked_list.h"
#include "src/proto/packet.h"
#include "src/tcp/segment.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/pcap_reader.h"
#include "src/telemetry/pcap_writer.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

TEST(ParserFuzz, RandomBytesNeverCrashRoceParser) {
  Rng rng(1);
  for (int i = 0; i < 20'000; ++i) {
    const size_t len = rng.Below(200);
    ByteBuffer frame = RandomBytes(len, rng.Next());
    Result<RocePacket> parsed = ParseRoceFrame(frame);
    // Random bytes virtually never form a valid ICRC'd packet.
    (void)parsed;
  }
  SUCCEED();
}

TEST(ParserFuzz, MutatedValidFramesAreRejectedOrEquivalent) {
  RocePacket pkt;
  pkt.src_ip = MakeIp(10, 0, 0, 1);
  pkt.dst_ip = MakeIp(10, 0, 0, 2);
  pkt.bth.opcode = IbOpcode::kWriteOnly;
  pkt.bth.dest_qp = 5;
  pkt.bth.psn = 77;
  RethHeader reth;
  reth.virt_addr = 0x1000;
  reth.dma_length = 64;
  pkt.reth = reth;
  pkt.payload = FrameBuf::Adopt(RandomBytes(64, 9));
  const MacAddr a{2, 0, 0, 0, 0, 1};
  const MacAddr b{2, 0, 0, 0, 0, 2};
  const ByteBuffer valid = EncodeRoceFrame(a, b, pkt).ToBuffer();

  const Result<RocePacket> reference = ParseRoceFrame(valid);
  ASSERT_TRUE(reference.ok());

  Rng rng(2);
  int accepted = 0;
  for (int i = 0; i < 10'000; ++i) {
    ByteBuffer mutated = valid;
    const int flips = 1 + static_cast<int>(rng.Below(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.Below(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    Result<RocePacket> parsed = ParseRoceFrame(mutated);
    if (parsed.ok()) {
      ++accepted;
      // Acceptable only when every protocol-relevant field is untouched:
      // the mutation must have hit bytes the protocol genuinely does not
      // validate (MAC addresses — the Ethernet FCS is modeled as wire
      // overhead — or ICRC-masked variant fields like the UDP checksum).
      EXPECT_EQ(parsed->payload, reference->payload);
      EXPECT_EQ(parsed->bth.psn, reference->bth.psn);
      EXPECT_EQ(parsed->bth.dest_qp, reference->bth.dest_qp);
      EXPECT_EQ(static_cast<int>(parsed->bth.opcode),
                static_cast<int>(reference->bth.opcode));
      ASSERT_TRUE(parsed->reth.has_value());
      EXPECT_EQ(parsed->reth->virt_addr, reference->reth->virt_addr);
      EXPECT_EQ(parsed->reth->dma_length, reference->reth->dma_length);
      EXPECT_EQ(parsed->src_ip, reference->src_ip);
      EXPECT_EQ(parsed->dst_ip, reference->dst_ip);
    }
  }
  // Most mutations must be rejected (ICRC + IP checksum coverage); the
  // accepted remainder hit the unvalidated byte ranges above.
  EXPECT_LT(accepted, 10'000 / 10);
}

TEST(ParserFuzz, RandomBytesNeverCrashTcpParser) {
  Rng rng(3);
  for (int i = 0; i < 20'000; ++i) {
    ByteBuffer frame = RandomBytes(rng.Below(120), rng.Next());
    (void)ParseTcpFrame(frame);
  }
  SUCCEED();
}

TEST(ParserFuzz, TraversalParamsDecodeNeverCrashes) {
  Rng rng(4);
  for (int i = 0; i < 10'000; ++i) {
    ByteBuffer raw = RandomBytes(rng.Below(64), rng.Next());
    (void)TraversalParams::Decode(raw);
  }
  SUCCEED();
}

// Decoder fuzzing for the telemetry files. Seeds are real outputs: a
// flight-recorder bundle with TX/RX/NAK/CNP records and frame snapshots, and
// a pcapng capture with trace/fault comments. Each case applies one
// mutation — byte flips, a truncation, or a length/count field overwritten
// with an extreme value — and the decoder must return (ok or an error)
// without crashing, reading out of bounds or allocating unbounded memory;
// the ASan/UBSan job runs these.

ByteBuffer ReadAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return ByteBuffer((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

ByteBuffer Mutate(const ByteBuffer& seed, Rng& rng) {
  ByteBuffer out = seed;
  switch (rng.Below(4)) {
    case 0: {  // byte flips
      const int flips = 1 + static_cast<int>(rng.Below(4));
      for (int f = 0; f < flips; ++f) {
        out[rng.Below(out.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
      }
      break;
    }
    case 1:  // truncation
      out.resize(rng.Below(out.size()));
      break;
    case 2: {  // one aligned 32-bit field set to an extreme value
      const size_t pos = rng.Below(out.size() / 4) * 4;
      const uint32_t values[] = {0, 1, 0x7FFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFF0u,
                                 static_cast<uint32_t>(rng.Next())};
      const uint32_t v = values[rng.Below(6)];
      for (size_t b = 0; b < 4 && pos + b < out.size(); ++b) {
        out[pos + b] = static_cast<uint8_t>(v >> (8 * b));
      }
      break;
    }
    default: {  // garbage appended
      const ByteBuffer tail = RandomBytes(1 + rng.Below(64), rng.Next());
      out.insert(out.end(), tail.begin(), tail.end());
      break;
    }
  }
  return out;
}

FrameBuf SeedFrame(IbOpcode opcode, Psn psn) {
  RocePacket pkt;
  pkt.src_ip = MakeIp(10, 0, 0, 1);
  pkt.dst_ip = MakeIp(10, 0, 0, 2);
  pkt.bth.opcode = opcode;
  pkt.bth.dest_qp = 3;
  pkt.bth.psn = psn;
  if (opcode == IbOpcode::kAck) {
    AethHeader aeth;
    aeth.syndrome = AckSyndrome::kNakSequenceError;
    pkt.aeth = aeth;
  } else {
    RethHeader reth;
    reth.virt_addr = 0x2000;
    reth.dma_length = 256;
    pkt.reth = reth;
    pkt.payload = FrameBuf::Adopt(RandomBytes(256, psn));
  }
  return EncodeRoceFrame(MacAddr{2, 0, 0, 0, 0, 1}, MacAddr{2, 0, 0, 0, 0, 2}, pkt);
}

// Writes a small two-host bundle; returns its stem.
std::string WriteSeedBundle() {
  const std::string stem = ::testing::TempDir() + "/fuzz_seed_bundle";
  FlightRecorder recorder(2, /*ring_capacity=*/16, /*frame_capacity=*/8);
  for (uint32_t i = 0; i < 6; ++i) {
    const int host = int(i % 2);
    const FrameBuf frame = SeedFrame(i % 3 == 2 ? IbOpcode::kAck : IbOpcode::kWriteOnly, i);
    recorder.Record(Us(i), host, FlightRecordType::kTx, uint8_t(IbOpcode::kWriteOnly), 3, i,
                    uint32_t(frame.size()));
    recorder.RecordFrame(Us(i), host, /*tx=*/true, frame);
    recorder.Record(Us(i) + 10, host, FlightRecordType::kCnp, 0, 3, i, 1000);
  }
  EXPECT_TRUE(recorder.Dump(stem, "fuzz seed").ok());
  return stem;
}

TEST(TelemetryDecoderFuzz, MutatedFlightRecordBundlesNeverCrash) {
  const std::string stem = WriteSeedBundle();
  const ByteBuffer seed = ReadAll(stem + ".flightrec.bin");
  ASSERT_FALSE(seed.empty());
  ASSERT_TRUE(LoadFlightRecords(stem + ".flightrec.bin").ok());
  const std::string path = ::testing::TempDir() + "/fuzz_mutated.flightrec.bin";
  Rng rng(6);
  int accepted = 0;
  for (int i = 0; i < 2'000; ++i) {
    const ByteBuffer mutated = Mutate(seed, rng);
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(reinterpret_cast<const char*>(mutated.data()), std::streamsize(mutated.size()));
    }
    Result<FlightRecordBundle> bundle = LoadFlightRecords(path);
    if (bundle.ok()) {
      ++accepted;
      size_t records = 0;
      for (const auto& host : bundle->hosts) {
        records += host.size();
      }
      // Every decoded record was backed by 24 bytes of the file.
      EXPECT_LE(records * sizeof(FlightRecord), mutated.size());
    }
  }
  EXPECT_GT(accepted, 0) << "payload-only flips should still decode";
}

TEST(TelemetryDecoderFuzz, MutatedPcapngCapturesNeverCrash) {
  const std::string stem = WriteSeedBundle();
  const std::string capture_path = ::testing::TempDir() + "/fuzz_seed_capture.pcapng";
  {
    PcapWriter writer(capture_path);
    const uint32_t tx = writer.AddInterface("node0.nic.tx");
    const uint32_t wire = writer.AddInterface("wire.0to1");
    for (uint32_t i = 0; i < 4; ++i) {
      const FrameBuf frame = SeedFrame(IbOpcode::kWriteOnly, 100 + i);
      writer.WritePacket(tx, Us(i), frame, "trace_id=" + std::to_string(i + 1));
      writer.WritePacket(wire, Us(i) + 5, frame, i % 2 == 0 ? "corrupted delayed" : "");
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  for (const std::string& path : {stem + ".frames.pcapng", capture_path}) {
    SCOPED_TRACE(path);
    const ByteBuffer seed = ReadAll(path);
    ASSERT_TRUE(ParsePcapng(seed).ok());
    Rng rng(7);
    for (int i = 0; i < 5'000; ++i) {
      const ByteBuffer mutated = Mutate(seed, rng);
      Result<CaptureFile> parsed = ParsePcapng(mutated);
      if (parsed.ok()) {
        for (const CapturedPacket& pkt : parsed->packets) {
          EXPECT_LT(pkt.interface_id, parsed->interfaces.size());
          EXPECT_LE(pkt.data.size(), mutated.size());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Soak: mixed traffic under random loss + corruption on both directions.
// ---------------------------------------------------------------------------

class SoakTest : public ::testing::TestWithParam<double> {};

TEST_P(SoakTest, MixedTrafficSurvivesRandomFaults) {
  const double loss = GetParam();
  Testbed bed(Profile10G());
  bed.ConnectQp(0, kQp, 1, kQp);
  bed.direct_link()->SetDropProbability(0, loss, /*seed=*/100);
  bed.direct_link()->SetDropProbability(1, loss, /*seed=*/200);
  bed.direct_link()->CorruptNext(0, 2);  // a couple of corrupted frames too

  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(8))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(8))->addr;

  Rng rng(loss > 0 ? 11 : 12);
  struct Op {
    bool is_write;
    size_t size;
    VirtAddr src_off;
    ByteBuffer data;
    bool done = false;
  };
  std::vector<Op> ops;
  int completed = 0;
  for (int i = 0; i < 60; ++i) {
    Op op;
    op.is_write = rng.Chance(0.6);
    op.size = 64 + rng.Below(8000);
    op.src_off = static_cast<VirtAddr>(i) * KiB(16);
    op.data = RandomBytes(op.size, rng.Next());
    ops.push_back(std::move(op));
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    if (op.is_write) {
      ASSERT_TRUE(bed.node(0).driver().WriteHost(local + op.src_off, op.data).ok());
      bed.node(0).driver().PostWrite(kQp, local + op.src_off, remote + op.src_off,
                                     static_cast<uint32_t>(op.size), [&, i](Status st) {
                                       EXPECT_TRUE(st.ok()) << "write op " << i << ": " << st;
                                       ops[i].done = true;
                                       ++completed;
                                     });
    } else {
      ASSERT_TRUE(bed.node(1).driver().WriteHost(remote + op.src_off, op.data).ok());
      bed.node(0).driver().PostRead(kQp, local + op.src_off, remote + op.src_off,
                                    static_cast<uint32_t>(op.size), [&, i](Status st) {
                                      EXPECT_TRUE(st.ok()) << "read op " << i << ": " << st;
                                      ops[i].done = true;
                                      ++completed;
                                    });
    }
  }

  bed.sim().RunUntil([&] { return completed == static_cast<int>(ops.size()); });
  ASSERT_EQ(completed, static_cast<int>(ops.size())) << "ops stalled at loss " << loss;
  bed.sim().RunUntilIdle();

  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const VirtAddr check = op.is_write ? remote + op.src_off : local + op.src_off;
    RoceDriver& drv = op.is_write ? bed.node(1).driver() : bed.node(0).driver();
    EXPECT_EQ(*drv.ReadHost(check, op.size), op.data) << "op " << i;
  }
  if (loss > 0) {
    EXPECT_GT(bed.node(0).stack().counters().retransmitted_packets +
                  bed.node(1).stack().counters().retransmitted_packets,
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, SoakTest, ::testing::Values(0.0, 0.01, 0.05),
                         [](const ::testing::TestParamInfo<double>& param_info) {
                           return "loss_" + std::to_string(static_cast<int>(
                                                param_info.param * 100));
                         });

TEST(SoakTest2, KernelRpcsUnderLoss) {
  // Traversal RPCs with 2% loss in both directions: every lookup must still
  // return the right value (requests, responses, and ACKs all get lost).
  Testbed bed(Profile10G());
  bed.ConnectQp(0, kQp, 1, kQp);
  const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
  ASSERT_TRUE(
      bed.node(1).engine().DeployKernel(std::make_unique<TraversalKernel>(bed.sim(), kc)).ok());
  bed.direct_link()->SetDropProbability(0, 0.02, 300);
  bed.direct_link()->SetDropProbability(1, 0.02, 400);

  const VirtAddr resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr elems = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr values = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  std::vector<uint64_t> keys = {1, 2, 3, 4, 5, 6, 7, 8};
  auto list = RemoteLinkedList::Build(bed.node(1).driver(), elems, values, keys, 64, 9);
  ASSERT_TRUE(list.ok());

  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const uint64_t key = keys[rng.Below(keys.size())];
    bed.node(0).driver().FillHost(resp, 64 + 8, 0);
    bed.node(0).driver().PostRpc(kTraversalRpcOpcode, kQp,
                                 list->LookupParams(key, resp).Encode());
    bool done = false;
    const SimTime deadline = bed.sim().now() + Sec(2);
    while (!done && bed.sim().now() < deadline && bed.sim().Step()) {
      done = bed.node(0).driver().ReadHostU64(resp + 64) != 0;
    }
    ASSERT_TRUE(done) << "lookup " << i << " stalled";
    EXPECT_EQ(*bed.node(0).driver().ReadHost(resp, 64), list->ExpectedValue(key))
        << "lookup " << i;
  }
}

}  // namespace
}  // namespace strom
