// End-to-end tests of the RoCE v2 stack over the two-node testbed: writes,
// reads, multi-packet messages, loss/corruption recovery, PSN handling,
// outstanding-read limits, and bidirectional traffic.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/sim/task.h"
#include "src/testbed/calibration.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

class RoceStackTest : public ::testing::Test {
 protected:
  RoceStackTest() : bed_(Profile10G()) {
    bed_.ConnectQp(0, kQp, 1, kQp);
    RdmaBuffer local = *bed_.node(0).driver().AllocBuffer(MiB(8));
    RdmaBuffer remote = *bed_.node(1).driver().AllocBuffer(MiB(8));
    local_ = local.addr;
    remote_ = remote.addr;
  }

  // Runs the simulation until `flag` is set (with a safety horizon).
  void RunUntilDone(bool* flag, SimTime horizon = Ms(100)) {
    const SimTime deadline = bed_.sim().now() + horizon;
    while (!*flag && bed_.sim().now() < deadline && bed_.sim().Step()) {
    }
    ASSERT_TRUE(*flag) << "operation did not complete within horizon";
  }

  Testbed bed_;
  VirtAddr local_ = 0;
  VirtAddr remote_ = 0;
};

TEST_F(RoceStackTest, SinglePacketWriteDeliversData) {
  ByteBuffer data = RandomBytes(256, 1);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, data).ok());

  bool done = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, 256, [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    done = true;
  });
  RunUntilDone(&done);

  Result<ByteBuffer> got = bed_.node(1).driver().ReadHost(remote_, 256);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data);
  EXPECT_EQ(bed_.node(0).stack().counters().write_messages_completed, 1u);
}

TEST_F(RoceStackTest, MultiPacketWriteReassemblesAtResponder) {
  const size_t n = 100 * 1000;  // ~70 packets
  ByteBuffer data = RandomBytes(n, 2);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, data).ok());

  bool done = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done);

  EXPECT_EQ(*bed_.node(1).driver().ReadHost(remote_, n), data);
  // Multi-packet message used FIRST/MIDDLE/LAST framing.
  EXPECT_GT(bed_.node(0).stack().counters().tx_packets, 60u);
}

TEST_F(RoceStackTest, ZeroLengthWriteCompletes) {
  bool done = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, 0, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done);
}

TEST_F(RoceStackTest, ReadFetchesRemoteData) {
  ByteBuffer data = RandomBytes(512, 3);
  ASSERT_TRUE(bed_.node(1).driver().WriteHost(remote_, data).ok());

  bool done = false;
  bed_.node(0).driver().PostRead(kQp, local_, remote_, 512, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done);

  EXPECT_EQ(*bed_.node(0).driver().ReadHost(local_, 512), data);
  EXPECT_EQ(bed_.node(0).stack().counters().read_messages_completed, 1u);
}

TEST_F(RoceStackTest, LargeReadSpansManyResponsePackets) {
  const size_t n = 64 * 1024;
  ByteBuffer data = RandomBytes(n, 4);
  ASSERT_TRUE(bed_.node(1).driver().WriteHost(remote_, data).ok());

  bool done = false;
  bed_.node(0).driver().PostRead(kQp, local_, remote_, n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done);
  EXPECT_EQ(*bed_.node(0).driver().ReadHost(local_, n), data);
}

TEST_F(RoceStackTest, WriteSurvivesPacketLoss) {
  const size_t n = 32 * 1024;
  ByteBuffer data = RandomBytes(n, 5);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, data).ok());
  bed_.direct_link()->DropNext(0, 3);  // drop the first three data packets

  bool done = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done, Sec(1));

  EXPECT_EQ(*bed_.node(1).driver().ReadHost(remote_, n), data);
  EXPECT_GT(bed_.node(0).stack().counters().retransmitted_packets, 0u);
}

TEST_F(RoceStackTest, WriteSurvivesAckLoss) {
  ByteBuffer data = RandomBytes(1024, 6);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, data).ok());
  bed_.direct_link()->DropNext(1, 1);  // drop the ACK

  bool done = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, 1024, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done, Sec(1));
  EXPECT_EQ(*bed_.node(1).driver().ReadHost(remote_, 1024), data);
  // The retransmitted packet is a duplicate at the responder: re-ACKed.
  EXPECT_GT(bed_.node(1).stack().counters().duplicate_psn_packets, 0u);
  EXPECT_GT(bed_.node(0).stack().timer_expirations(), 0u);
}

TEST_F(RoceStackTest, CorruptedPacketDroppedByIcrcThenRecovered) {
  const size_t n = 8 * 1024;
  ByteBuffer data = RandomBytes(n, 7);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, data).ok());
  bed_.direct_link()->CorruptNext(0, 1);

  bool done = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done, Sec(1));
  EXPECT_EQ(*bed_.node(1).driver().ReadHost(remote_, n), data);
  EXPECT_GT(bed_.node(1).stack().counters().icrc_drops, 0u);
}

TEST_F(RoceStackTest, ReadSurvivesResponseLoss) {
  const size_t n = 16 * 1024;
  ByteBuffer data = RandomBytes(n, 8);
  ASSERT_TRUE(bed_.node(1).driver().WriteHost(remote_, data).ok());
  bed_.direct_link()->DropNext(1, 2);  // drop two response packets

  bool done = false;
  bed_.node(0).driver().PostRead(kQp, local_, remote_, n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done, Sec(1));
  EXPECT_EQ(*bed_.node(0).driver().ReadHost(local_, n), data);
}

TEST_F(RoceStackTest, PipelinedWritesAllComplete) {
  const int kWrites = 50;
  ByteBuffer data = RandomBytes(kWrites * 64, 9);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, data).ok());

  int completed = 0;
  bool all = false;
  for (int i = 0; i < kWrites; ++i) {
    bed_.node(0).driver().PostWrite(kQp, local_ + i * 64, remote_ + i * 64, 64,
                                    [&](Status st) {
                                      EXPECT_TRUE(st.ok());
                                      if (++completed == kWrites) {
                                        all = true;
                                      }
                                    });
  }
  RunUntilDone(&all);
  EXPECT_EQ(*bed_.node(1).driver().ReadHost(remote_, kWrites * 64), data);
}

TEST_F(RoceStackTest, OutstandingReadsBoundedByMultiQueue) {
  const uint32_t capacity = bed_.node(0).stack().config().multi_queue_total;
  ByteBuffer data = RandomBytes(64, 10);
  ASSERT_TRUE(bed_.node(1).driver().WriteHost(remote_, data).ok());

  // Posting directly to the stack (bypassing controller pacing) so all reads
  // are outstanding at once.
  uint32_t accepted = 0;
  uint32_t rejected = 0;
  for (uint32_t i = 0; i <= capacity; ++i) {
    WorkRequest wr;
    wr.kind = WorkRequest::Kind::kRead;
    wr.qpn = kQp;
    wr.local_addr = local_ + i * 64;
    wr.remote_addr = remote_;
    wr.length = 64;
    Status st = bed_.node(0).stack().PostRequest(std::move(wr));
    if (st.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, capacity);
  EXPECT_EQ(rejected, 1u);
  bed_.sim().RunUntilIdle();
  EXPECT_EQ(bed_.node(0).stack().counters().read_messages_completed, capacity);
}

TEST_F(RoceStackTest, BidirectionalTrafficDoesNotInterfere) {
  const size_t n = 20 * 1024;
  ByteBuffer d01 = RandomBytes(n, 11);
  ByteBuffer d10 = RandomBytes(n, 12);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, d01).ok());
  ASSERT_TRUE(bed_.node(1).driver().WriteHost(remote_ + MiB(1), d10).ok());

  bool done0 = false;
  bool done1 = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done0 = true;
  });
  bed_.node(1).driver().PostWrite(kQp, remote_ + MiB(1), local_ + MiB(1), n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done1 = true;
  });
  bed_.sim().RunUntilIdle();
  EXPECT_TRUE(done0);
  EXPECT_TRUE(done1);
  EXPECT_EQ(*bed_.node(1).driver().ReadHost(remote_, n), d01);
  EXPECT_EQ(*bed_.node(0).driver().ReadHost(local_ + MiB(1), n), d10);
}

TEST_F(RoceStackTest, UnknownQpPacketsDropped) {
  // A packet addressed to a non-connected QP is counted and dropped.
  RocePacket pkt;
  pkt.src_ip = bed_.node(0).ip();
  pkt.dst_ip = bed_.node(1).ip();
  pkt.bth.opcode = IbOpcode::kWriteOnly;
  pkt.bth.dest_qp = 77;
  pkt.bth.psn = 0;
  RethHeader reth;
  reth.virt_addr = remote_;
  reth.dma_length = 8;
  pkt.reth = reth;
  pkt.payload.assign(8, 0xFF);

  MacAddr src{0x02, 0, 0, 0, 0, 1};
  MacAddr dst{0x02, 0, 0, 0, 0, 2};
  bed_.node(1).stack().OnFrame(EncodeRoceFrame(src, dst, pkt));
  bed_.sim().RunUntilIdle();
  EXPECT_EQ(bed_.node(1).stack().counters().unknown_qp_drops, 1u);
}

TEST_F(RoceStackTest, PostToUnconnectedQpFailsFast) {
  WorkRequest wr;
  wr.kind = WorkRequest::Kind::kWrite;
  wr.qpn = 99;
  wr.length = 8;
  bool cb = false;
  wr.on_complete = [&](Status st) {
    EXPECT_FALSE(st.ok());
    cb = true;
  };
  EXPECT_EQ(bed_.node(0).stack().PostRequest(std::move(wr)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(cb);
}

TEST_F(RoceStackTest, PollingSeesWrittenValue) {
  // The paper's ping-pong completion: writer sets a word, poller spins.
  bed_.node(1).driver().WriteHostU64(remote_, 0);

  bool polled = false;
  struct Ctx {
    Testbed& bed;
    VirtAddr remote;
    bool* polled;
  };
  auto poll_task = [](Ctx ctx) -> Task {
    const uint64_t value = co_await ctx.bed.node(1).driver().PollU64(ctx.remote, 0);
    EXPECT_EQ(value, 0xABCDull);
    *ctx.polled = true;
  };
  bed_.sim().Spawn(poll_task(Ctx{bed_, remote_, &polled}));

  bed_.node(0).driver().WriteHostU64(local_, 0xABCD);
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, 8);
  bed_.sim().RunUntil([&] { return polled; });
  EXPECT_TRUE(polled);
}

// Event-driven PollU64: a poller parks until its word is written and then
// resumes on its own poll grid, start + k * poll_interval, at the first
// instant at or after the write — where a loop re-checking every interval
// would have seen it.
class PollGridTest : public RoceStackTest {
 protected:
  struct Poll {
    SimTime done_at = -1;
    uint64_t value = 0;
  };

  SimTime interval() { return DriverConfig{}.poll_interval; }
  Simulator& sim() { return bed_.sim(); }
  RoceDriver& drv() { return bed_.node(1).driver(); }

  // First instant of the grid started at `start` that is >= `write`, past
  // `start` itself.
  SimTime GridAtOrAfter(SimTime start, SimTime write) {
    const SimTime ticks = std::max<SimTime>(1, (write - start + interval() - 1) / interval());
    return start + ticks * interval();
  }

  // Starts PollU64(addr, sentinel) on node 1 at `start`.
  void StartPoll(SimTime start, VirtAddr addr, uint64_t sentinel, Poll* out) {
    struct Ctx {
      RoceDriver& drv;
      Simulator& sim;
      VirtAddr addr;
      uint64_t sentinel;
      Poll* out;
    };
    auto task = [](Ctx c) -> Task {
      c.out->value = co_await c.drv.PollU64(c.addr, c.sentinel);
      c.out->done_at = c.sim.now();
    };
    sim().ScheduleAt(start, [this, task, ctx = Ctx{drv(), sim(), addr, sentinel, out}] {
      sim().Spawn(task(ctx));
    });
  }

  // Posts an 8-byte DMA write of `value` to node 1's `addr` at `at`;
  // `*landed` becomes the instant the bytes reach host memory.
  void DmaWriteAt(SimTime at, VirtAddr addr, uint64_t value, SimTime* landed) {
    sim().ScheduleAt(at, [this, addr, value, landed] {
      uint8_t word[8];
      StoreLe64(word, value);
      Status st = bed_.node(1).dma().Write(addr, FrameBuf::Copy(ByteSpan(word, 8)),
                                           [this, landed](Status done) {
                                             EXPECT_TRUE(done.ok()) << done;
                                             *landed = sim().now();
                                           });
      EXPECT_TRUE(st.ok()) << st;
    });
  }

  // Post-to-land delay of an 8-byte DMA write on an idle channel.
  SimTime DmaWriteDelay() {
    SimTime landed = -1;
    const SimTime posted = sim().now();
    DmaWriteAt(posted, remote_ + 4096, 1, &landed);
    sim().RunUntilIdle();
    EXPECT_GT(landed, posted);
    return landed - posted;
  }
};

TEST_F(PollGridTest, WordAlreadySetReturnsWithoutScheduling) {
  drv().WriteHostU64(remote_, 7);
  Poll poll;
  StartPoll(Us(1), remote_, 0, &poll);
  sim().RunFor(Us(1));  // runs the spawn itself
  const uint64_t events = sim().events_processed();
  EXPECT_EQ(poll.done_at, Us(1));
  EXPECT_EQ(poll.value, 7u);
  EXPECT_EQ(sim().pending_events(), 0u);
  sim().RunUntilIdle();
  EXPECT_EQ(sim().events_processed(), events);
}

TEST_F(PollGridTest, DmaWriteBetweenGridInstantsResumesAtTheNextOne) {
  drv().WriteHostU64(remote_, 0);
  Poll poll;
  SimTime landed = -1;
  const SimTime start = Us(1);
  StartPoll(start, remote_, 0, &poll);
  DmaWriteAt(start + Ns(3), remote_, 0x42, &landed);
  sim().RunUntilIdle();
  ASSERT_GT(landed, start);
  ASSERT_NE((landed - start) % interval(), 0) << "premise: the write lands off the grid";
  EXPECT_EQ(poll.value, 0x42u);
  EXPECT_EQ(poll.done_at, GridAtOrAfter(start, landed));
  EXPECT_GT(poll.done_at, landed);
}

TEST_F(PollGridTest, DmaWriteOnAGridInstantResumesAtThatInstant) {
  const SimTime delay = DmaWriteDelay();
  ASSERT_LT(delay, 20 * interval());
  drv().WriteHostU64(remote_, 0);
  Poll poll;
  SimTime landed = -1;
  const SimTime start = sim().now() + Us(1);
  StartPoll(start, remote_, 0, &poll);
  DmaWriteAt(start + 20 * interval() - delay, remote_, 0x43, &landed);
  sim().RunUntilIdle();
  ASSERT_EQ(landed, start + 20 * interval());
  EXPECT_EQ(poll.value, 0x43u);
  EXPECT_EQ(poll.done_at, landed);
}

TEST_F(PollGridTest, SentinelWriteKeepsWaiting) {
  drv().WriteHostU64(remote_, 0);
  Poll poll;
  SimTime first = -1;
  SimTime second = -1;
  const SimTime start = Us(1);
  StartPoll(start, remote_, 0, &poll);
  DmaWriteAt(start + Ns(3), remote_, 0, &first);
  DmaWriteAt(start + Us(2) + Ns(11), remote_, 0x44, &second);
  sim().RunUntil([&] { return first >= 0; });
  sim().RunFor(Us(1));
  EXPECT_EQ(poll.done_at, -1) << "a write of the sentinel must not end the poll";
  sim().RunUntilIdle();
  ASSERT_GT(second, first);
  EXPECT_EQ(poll.value, 0x44u);
  EXPECT_EQ(poll.done_at, GridAtOrAfter(start, second));
}

TEST_F(PollGridTest, TwoPollersOnOneWordBothResumeOnTheirOwnGrids) {
  drv().WriteHostU64(remote_, 0);
  Poll a;
  Poll b;
  SimTime landed = -1;
  StartPoll(Us(1), remote_, 0, &a);
  StartPoll(Us(1) + Ns(17), remote_, 0, &b);
  DmaWriteAt(Us(1) + Ns(40), remote_, 0x45, &landed);
  sim().RunUntilIdle();
  EXPECT_EQ(a.value, 0x45u);
  EXPECT_EQ(b.value, 0x45u);
  EXPECT_EQ(a.done_at, GridAtOrAfter(Us(1), landed));
  EXPECT_EQ(b.done_at, GridAtOrAfter(Us(1) + Ns(17), landed));
  EXPECT_NE(a.done_at, b.done_at);
}

TEST_F(PollGridTest, HostWritePokeResumesThePoller) {
  // The YCSB fence path: host software writes the status word itself.
  drv().WriteHostU64(remote_, 0);
  Poll poll;
  const SimTime start = Us(1);
  StartPoll(start, remote_, 0, &poll);
  sim().ScheduleAt(start + Ns(120), [this] { drv().WriteHostU64(remote_, 0x46); });
  sim().RunUntilIdle();
  EXPECT_EQ(poll.value, 0x46u);
  EXPECT_EQ(poll.done_at, start + 3 * interval());
}

TEST_F(PollGridTest, UnwrittenPollerSchedulesNothing) {
  drv().WriteHostU64(remote_, 0);
  Poll poll;
  StartPoll(Us(1), remote_, 0, &poll);
  sim().RunFor(Us(1));
  const uint64_t events = sim().events_processed();
  sim().RunFor(Us(100));
  EXPECT_EQ(sim().events_processed(), events);
  EXPECT_EQ(poll.done_at, -1);
  EXPECT_EQ(bed_.sim().pending_tasks(), 1u);
}

TEST_F(RoceStackTest, WriteLatencyInPaperRange) {
  // Fig 5a: 10 G write latency at small payloads is a few microseconds.
  bed_.node(0).driver().WriteHostU64(local_, 0x1111);
  bed_.node(1).driver().WriteHostU64(remote_, 0);

  SimTime done_at = -1;
  const SimTime start = bed_.sim().now();
  struct Ctx {
    Testbed& bed;
    VirtAddr remote;
    SimTime* done_at;
  };
  auto task = [](Ctx c) -> Task {
    co_await c.bed.node(1).driver().PollU64(c.remote, 0);
    *c.done_at = c.bed.sim().now();
  };
  bed_.sim().Spawn(task(Ctx{bed_, remote_, &done_at}));
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, 64);
  bed_.sim().RunUntil([&] { return done_at >= 0; });

  const double us = ToUs(done_at - start);
  EXPECT_GT(us, 1.0);
  EXPECT_LT(us, 6.0);  // one-way delivery of a 64 B write
}

}  // namespace
}  // namespace strom
