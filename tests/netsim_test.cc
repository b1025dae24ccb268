// Unit tests for the link and switch models: serialization timing,
// propagation, loss/corruption injection, and the FabricSwitch's static
// forwarding, flooding and MAC learning (topologies install exact routes,
// so only these tests reach the flood and learn paths).
#include <gtest/gtest.h>

#include "src/fabric/fabric_switch.h"
#include "src/netsim/arp_table.h"
#include "src/netsim/link.h"
#include "src/sim/simulator.h"

namespace strom {
namespace {

TEST(Link, DeliversFramesWithSerializationAndPropagation) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = Gbps(10);
  cfg.propagation = Ns(100);
  PointToPointLink link(sim, cfg);

  SimTime arrival = -1;
  link.Attach(1, [&](FrameBuf frame, TraceContext) {
    arrival = sim.now();
    EXPECT_EQ(frame.size(), 1226u);
  });

  link.Send(0, FrameBuf::Adopt(ByteBuffer(1226, 0xAB)));
  sim.RunUntilIdle();
  // (1226 + 24 PHY overhead) bytes at 10 Gbit/s = 1 us, + 100 ns propagation.
  EXPECT_EQ(arrival, Us(1) + Ns(100));
}

TEST(Link, BackToBackFramesQueueAtLineRate) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = Gbps(10);
  cfg.propagation = 0;
  PointToPointLink link(sim, cfg);

  std::vector<SimTime> arrivals;
  link.Attach(1, [&](FrameBuf, TraceContext) { arrivals.push_back(sim.now()); });

  link.Send(0, FrameBuf::Adopt(ByteBuffer(1226, 1)));
  link.Send(0, FrameBuf::Adopt(ByteBuffer(1226, 2)));
  sim.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], Us(1));
}

TEST(Link, FullDuplexDirectionsAreIndependent) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = Gbps(10);
  cfg.propagation = 0;
  PointToPointLink link(sim, cfg);

  SimTime a = -1;
  SimTime b = -1;
  link.Attach(0, [&](FrameBuf, TraceContext) { a = sim.now(); });
  link.Attach(1, [&](FrameBuf, TraceContext) { b = sim.now(); });
  link.Send(0, FrameBuf::Adopt(ByteBuffer(1226, 1)));
  link.Send(1, FrameBuf::Adopt(ByteBuffer(1226, 2)));
  sim.RunUntilIdle();
  EXPECT_EQ(a, b);  // no serialization interference
}

TEST(Link, DropNextDropsExactCount) {
  Simulator sim;
  PointToPointLink link(sim, LinkConfig{});
  int received = 0;
  link.Attach(1, [&](FrameBuf, TraceContext) { ++received; });
  link.DropNext(0, 2);
  for (int i = 0; i < 5; ++i) {
    link.Send(0, FrameBuf::Adopt(ByteBuffer(100, 0)));
  }
  sim.RunUntilIdle();
  EXPECT_EQ(received, 3);
  EXPECT_EQ(link.counters(0).frames_dropped, 2u);
  EXPECT_EQ(link.counters(0).frames_sent, 5u);
}

TEST(Link, RandomDropRoughlyMatchesProbability) {
  Simulator sim;
  PointToPointLink link(sim, LinkConfig{});
  int received = 0;
  link.Attach(1, [&](FrameBuf, TraceContext) { ++received; });
  link.SetDropProbability(0, 0.3, /*seed=*/42);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    link.Send(0, FrameBuf::Adopt(ByteBuffer(64, 0)));
    sim.RunUntilIdle();
  }
  EXPECT_NEAR(static_cast<double>(received) / n, 0.7, 0.03);
}

TEST(Link, CorruptNextFlipsPayloadByte) {
  Simulator sim;
  PointToPointLink link(sim, LinkConfig{});
  ByteBuffer got;
  link.Attach(1, [&](FrameBuf f, TraceContext) { got = f.ToBuffer(); });
  link.CorruptNext(0, 1);
  ByteBuffer frame(100, 0x00);
  link.Send(0, FrameBuf::Copy(frame));
  sim.RunUntilIdle();
  ASSERT_EQ(got.size(), frame.size());
  EXPECT_NE(got, frame);
}

TEST(Link, DropProbabilityRngStreamSurvivesRateChange) {
  // Changing the drop rate mid-run must not reseed the RNG: the stream of
  // draws continues where it left off, so the drop pattern stays a pure
  // function of the initial seed and the frame sequence.
  auto run = [](bool change_rate_midway) {
    Simulator sim;
    PointToPointLink link(sim, LinkConfig{});
    bool delivered = false;
    link.Attach(1, [&](FrameBuf, TraceContext) { delivered = true; });
    link.SetDropProbability(0, 0.5, /*seed=*/7);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      if (change_rate_midway && i == 100) {
        link.SetDropProbability(0, 0.5);  // same rate, stream must continue
      }
      delivered = false;
      link.Send(0, FrameBuf::Adopt(ByteBuffer(64, 0)));
      sim.RunUntilIdle();
      pattern.push_back(delivered);
    }
    return pattern;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Link, DropProbabilityExplicitSeedRestartsStream) {
  Simulator sim;
  PointToPointLink link(sim, LinkConfig{});
  bool delivered = false;
  link.Attach(1, [&](FrameBuf, TraceContext) { delivered = true; });
  auto draw = [&](int n) {
    std::vector<bool> pattern;
    for (int i = 0; i < n; ++i) {
      delivered = false;
      link.Send(0, FrameBuf::Adopt(ByteBuffer(64, 0)));
      sim.RunUntilIdle();
      pattern.push_back(delivered);
    }
    return pattern;
  };
  link.SetDropProbability(0, 0.5, /*seed=*/42);
  const std::vector<bool> first = draw(100);
  link.SetDropProbability(0, 0.5, /*seed=*/42);  // reseed: replay from the top
  EXPECT_EQ(draw(100), first);
}

TEST(Link, DroppedFrameDoesNotConsumeCorruptNext) {
  // Composition order: DropNext fires before CorruptNext, and a dropped
  // frame must leave the pending corruption for the next delivered frame.
  Simulator sim;
  PointToPointLink link(sim, LinkConfig{});
  std::vector<ByteBuffer> got;
  link.Attach(1, [&](FrameBuf f, TraceContext) { got.push_back(f.ToBuffer()); });
  link.DropNext(0, 1);
  link.CorruptNext(0, 1);
  const ByteBuffer frame(100, 0x00);
  for (int i = 0; i < 3; ++i) {
    link.Send(0, FrameBuf::Copy(frame));
  }
  sim.RunUntilIdle();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[0], frame);  // corruption landed on the first *delivered* frame
  EXPECT_EQ(got[1], frame);
  EXPECT_EQ(link.counters(0).frames_dropped, 1u);
  EXPECT_EQ(link.counters(0).frames_corrupted, 1u);
}

TEST(Link, DelayNextReordersFrames) {
  Simulator sim;
  LinkConfig cfg;
  cfg.propagation = 0;
  PointToPointLink link(sim, cfg);
  std::vector<uint8_t> order;
  link.Attach(1, [&](FrameBuf f, TraceContext) { order.push_back(f.span()[0]); });
  link.DelayNext(0, 1, Us(50));
  link.Send(0, FrameBuf::Adopt(ByteBuffer(64, 1)));
  link.Send(0, FrameBuf::Adopt(ByteBuffer(64, 2)));
  sim.RunUntilIdle();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // the held-back frame arrives second
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(link.counters(0).frames_reordered, 1u);
}

TEST(Link, DuplicateNextDeliversTwice) {
  Simulator sim;
  PointToPointLink link(sim, LinkConfig{});
  int received = 0;
  link.Attach(1, [&](FrameBuf, TraceContext) { ++received; });
  link.DuplicateNext(0, 1);
  link.Send(0, FrameBuf::Adopt(ByteBuffer(64, 0)));
  link.Send(0, FrameBuf::Adopt(ByteBuffer(64, 1)));
  sim.RunUntilIdle();
  EXPECT_EQ(received, 3);
  EXPECT_EQ(link.counters(0).frames_duplicated, 1u);
  EXPECT_EQ(link.counters(0).frames_sent, 2u);
}

TEST(Link, OversizeFrameDropped) {
  Simulator sim;
  LinkConfig cfg;
  cfg.ip_mtu = 1500;
  PointToPointLink link(sim, cfg);
  int received = 0;
  link.Attach(1, [&](FrameBuf, TraceContext) { ++received; });
  link.Send(0, FrameBuf::Adopt(ByteBuffer(2000, 0)));
  sim.RunUntilIdle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(link.counters(0).frames_oversize, 1u);
}

ByteBuffer FrameTo(const MacAddr& dst, const MacAddr& src) {
  ByteBuffer f(64, 0);
  std::copy(dst.begin(), dst.end(), f.begin());
  std::copy(src.begin(), src.end(), f.begin() + 6);
  return f;
}

TEST(Switch, ForwardsByStaticRoute) {
  Simulator sim;
  FabricSwitch sw(sim, FabricSwitchConfig{});
  const int p0 = sw.AddPort();
  const int p1 = sw.AddPort();
  const int p2 = sw.AddPort();

  MacAddr a{0x02, 0, 0, 0, 0, 1};
  MacAddr b{0x02, 0, 0, 0, 0, 2};
  MacAddr c{0x02, 0, 0, 0, 0, 3};
  sw.AddStaticRoute(a, p0);
  sw.AddStaticRoute(b, p1);
  sw.AddStaticRoute(c, p2);

  int got_b = 0;
  int got_c = 0;
  sw.PortLink(p1).Attach(0, [&](FrameBuf, TraceContext) { ++got_b; });
  sw.PortLink(p2).Attach(0, [&](FrameBuf, TraceContext) { ++got_c; });

  sw.PortLink(p0).Send(0, FrameBuf::Adopt(FrameTo(b, a)));
  sim.RunUntilIdle();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 0);
  EXPECT_EQ(sw.frames_forwarded(), 1u);
}

TEST(Switch, FloodsUnknownAndLearnsSource) {
  Simulator sim;
  FabricSwitch sw(sim, FabricSwitchConfig{});
  const int p0 = sw.AddPort();
  const int p1 = sw.AddPort();
  const int p2 = sw.AddPort();

  MacAddr a{0x02, 0, 0, 0, 0, 1};
  MacAddr b{0x02, 0, 0, 0, 0, 2};

  int got_p1 = 0;
  int got_p2 = 0;
  int got_p0 = 0;
  sw.PortLink(p0).Attach(0, [&](FrameBuf, TraceContext) { ++got_p0; });
  sw.PortLink(p1).Attach(0, [&](FrameBuf, TraceContext) { ++got_p1; });
  sw.PortLink(p2).Attach(0, [&](FrameBuf, TraceContext) { ++got_p2; });

  // Unknown destination: flooded to all but the ingress port; source learned.
  sw.PortLink(p0).Send(0, FrameBuf::Adopt(FrameTo(b, a)));
  sim.RunUntilIdle();
  EXPECT_EQ(got_p0, 0);
  EXPECT_EQ(got_p1, 1);
  EXPECT_EQ(got_p2, 1);
  EXPECT_EQ(sw.frames_flooded(), 1u);

  // Reply to the learned address: unicast.
  sw.PortLink(p1).Send(0, FrameBuf::Adopt(FrameTo(a, b)));
  sim.RunUntilIdle();
  EXPECT_EQ(got_p0, 1);
  EXPECT_EQ(got_p2, 1);  // unchanged
}

TEST(ArpTable, LookupFindsAdded) {
  ArpTable arp;
  MacAddr mac{1, 2, 3, 4, 5, 6};
  arp.Add(MakeIp(10, 0, 0, 1), mac);
  MacAddr out;
  EXPECT_TRUE(arp.Lookup(MakeIp(10, 0, 0, 1), &out));
  EXPECT_EQ(out, mac);
  EXPECT_FALSE(arp.Lookup(MakeIp(10, 0, 0, 9), &out));
}

}  // namespace
}  // namespace strom
