// strombench: the repo benchmark harness (see perfbench/METHOD.md).
//
//   strombench --workload ycsb_mixed|ycsb_incast|shuffle_stream --seed N
//              --seconds S [--trace 0|1] [--samples-out FILE]
//
// One single-threaded process, default event core, telemetry off. Each
// repetition builds the workload through the library's public API, runs it,
// checks its outputs and tears it down; repetitions continue until S host
// seconds have passed, and host times are trimmed means over them, in CPU
// seconds scaled to a reference speed of the machine.
// Every repetition uses the same seed, so simulated results and work counters
// must repeat exactly; the harness checks that they do.
//
// With --trace 1 the repetitions alternate untraced and traced. Traced ones
// sample run-phase host time with ITIMER_PROF and write each sample's return
// addresses to --samples-out (one sample per line, hex, innermost first) for
// run.py to attribute to src/ modules with addr2line.
//
// It prints one JSON line on stdout; perfbench/run.py formats it.
#include <execinfo.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/frame_buf.h"
#include "src/common/hash.h"
#include "src/fabric/fabric.h"
#include "src/kernels/shuffle.h"
#include "src/sim/task.h"
#include "src/testbed/testbed.h"
#include "src/workload/ycsb.h"

namespace strom {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Host times are the mean over repetitions with the fastest and slowest 10%
// dropped. On a shared machine, interference from other tenants comes both
// in sub-second bursts and in slow regimes lasting minutes. The trimmed mean
// had the smallest run-to-run spread of the estimators measured (see
// perfbench/METHOD.md), and the trim drops the warm-up repetition.
double TrimmedMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// ---------------------------------------------------------------------------
// Run-phase host-time sampler (traced run only).

constexpr int kMaxFrames = 48;
constexpr size_t kMaxSamples = 1 << 16;
constexpr int kSampleIntervalUs = 4000;  // ~250 samples per CPU second

struct StackSample {
  int depth = 0;
  std::array<void*, kMaxFrames> pcs{};
};

std::vector<StackSample> g_samples;
std::atomic<size_t> g_num_samples{0};
volatile sig_atomic_t g_sampling = 0;

void OnSigprof(int) {
  if (g_sampling == 0) {
    return;
  }
  const size_t i = g_num_samples.load(std::memory_order_relaxed);
  if (i >= g_samples.size()) {
    return;
  }
  g_samples[i].depth = backtrace(g_samples[i].pcs.data(), kMaxFrames);
  g_num_samples.store(i + 1, std::memory_order_relaxed);
}

void InstallSigprofHandler() {
  g_samples.resize(kMaxSamples);
  void* warm[4];
  backtrace(warm, 4);  // loads the unwinder outside the signal handler
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  STROM_CHECK(sigaction(SIGPROF, &sa, nullptr) == 0);
}

// Arms (or disarms) the profiling timer around a traced run phase, so
// untraced repetitions of a traced invocation take no signals at all.
void SetSampling(bool on) {
  g_sampling = on ? 1 : 0;
  itimerval tv{};
  if (on) {
    tv.it_interval.tv_usec = kSampleIntervalUs;
    tv.it_value.tv_usec = kSampleIntervalUs;
  }
  STROM_CHECK(setitimer(ITIMER_PROF, &tv, nullptr) == 0);
}

// ---------------------------------------------------------------------------
// Per-repetition results.

// Ordered so the digest and the printed counter list have a fixed order.
using CounterMap = std::map<std::string, double>;

struct RepResult {
  // Host seconds per harness call (the spans of the traced run).
  double topology_s = 0;
  double workload_setup_s = 0;
  double run_s = 0;
  double run_wall_s = 0;
  double teardown_s = 0;
  // Simulated results.
  LatencyStats latency;  // YCSB only: arrival -> completion per op
  double sim_exec_ms = 0;  // shuffle_stream only: Fig 11 execution time
  double sim_goodput_gbps = 0;
  uint64_t attempted = 0;  // YCSB: ops arrived; shuffle_stream: tuples
  std::vector<std::string> check_failures;
  // Run-phase work counters, deltas across Run() (peaks are absolute).
  CounterMap counters;
};

// Work counters read through public accessors. Topology-independent: the
// caller passes every node and every link side it owns.
struct CounterSources {
  Simulator* sim = nullptr;
  std::vector<Node*> nodes;
  std::vector<const PointToPointLink*> links;
  std::vector<FabricSwitch*> switches;
};

CounterMap Snapshot(const CounterSources& src) {
  CounterMap c;
  c["sim.events"] = static_cast<double>(src.sim->events_processed());
  uint64_t tx_packets = 0, acks = 0, retrans = 0, timeouts = 0, deferrals = 0,
           cuts = 0, cnps = 0, rx_payload = 0;
  uint64_t dma_reads = 0, dma_writes = 0, dma_bytes = 0, splits = 0, tlb = 0;
  uint64_t rpcs = 0, kreads = 0, kwrites = 0, kresp = 0;
  for (Node* n : src.nodes) {
    const RoceCounters& r = n->stack().counters();
    tx_packets += r.tx_packets;
    acks += r.tx_acks;
    retrans += r.retransmitted_packets;
    timeouts += r.timeouts;
    deferrals += r.pacing_deferrals;
    cuts += r.dcqcn_rate_cuts;
    cnps += r.rx_cnp;
    rx_payload += r.rx_payload_bytes;
    const DmaCounters& d = n->dma().counters();
    dma_reads += d.read_commands;
    dma_writes += d.write_commands;
    dma_bytes += d.bytes_read + d.bytes_written;
    splits += d.segment_splits;
    tlb += n->tlb().lookups();
    const EngineCounters& e = n->engine().counters();
    rpcs += e.rpcs_dispatched;
    kreads += e.kernel_dma_reads;
    kwrites += e.kernel_dma_writes;
    kresp += e.kernel_responses;
  }
  c["roce.tx_packets"] = double(tx_packets);
  c["roce.acks"] = double(acks);
  c["roce.retransmits"] = double(retrans);
  c["roce.timeouts"] = double(timeouts);
  c["roce.pacing_deferrals"] = double(deferrals);
  c["roce.rate_cuts"] = double(cuts);
  c["roce.cnps"] = double(cnps);
  c["roce.rx_payload_bytes"] = double(rx_payload);
  c["pcie.dma_reads"] = double(dma_reads);
  c["pcie.dma_writes"] = double(dma_writes);
  c["pcie.dma_bytes"] = double(dma_bytes);
  c["pcie.dma_splits"] = double(splits);
  c["pcie.tlb_lookups"] = double(tlb);
  c["strom.rpcs"] = double(rpcs);
  c["strom.kernel_dma_reads"] = double(kreads);
  c["strom.kernel_dma_writes"] = double(kwrites);
  c["strom.kernel_responses"] = double(kresp);
  uint64_t enq = 0, ce = 0, drops = 0, peak = 0;
  for (FabricSwitch* sw : src.switches) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      const FabricPortCounters& pc = sw->counters(p);
      enq += pc.frames_enqueued;
      ce += pc.ce_marked;
      drops += pc.tail_drops;
      peak = std::max(peak, pc.queue_bytes_peak);
    }
  }
  c["fabric.frames_enqueued"] = double(enq);
  c["fabric.ce_marked"] = double(ce);
  c["fabric.tail_drops"] = double(drops);
  c["fabric.queue_peak_bytes"] = double(peak);
  uint64_t sent = 0, dropped = 0;
  for (const PointToPointLink* l : src.links) {
    for (int side = 0; side < 2; ++side) {
      sent += l->counters(side).frames_sent;
      dropped += l->counters(side).frames_dropped;
    }
  }
  c["netsim.frames_sent"] = double(sent);
  c["netsim.frames_dropped"] = double(dropped);
  const FramePoolStats fp = GetFramePoolStats();
  c["common.frame_allocs"] = double(fp.allocations);
  c["common.frame_reuses"] = double(fp.reuses);
  return c;
}

// Run-phase deltas of every counter except the peak, which is absolute.
CounterMap Delta(const CounterMap& before, const CounterMap& after) {
  CounterMap d;
  for (const auto& [name, value] : after) {
    d[name] = name == "fabric.queue_peak_bytes" ? value : value - before.at(name);
  }
  return d;
}

double SafeRatio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Adds the derived ratios once every counter of the repetition is in.
void AddRatios(CounterMap& c, double ops) {
  const double frames = c["netsim.frames_sent"];
  c["sim.events_per_op"] = SafeRatio(c["sim.events"], ops);
  c["sim.events_per_frame"] = SafeRatio(c["sim.events"], frames);
  c["pcie.dma_cmds_per_frame"] =
      SafeRatio(c["pcie.dma_reads"] + c["pcie.dma_writes"], frames);
  c["roce.useful_frac"] =
      SafeRatio(c["roce.tx_packets"] - c["roce.retransmits"], c["roce.tx_packets"]);
  c["common.frame_reuse_frac"] = SafeRatio(
      c["common.frame_reuses"], c["common.frame_reuses"] + c["common.frame_allocs"]);
}

// Payload bytes received by all NICs per simulated second of `window`.
double GoodputGbps(const CounterMap& c, SimTime window) {
  return SafeRatio(c.at("roce.rx_payload_bytes") * 8.0, ToSec(window)) / 1e9;
}

// ---------------------------------------------------------------------------
// Host time.

// Host time of a phase is the harness thread's CPU time. The harness is one
// thread that does no I/O while it is timed, so this is its wall time minus
// the time the shared machine ran something else: the kernel charges neither
// preemption by other processes nor hypervisor steal to a thread's CPU clock.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Phases {
  double cpu_mark = ThreadCpuSeconds();
  Clock::time_point wall_mark = Clock::now();
  double wall_s = 0;  // wall seconds of the last lap, for the record
  double Lap() {
    const double cpu = ThreadCpuSeconds();
    const double s = cpu - cpu_mark;
    wall_s = SecondsSince(wall_mark);
    cpu_mark = cpu;
    wall_mark = Clock::now();
    return s;
  }
};

// Reference kernel: a yardstick for the machine's speed.
//
// Other tenants of a shared machine slow this one down in stretches that last
// from seconds to minutes, by up to 1.6x, through the core and caches they
// share; thread CPU time does not see that. A fixed kernel timed before every
// repetition slows down with the simulator, so the reported host times are
// CPU seconds at the reference speed:
//   measured CPU seconds x (kReferenceS / kernel CPU seconds)^kSpeedExponent,
// each a trimmed mean over the run. The kernel reacts more strongly than the
// simulator: across runs, log simulator time rose with log kernel time at a
// slope of 0.6-0.7 (see perfbench/METHOD.md). The kernel is perfbench's own
// code, so a change to src/ cannot move it.
constexpr double kReferenceS = 0.025;  // the kernel's CPU time when it runs fast
constexpr double kSpeedExponent = 0.6;

constexpr size_t kReferenceTableWords = (4u << 20) / 8;  // a 4 MiB table
volatile uint64_t g_reference_sink = 0;

double ReferenceKernelSeconds() {
  // A new table each time, so no one placement of its pages in the caches
  // decides the run.
  std::vector<uint64_t> table(kReferenceTableWords);
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = i * 0x9E3779B97F4A7C15ull;
  }
  const double start = ThreadCpuSeconds();
  // Random read-modify-writes with independent addresses: cache and memory
  // parallelism, like the simulator's lookups into its tables.
  uint64_t acc = 0, key = 1;
  for (int i = 0; i < 2'000'000; ++i) {
    key = key * 6364136223846793005ull + 1442695040888963407ull;
    const size_t h = (key >> 20) & (kReferenceTableWords - 1);
    acc += table[h];
    table[(h + 1) & (kReferenceTableWords - 1)] ^= acc;
  }
  // Eight interleaved integer hash chains: a core running many independent
  // instructions at once, as the simulator's event handlers do.
  std::array<uint64_t, 8> x{};
  for (size_t k = 0; k < x.size(); ++k) {
    x[k] = acc + k;
  }
  for (int i = 0; i < 1'500'000; ++i) {
    for (size_t k = 0; k < x.size(); ++k) {
      x[k] ^= x[k] << 13;
      x[k] ^= x[k] >> 7;
      x[k] ^= x[k] << 17;
      x[k] += x[(k + 1) % x.size()] * 3;
    }
  }
  const double s = ThreadCpuSeconds() - start;
  for (uint64_t v : x) {
    g_reference_sink = g_reference_sink + v;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Workloads.

// ycsb_mixed / ycsb_incast: 8 hosts on one leaf, zipf 0.99 over 100k sessions
// per host, 512 B values, open loop, ECN + DCQCN on, the ycsb_rack bench's
// shallow-buffer switch settings.
constexpr int kRackHosts = 8;

YcsbConfig RackConfig(bool incast, uint64_t seed) {
  YcsbConfig y;
  y.sessions_per_host = 100'000;
  y.zipf_theta = 0.99;
  y.value_bytes = 512;
  y.qps_per_peer = 2;  // 28 host pairs x 2 lanes = 56 connected QP pairs
  y.seed = seed;
  y.incast = incast;
  y.duration = Ms(20);
  if (incast) {
    // 7 senders x 280k WRITEs/s of 512 B: ~96% of the victim's 10G port.
    y.ops_per_host_per_sec = 280'000;
  } else {
    y.read_fraction = 0.50;
    y.write_fraction = 0.40;  // remainder: StRoM GET RPCs
    y.ops_per_host_per_sec = 200'000;
  }
  return y;
}

RepResult RunYcsb(bool incast, uint64_t seed, bool sample) {
  RepResult res;
  Phases ph;
  const YcsbConfig ycfg = RackConfig(incast, seed);
  Profile profile = Profile10G();
  profile.roce.max_qps = kRackHosts * ycfg.qps_per_peer + 8;
  profile.roce.ecn_capable = true;
  profile.roce.dcqcn.enable = true;
  FabricTopologyConfig topo;
  topo.num_hosts = kRackHosts;
  topo.num_leaves = 1;
  topo.num_spines = 0;
  topo.sw.egress_queue_bytes = 40 * 1024;
  topo.sw.ecn_threshold_bytes = 16 * 1024;
  auto fabric = std::make_unique<Fabric>(profile, topo);
  res.topology_s = ph.Lap();

  auto engine = std::make_unique<YcsbEngine>(*fabric, ycfg);
  engine->Setup();
  res.workload_setup_s = ph.Lap();

  CounterSources src;
  src.sim = &fabric->sim();
  for (int i = 0; i < fabric->num_hosts(); ++i) {
    src.nodes.push_back(&fabric->node(i));
  }
  for (int l = 0; l < fabric->num_leaves(); ++l) {
    FabricSwitch& sw = fabric->leaf(l);
    src.switches.push_back(&sw);
    for (int p = 0; p < sw.num_ports(); ++p) {
      if (sw.OwnsPortLink(p)) {
        src.links.push_back(&sw.PortLink(p));
      }
    }
  }
  const CounterMap before = Snapshot(src);
  ph.Lap();
  SetSampling(sample);
  const YcsbReport r = engine->Run();
  SetSampling(false);
  res.run_s = ph.Lap();
  res.run_wall_s = ph.wall_s;
  res.counters = Delta(before, Snapshot(src));

  CounterMap& c = res.counters;
  c["workload.ops_arrived"] = double(r.ops_arrived);
  c["workload.ops_completed"] = double(r.ops_completed);
  c["workload.reads"] = double(r.reads);
  c["workload.writes"] = double(r.writes);
  c["workload.gets"] = double(r.gets);
  c["kernels.tuples"] = 0;
  c["kernels.flushes"] = 0;
  AddRatios(c, double(r.ops_arrived));
  res.latency = r.all;
  // Run() returns at its 3x-duration wedge guard, so the simulated clock
  // says nothing about the drain; goodput is taken over the arrival window.
  res.sim_goodput_gbps = GoodputGbps(c, ycfg.duration);

  // Conservation: every arrived op reached exactly one terminal state, none
  // failed or was fenced, and the drain finished before the wedge guard.
  res.attempted = r.ops_arrived;
  const uint64_t terminal = r.ops_completed + r.ops_failed + r.ops_fenced;
  if (terminal != r.ops_arrived) {
    res.check_failures.push_back("conservation: arrived != completed + failed + fenced");
  }
  if (r.deadline_hit) {
    res.check_failures.push_back("drain deadline hit");
  }
  if (r.ops_failed + r.ops_fenced != 0) {
    res.check_failures.push_back("ops failed or fenced");
  }
  if (r.all.count() < 10'000) {
    res.check_failures.push_back("fewer than 10 latency samples beyond p999");
  }
  ph.Lap();
  engine.reset();
  fabric.reset();
  res.teardown_s = ph.Lap();
  return res;
}

// shuffle_stream: the Fig 11 StRoM shuffle. Node 0 streams random 8 B tuples
// through one RDMA RPC WRITE over the direct 10G cable; node 1's shuffle
// kernel radix-partitions them into 1024 host-memory regions.
constexpr Qpn kShuffleQp = 1;
constexpr uint32_t kPartitionBits = 10;
constexpr uint32_t kNumPartitions = 1u << kPartitionBits;
// Fig 11's 256 MB point at the fig11 bench's default 1/8 scale.
constexpr size_t kShuffleBytes = 32'000'000;  // 4M tuples

RepResult RunShuffle(uint64_t seed, bool sample) {
  // The input comes from the seed and is generated before any timing starts.
  const size_t num_tuples = kShuffleBytes / 8;
  ByteBuffer raw(kShuffleBytes);
  Rng rng(seed);
  for (size_t i = 0; i < num_tuples; ++i) {
    StoreLe64(raw.data() + i * 8, rng.Next());
  }

  RepResult res;
  Phases ph;
  auto bed = std::make_unique<Testbed>(Profile10G());
  res.topology_s = ph.Lap();

  bed->ConnectQp(0, kShuffleQp, 1, kShuffleQp);
  const KernelConfig kc{bed->profile().roce.clock_ps, bed->profile().roce.data_width};
  STROM_CHECK(bed->node(1)
                  .engine()
                  .DeployKernel(std::make_unique<ShuffleKernel>(bed->node(1).sim(), kc))
                  .ok());
  RoceDriver& drv = bed->node(0).driver();
  const VirtAddr resp = drv.AllocBuffer(4096)->addr;
  const VirtAddr input = drv.AllocBuffer(kShuffleBytes)->addr;
  // Per-partition regions with 50% headroom over the uniform share.
  uint64_t stride = (kShuffleBytes / kNumPartitions) * 3 / 2 + 256;
  stride = (stride + 7) & ~uint64_t{7};
  const VirtAddr dest =
      bed->node(1).driver().AllocBuffer(stride * kNumPartitions)->addr;
  STROM_CHECK(drv.WriteHost(input, ByteSpan(raw.data(), raw.size())).ok());
  drv.WriteHostU64(resp, 0);
  res.workload_setup_s = ph.Lap();

  CounterSources src;
  src.sim = &bed->sim();
  src.nodes = {&bed->node(0), &bed->node(1)};
  src.links = {bed->direct_link()};
  const CounterMap before = Snapshot(src);
  const SimTime t0 = bed->sim().now();
  ph.Lap();
  SetSampling(sample);
  ShuffleParams params;
  params.target_addr = resp;
  params.partition_bits = kPartitionBits;
  params.region_base = dest;
  params.region_stride = stride;
  drv.PostRpc(kShuffleRpcOpcode, kShuffleQp, params.Encode());
  drv.PostRpcWrite(kShuffleRpcOpcode, kShuffleQp, input, static_cast<uint32_t>(kShuffleBytes));
  bool done = false;
  uint64_t status = 0;
  auto waiter = [](RoceDriver& d, VirtAddr addr, uint64_t* out, bool* flag) -> Task {
    *out = co_await d.PollU64(addr, 0);
    *flag = true;
  };
  bed->sim().Spawn(waiter(drv, resp, &status, &done));
  bed->sim().RunUntil([&] { return done; });
  const SimTime status_at = bed->sim().now();
  // Fig 11 counts until the partitioned data has drained into host memory.
  bed->sim().RunUntilIdle();
  SetSampling(false);
  res.run_s = ph.Lap();
  res.run_wall_s = ph.wall_s;
  const SimTime elapsed = std::max(status_at, bed->sim().now()) - t0;
  res.counters = Delta(before, Snapshot(src));

  auto* kernel =
      static_cast<ShuffleKernel*>(bed->node(1).engine().FindKernel(kShuffleRpcOpcode));
  CounterMap& c = res.counters;
  c["workload.ops_arrived"] = 1;
  c["workload.ops_completed"] = done ? 1 : 0;
  c["workload.reads"] = 0;
  c["workload.writes"] = 0;
  c["workload.gets"] = 0;
  c["kernels.tuples"] = double(kernel->tuples_partitioned());
  c["kernels.flushes"] = double(kernel->buffer_flushes());
  AddRatios(c, double(num_tuples));
  res.sim_exec_ms = ToUs(elapsed) / 1000.0;
  res.sim_goodput_gbps = GoodputGbps(c, elapsed);

  // Every tuple must sit in the partition its radix bits name, in stream
  // order, read back from node 1's host memory.
  res.attempted = num_tuples;
  uint64_t misplaced = 0;
  if (!done || StatusWordCode(status) != KernelStatusCode::kOk ||
      StatusWordExtra(status) != static_cast<uint32_t>(num_tuples)) {
    res.check_failures.push_back("shuffle status word missing or wrong");
  }
  if (kernel->tuples_partitioned() != num_tuples) {
    res.check_failures.push_back("tuples_partitioned != input tuples");
  }
  if (kernel->overflow_drops() != 0) {
    res.check_failures.push_back("partition overflow drops");
  }
  std::vector<std::vector<uint64_t>> expected(kNumPartitions);
  for (size_t i = 0; i < num_tuples; ++i) {
    const uint64_t t = LoadLe64(raw.data() + i * 8);
    expected[RadixPartition(t, kPartitionBits)].push_back(t);
  }
  for (uint32_t p = 0; p < kNumPartitions; ++p) {
    const std::vector<uint64_t>& want = expected[p];
    if (want.size() * 8 > stride) {
      misplaced += want.size();
      continue;
    }
    Result<ByteBuffer> got = bed->node(1).driver().ReadHost(dest + p * stride, want.size() * 8);
    if (!got.ok()) {
      misplaced += want.size();
      continue;
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (LoadLe64(got->data() + i * 8) != want[i]) {
        ++misplaced;
      }
    }
  }
  if (misplaced != 0) {
    res.check_failures.push_back("tuples missing from their radix partition: " +
                                 std::to_string(misplaced));
  }
  ph.Lap();
  bed.reset();
  res.teardown_s = ph.Lap();
  return res;
}

// ---------------------------------------------------------------------------
// Digest and output.

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

// Hash of every simulated result of one repetition: the sorted latency
// samples, execution time and every per-layer work counter. With `pool` off
// it leaves out the FrameBuf pool counters, which depend on what earlier
// repetitions in the same process left in the pool.
uint64_t SimDigest(const RepResult& r, bool pool) {
  uint64_t h = 0xcbf29ce484222325ull;
  const size_t n = r.latency.count();
  h = Fnv(h, &n, sizeof(n));
  for (size_t i = 0; i < n; ++i) {
    const SimTime s = r.latency.Percentile(n > 1 ? 100.0 * double(i) / double(n - 1) : 50);
    h = Fnv(h, &s, sizeof(s));
  }
  h = Fnv(h, &r.sim_exec_ms, sizeof(r.sim_exec_ms));
  for (const auto& [name, value] : r.counters) {
    if (!pool && name.rfind("common.", 0) == 0) {
      continue;
    }
    h = Fnv(h, name.data(), name.size());
    h = Fnv(h, &value, sizeof(value));
  }
  return h;
}

void PrintJsonNumber(const char* key, double v, bool* first) {
  std::printf("%s\"%s\": %.17g", *first ? "" : ", ", key, v);
  *first = false;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string samples_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--samples-out") {
      a->samples_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 &&
         (a->workload == "ycsb_mixed" || a->workload == "ycsb_incast" ||
          a->workload == "shuffle_stream") &&
         a->seconds > 0 && (!a->trace || !a->samples_out.empty());
}

RepResult RunRep(const Args& a, bool sample) {
  if (a.workload == "shuffle_stream") {
    return RunShuffle(a.seed, sample);
  }
  return RunYcsb(a.workload == "ycsb_incast", a.seed, sample);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: strombench --workload ycsb_mixed|ycsb_incast|shuffle_stream "
                 "--seed N --seconds S [--trace 0|1 --samples-out FILE]\n");
    return 2;
  }
  if (args.trace) {
    InstallSigprofHandler();
  }
  const Clock::time_point start = Clock::now();
  std::vector<RepResult> reps;
  std::vector<double> run_s, run_wall_s, traced_run_s, setup_s, reference_s;
  std::vector<double> span_topology, span_setup, span_run, span_teardown;
  // At least three repetitions, so the repeat check has something to compare;
  // in a traced run at least two of each kind.
  const size_t min_reps = args.trace ? 4 : 3;
  while (reps.size() < min_reps || SecondsSince(start) < args.seconds) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    if (!traced) {
      reference_s.push_back(ReferenceKernelSeconds());
    }
    RepResult r = RunRep(args, traced);
    (traced ? traced_run_s : run_s).push_back(r.run_s);
    if (traced) {
      span_topology.push_back(r.topology_s);
      span_setup.push_back(r.workload_setup_s);
      span_run.push_back(r.run_s);
      span_teardown.push_back(r.teardown_s);
    } else {
      setup_s.push_back(r.topology_s + r.workload_setup_s);
      run_wall_s.push_back(r.run_wall_s);
    }
    reps.push_back(std::move(r));
  }

  const RepResult& first = reps.front();
  // Same seed, same work: every repetition must reproduce the first one's
  // simulated results and work counters exactly.
  const uint64_t ref = SimDigest(first, /*pool=*/false);
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (size_t i = 0; i < reps.size(); ++i) {
    std::vector<std::string>& f = reps[i].check_failures;
    if (SimDigest(reps[i], /*pool=*/false) != ref) {
      f.push_back("simulated results differ from rep 0 under the same seed");
    }
    // A repetition that fails any check counts all of its ops as failed.
    attempted += reps[i].attempted;
    failed += f.empty() ? 0 : reps[i].attempted;
    for (const std::string& msg : f) {
      failures.push_back("rep " + std::to_string(i) + ": " + msg);
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  if (args.trace) {
    FILE* f = std::fopen(args.samples_out.c_str(), "w");
    STROM_CHECK(f != nullptr) << "cannot write " << args.samples_out;
    const size_t n = g_num_samples.load();
    for (size_t i = 0; i < n; ++i) {
      for (int d = 0; d < g_samples[i].depth; ++d) {
        std::fprintf(f, "%s%" PRIxPTR, d == 0 ? "" : " ",
                     reinterpret_cast<uintptr_t>(g_samples[i].pcs[d]));
      }
      std::fputc('\n', f);
    }
    std::fclose(f);
  }

  // One JSON line; run.py turns it into the report and the result line.
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"reps\": %zu, ",
              args.workload.c_str(), args.seed, reps.size());
  std::printf("\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", ",
              failures.empty() ? "true" : "false", attempted, failed);
  std::printf("\"sim_digest\": \"%016" PRIx64 "\", \"checks\": [",
              SimDigest(first, /*pool=*/true));
  for (size_t i = 0; i < failures.size(); ++i) {
    // Check messages hold no character that JSON would need escaped.
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", failures[i].c_str());
  }
  auto print_list = [](const char* key, const std::vector<double>& v) {
    std::printf(", \"%s\": [", key);
    for (size_t i = 0; i < v.size(); ++i) {
      std::printf("%s%.17g", i == 0 ? "" : ", ", v[i]);
    }
    std::printf("]");
  };
  std::printf("]");
  print_list("run_s_reps", run_s);
  print_list("run_wall_s_reps", run_wall_s);
  print_list("reference_s_reps", reference_s);
  print_list("setup_s_reps", setup_s);
  std::printf(", \"end_to_end\": {");
  bool fst = true;
  const double speed = std::pow(kReferenceS / TrimmedMean(reference_s), kSpeedExponent);
  PrintJsonNumber("run_s", TrimmedMean(run_s) * speed, &fst);
  PrintJsonNumber("setup_s", TrimmedMean(setup_s) * speed, &fst);
  PrintJsonNumber("run_cpu_s", TrimmedMean(run_s), &fst);
  PrintJsonNumber("setup_cpu_s", TrimmedMean(setup_s), &fst);
  PrintJsonNumber("reference_s", TrimmedMean(reference_s), &fst);
  PrintJsonNumber("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, &fst);
  PrintJsonNumber("sim_goodput_gbps", first.sim_goodput_gbps, &fst);
  PrintJsonNumber("ops_failed_frac", SafeRatio(double(failed), double(attempted)), &fst);
  if (first.sim_exec_ms > 0) {
    PrintJsonNumber("sim_exec_ms", first.sim_exec_ms, &fst);
  }
  if (first.latency.count() > 0) {
    PrintJsonNumber("sim_p50_us", ToUs(first.latency.Percentile(50)), &fst);
    PrintJsonNumber("sim_p99_us", ToUs(first.latency.Percentile(99)), &fst);
    PrintJsonNumber("sim_p999_us", ToUs(first.latency.Percentile(99.9)), &fst);
    PrintJsonNumber("sim_ops", double(first.latency.count()), &fst);
  }
  std::printf("}, \"per_layer\": {");
  fst = true;
  for (const auto& [name, value] : first.counters) {
    if (name != "roce.rx_payload_bytes") {
      PrintJsonNumber(name.c_str(), value, &fst);
    }
  }
  if (args.trace) {
    PrintJsonNumber("span.topology_s", TrimmedMean(span_topology), &fst);
    PrintJsonNumber("span.workload_setup_s", TrimmedMean(span_setup), &fst);
    PrintJsonNumber("span.run_s", TrimmedMean(span_run), &fst);
    PrintJsonNumber("span.teardown_s", TrimmedMean(span_teardown), &fst);
    PrintJsonNumber("trace.overhead_frac", TrimmedMean(traced_run_s) / TrimmedMean(run_s) - 1.0, &fst);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace strom

int main(int argc, char** argv) { return strom::Main(argc, argv); }
