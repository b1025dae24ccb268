// Rack-scale YCSB driver: k hosts behind a congestion-aware fabric (single
// switch or leaf/spine), hundreds of thousands of zipfian client sessions
// multiplexed onto QP lanes, open-loop arrivals, p50/p99/p999 reporting.
//
// Unlike the fig* benches this binary does not use google/benchmark — it is a
// scenario runner with its own flags — but it shares the telemetry plumbing
// (--metrics-out, --capture-out, --fault-plan, --perf-out, ... are all
// honored via InitBenchTelemetry).
//
//   ycsb_rack [telemetry flags] [--hosts=4] [--leaves=1] [--spines=0]
//             [--sessions=100000] [--zipf=0.99] [--value-bytes=512]
//             [--qps-per-peer=4] [--ops-rate=200000] [--duration-us=2000]
//             [--outstanding=64] [--seed=42] [--read-frac=0.5]
//             [--write-frac=0.4] [--ecn-threshold=16384] [--queue-bytes=40960]
//             [--pfc] [--cc=0|1] [--incast] [--compare]
//
// --compare runs the incast scenario twice — congestion control off, then
// ECN/DCQCN on — and reports the p999 ratio; this is the paper-style
// "fig11-shuffle incast" stress showing DCQCN taming the tail.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/workload/ycsb.h"

namespace strom {
namespace {

struct Options {
  int hosts = 4;
  int leaves = 1;
  int spines = 0;
  YcsbConfig ycsb;
  // Shallow-buffer defaults: deep enough for the steady-state mixed workload,
  // shallow enough that an unthrottled incast overflows into tail drops —
  // which is exactly the regime where ECN/DCQCN earns its keep.
  size_t ecn_threshold = 16 * 1024;
  size_t queue_bytes = 40 * 1024;
  bool pfc = false;
  bool cc = true;     // ECN marking + DCQCN reaction
  bool compare = false;
  // Which load knobs the user pinned on the command line; --compare applies an
  // incast stress preset to the ones left at their defaults.
  bool ops_rate_set = false;
  bool outstanding_set = false;
  bool duration_set = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) {
    return false;
  }
  if (arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0') {
    // Not `*out = "1"`: gcc 12 at -O3 reports a false -Wrestrict on that
    // inlined copy, which breaks the -Werror build.
    out->assign(1, '1');
    return true;
  }
  return false;
}

YcsbReport RunOne(const Options& opt, bool cc_enabled) {
  Profile profile = Profile10G();
  profile.roce.max_qps =
      static_cast<uint32_t>(opt.hosts) * opt.ycsb.qps_per_peer + 8;
  profile.roce.ecn_capable = cc_enabled;
  profile.roce.dcqcn.enable = cc_enabled;

  FabricTopologyConfig topo;
  topo.num_hosts = opt.hosts;
  topo.num_leaves = opt.leaves;
  topo.num_spines = opt.spines;
  topo.sw.egress_queue_bytes = opt.queue_bytes;
  topo.sw.ecn_threshold_bytes = opt.ecn_threshold;
  topo.sw.pfc = opt.pfc;

  Fabric fabric(profile, topo);
  YcsbEngine engine(fabric, opt.ycsb);
  engine.Setup();
  return engine.Run();
}

void PrintPercentiles(const char* label, const LatencyStats& s) {
  if (s.count() == 0) {
    std::printf("  %-8s      (no samples)\n", label);
    return;
  }
  std::printf("  %-8s n=%-8zu p50=%8.2fus  p99=%8.2fus  p999=%8.2fus\n", label,
              s.count(), ToUs(s.Percentile(50)), ToUs(s.Percentile(99)),
              ToUs(s.Percentile(99.9)));
}

// Deposits per-op-class latency percentiles into the metrics collector so
// --metrics-out CSVs carry READ/WRITE/kernel-GET p50/p99/p999 per scenario.
// Gated on --flow-stats: default metrics dumps stay byte-identical.
void DepositOpClassRow(const std::string& label, const YcsbReport& r) {
  if (Fabric::telemetry_defaults.collector == nullptr ||
      Fabric::telemetry_defaults.flow_sink == nullptr) {
    return;
  }
  MetricsRegistry::Snapshot row;
  auto add = [&row](const char* cls, const LatencyStats& s) {
    if (s.count() == 0) {
      return;
    }
    const std::string prefix = std::string(cls) + ".";
    row.gauges.emplace_back(prefix + "count", double(s.count()));
    row.gauges.emplace_back(prefix + "p50_us", ToUs(s.Percentile(50)));
    row.gauges.emplace_back(prefix + "p99_us", ToUs(s.Percentile(99)));
    row.gauges.emplace_back(prefix + "p999_us", ToUs(s.Percentile(99.9)));
  };
  add("all", r.all);
  add("read", r.read_lat);
  add("write", r.write_lat);
  add("get", r.get_lat);
  Fabric::telemetry_defaults.collector->Collect(label, std::move(row));
}

void PrintReport(const char* title, const YcsbReport& r) {
  std::printf("%s\n", title);
  std::printf("  ops: arrived=%llu completed=%llu failed=%llu%s\n",
              (unsigned long long)r.ops_arrived, (unsigned long long)r.ops_completed,
              (unsigned long long)r.ops_failed,
              r.deadline_hit ? "  [DEADLINE HIT: drain incomplete]" : "");
  PrintPercentiles("all", r.all);
  PrintPercentiles("read", r.read_lat);
  PrintPercentiles("write", r.write_lat);
  PrintPercentiles("get", r.get_lat);
  std::printf("  fabric: ce_marked=%llu tail_drops=%llu queue_peak=%llu B\n",
              (unsigned long long)r.ce_marked, (unsigned long long)r.tail_drops,
              (unsigned long long)r.queue_bytes_peak);
  std::printf("  cc:     rx_cnp=%llu rate_cuts=%llu pacing_deferrals=%llu pfc_pauses=%llu\n",
              (unsigned long long)r.rx_cnp, (unsigned long long)r.rate_cuts,
              (unsigned long long)r.pacing_deferrals,
              (unsigned long long)r.pfc_pause_events);
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--hosts", &v)) {
      opt.hosts = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--leaves", &v)) {
      opt.leaves = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--spines", &v)) {
      opt.spines = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--sessions", &v)) {
      opt.ycsb.sessions_per_host = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--zipf", &v)) {
      opt.ycsb.zipf_theta = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--value-bytes", &v)) {
      opt.ycsb.value_bytes = static_cast<uint32_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(argv[i], "--qps-per-peer", &v)) {
      opt.ycsb.qps_per_peer = static_cast<uint32_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(argv[i], "--ops-rate", &v)) {
      opt.ycsb.ops_per_host_per_sec = std::atof(v.c_str());
      opt.ops_rate_set = true;
    } else if (ParseFlag(argv[i], "--duration-us", &v)) {
      opt.ycsb.duration = Us(std::strtoull(v.c_str(), nullptr, 10));
      opt.duration_set = true;
    } else if (ParseFlag(argv[i], "--outstanding", &v)) {
      opt.ycsb.max_outstanding_per_host = static_cast<uint32_t>(std::atoi(v.c_str()));
      opt.outstanding_set = true;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      opt.ycsb.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--read-frac", &v)) {
      opt.ycsb.read_fraction = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--write-frac", &v)) {
      opt.ycsb.write_fraction = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--keys-per-server", &v)) {
      opt.ycsb.keys_per_server = static_cast<uint32_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(argv[i], "--ecn-threshold", &v)) {
      opt.ecn_threshold = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--queue-bytes", &v)) {
      opt.queue_bytes = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--pfc", &v)) {
      opt.pfc = v != "0";
    } else if (ParseFlag(argv[i], "--cc", &v)) {
      opt.cc = v != "0";
    } else if (ParseFlag(argv[i], "--incast", &v)) {
      opt.ycsb.incast = v != "0";
    } else if (ParseFlag(argv[i], "--compare", &v)) {
      opt.compare = v != "0";
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  if (opt.compare) {
    Options stress = opt;
    stress.ycsb.incast = true;
    // Incast stress preset: drive the victim port well past line rate with a
    // window deep enough to overflow the shallow egress queue. Any knob the
    // user pinned explicitly is left alone.
    if (!stress.ops_rate_set) {
      stress.ycsb.ops_per_host_per_sec = 700000;
    }
    if (!stress.outstanding_set) {
      stress.ycsb.max_outstanding_per_host = 256;
    }
    if (!stress.duration_set) {
      // Long enough that events_per_sec in the perf report measures the event
      // loop rather than testbed setup/teardown (the report divides by total
      // process wall time).
      stress.ycsb.duration = Us(20000);
    }
    std::printf("=== incast %d->1, CC disabled ===\n", opt.hosts - 1);
    const YcsbReport off = RunOne(stress, /*cc_enabled=*/false);
    PrintReport("", off);
    DepositOpClassRow("ycsb:incast_cc_off", off);
    std::printf("=== incast %d->1, ECN/DCQCN enabled ===\n", opt.hosts - 1);
    const YcsbReport on = RunOne(stress, /*cc_enabled=*/true);
    PrintReport("", on);
    DepositOpClassRow("ycsb:incast_cc_on", on);
    if (off.all.count() > 0 && on.all.count() > 0) {
      const double off_p999 = ToUs(off.all.Percentile(99.9));
      const double on_p999 = ToUs(on.all.Percentile(99.9));
      std::printf("p999: %0.2fus -> %0.2fus (%.2fx)\n", off_p999, on_p999,
                  off_p999 / on_p999);
      // Tail-latency entries for the CI perf gate (soft, perfdiff-compared).
      bench::RecordPerfExtra("p999_us_incast_cc_off", off_p999);
      bench::RecordPerfExtra("p999_us_incast_cc_on", on_p999);
    }
    return 0;
  }

  const YcsbReport r = RunOne(opt, opt.cc);
  PrintReport("ycsb_rack", r);
  DepositOpClassRow("ycsb:main", r);
  if (r.all.count() > 0) {
    bench::RecordPerfExtra("p999_us_all", ToUs(r.all.Percentile(99.9)));
  }
  return r.deadline_hit ? 1 : 0;
}

}  // namespace
}  // namespace strom

int main(int argc, char** argv) {
  strom::bench::InitBenchTelemetry(&argc, argv);
  const int rc = strom::Main(argc, argv);
  const int telemetry_rc = strom::bench::ExportBenchTelemetry();
  return rc != 0 ? rc : telemetry_rc;
}
