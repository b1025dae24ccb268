// chaosexplore: deterministic chaos-schedule explorer for the crash-recovery
// failure domain.
//
//   chaosexplore [--budget N] [--seed S] [--hosts N] [--switches N]
//                [--duration-us U] [--shrink-runs N] [--out reproducer.plan]
//   chaosexplore --replay plan-file [--hosts N] [--duration-us U]
//
// Search mode enumerates seeded crash schedules (MakeCrashPlan seeds S,
// S+1, ...), runs each against a YCSB-under-crash-recovery rack, and on the
// first invariant violation shrinks the schedule to a minimal reproducer,
// written to --out as a replayable fault-plan file.
//
// Replay mode runs exactly one plan file through the same scenario and
// reports the classification — the loop a developer runs while fixing the
// bug a search found.
//
// Exit codes: 0 = no violation found, 2 = violation found (search) or
// reproduced (replay), 1 = usage/config error. The intentionally
// reintroducible recovery bug for demos: STROM_CHAOS_BUG=no_fence (see
// YcsbEngine::EnableCrashRecovery).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/faults/schedule_search.h"
#include "src/workload/crash_scenario.h"

namespace strom {
namespace {

struct Options {
  int budget = 24;
  uint64_t seed = 1;
  int hosts = 3;
  int switches = 1;  // informs MakeCrashPlan; the rack itself is single-switch
  int64_t duration_us = 400;
  int shrink_runs = 48;
  std::string out = "chaos_reproducer.plan";
  std::string replay;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--budget N] [--seed S] [--hosts N] [--switches N]\n"
               "          [--duration-us U] [--shrink-runs N] [--out file]\n"
               "       %s --replay plan-file [--hosts N] [--duration-us U]\n",
               argv0, argv0);
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--budget" && (v = next())) {
      opt->budget = std::atoi(v);
    } else if (arg == "--seed" && (v = next())) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--hosts" && (v = next())) {
      opt->hosts = std::atoi(v);
    } else if (arg == "--switches" && (v = next())) {
      opt->switches = std::atoi(v);
    } else if (arg == "--duration-us" && (v = next())) {
      opt->duration_us = std::atoll(v);
    } else if (arg == "--shrink-runs" && (v = next())) {
      opt->shrink_runs = std::atoi(v);
    } else if (arg == "--out" && (v = next())) {
      opt->out = v;
    } else if (arg == "--replay" && (v = next())) {
      opt->replay = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (opt->budget < 1 || opt->hosts < 2 || opt->duration_us < 50 || opt->shrink_runs < 0) {
    std::fprintf(stderr, "implausible option values\n");
    return false;
  }
  return true;
}

CrashScenarioConfig ScenarioFor(const Options& opt) {
  CrashScenarioConfig config = CrashScenarioConfig::Small();
  config.topo.num_hosts = opt.hosts;
  config.ycsb.duration = Us(opt.duration_us);
  return config;
}

int Replay(const Options& opt) {
  const Result<FaultPlan> plan = FaultPlan::Load(opt.replay);
  if (!plan.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", opt.replay.c_str(),
                 plan.status().ToString().c_str());
    return 1;
  }
  const CrashScenarioResult r = RunCrashScenario(ScenarioFor(opt), *plan);
  std::printf("replay: %s\n", opt.replay.c_str());
  std::printf("  ops: arrived=%llu completed=%llu failed=%llu fenced=%llu "
              "deadline_hit=%d\n",
              (unsigned long long)r.report.ops_arrived,
              (unsigned long long)r.report.ops_completed,
              (unsigned long long)r.report.ops_failed,
              (unsigned long long)r.report.ops_fenced, int(r.report.deadline_hit));
  std::printf("  recovery: peers_dead=%llu reconnect_attempts=%llu "
              "leases_acquired=%llu\n",
              (unsigned long long)r.report.peers_declared_dead,
              (unsigned long long)r.report.reconnect_attempts,
              (unsigned long long)r.report.leases_acquired);
  std::printf("  audit: checks=%llu violations=%llu frame_blocks_leaked=%lld\n",
              (unsigned long long)r.audit_checks,
              (unsigned long long)r.audit_violations,
              (long long)r.frame_blocks_leaked);
  if (r.outcome.violation) {
    std::printf("VIOLATION [%s] %s\n", r.outcome.violation_kind.c_str(),
                r.outcome.detail.c_str());
    return 2;
  }
  std::printf("no violation\n");
  return 0;
}

int Search(const Options& opt) {
  SearchConfig search;
  search.base_seed = opt.seed;
  search.budget = opt.budget;
  search.horizon = Us(opt.duration_us);
  search.num_hosts = opt.hosts;
  search.num_switches = opt.switches;
  search.max_shrink_runs = opt.shrink_runs;

  int runs = 0;
  const CrashScenarioConfig scenario = ScenarioFor(opt);
  const ScheduleRunner base = MakeCrashScheduleRunner(scenario);
  const ScheduleRunner runner = [&](const FaultPlan& plan) {
    ++runs;
    std::printf("  run %3d: seeded schedule, %zu episode(s)...\n", runs,
                plan.episodes.size());
    std::fflush(stdout);
    const ScheduleOutcome out = base(plan);
    if (out.violation) {
      std::printf("  run %3d: VIOLATION [%s] %s\n", runs,
                  out.violation_kind.c_str(), out.detail.c_str());
    }
    return out;
  };

  std::printf("chaosexplore: budget=%d base_seed=%llu hosts=%d horizon=%lldus\n",
              opt.budget, (unsigned long long)opt.seed, opt.hosts,
              (long long)opt.duration_us);
  const SearchResult result = ExploreSchedules(search, runner);
  if (!result.found) {
    std::printf("no violating schedule in %d run(s)\n", result.schedules_run);
    return 0;
  }

  std::printf("violating seed %llu after %d schedule(s); shrink used %d "
              "run(s): %zu -> %zu episode(s)\n",
              (unsigned long long)result.violating_seed, result.schedules_run,
              result.shrink_runs, result.original.episodes.size(),
              result.minimal.episodes.size());
  std::printf("minimal reproducer [%s]:\n%s", result.outcome.violation_kind.c_str(),
              result.minimal.ToString().c_str());
  std::ofstream out(opt.out, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  out << "# chaosexplore minimal reproducer\n"
      << "# violation: " << result.outcome.violation_kind << " — "
      << result.outcome.detail << "\n"
      << "# replay: chaosexplore --replay " << opt.out << " --hosts "
      << opt.hosts << " --duration-us " << opt.duration_us << "\n"
      << result.minimal.ToString();
  std::printf("wrote %s\n", opt.out.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage(argv[0]);
    return 1;
  }
  return opt.replay.empty() ? Search(opt) : Replay(opt);
}

}  // namespace
}  // namespace strom

int main(int argc, char** argv) { return strom::Main(argc, argv); }
