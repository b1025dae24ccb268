// perfdiff: compare two simulator-performance reports (the --perf-out JSON
// written by the bench binaries) and fail when the new run regresses.
//
// Usage: perfdiff [--threshold=0.25] <baseline.json> <current.json>
//
// Exit codes:
//   0  current is within threshold of baseline (or faster)
//   1  wall-clock / tail regression above threshold
//   2  the runs simulated different work (events/frames differ) or a report
//      could not be read — the comparison itself is meaningless
//
// CI uses it as a *soft* gate (continue-on-error): shared
// runners are noisy enough that a hard gate on wall clock would flake, but
// the log makes the regression visible on every run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

namespace {

// The perf report is a flat JSON object of numeric fields. A full JSON
// parser would be overkill: scan "key": value pairs directly.
std::optional<std::map<std::string, double>> LoadReport(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfdiff: cannot open %s\n", path);
    return std::nullopt;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  std::map<std::string, double> fields;
  size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const size_t key_end = text.find('"', pos + 1);
    if (key_end == std::string::npos) {
      break;
    }
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    size_t p = key_end + 1;
    while (p < text.size() && (text[p] == ' ' || text[p] == ':')) {
      ++p;
    }
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + p, &end);
    if (end != text.c_str() + p) {
      fields[key] = value;
      pos = static_cast<size_t>(end - text.c_str());
    } else {
      pos = key_end + 1;
    }
  }
  if (fields.count("wall_seconds") == 0) {
    std::fprintf(stderr, "perfdiff: %s has no wall_seconds field\n", path);
    return std::nullopt;
  }
  return fields;
}

double Get(const std::map<std::string, double>& m, const char* key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfdiff [--threshold=R] <baseline.json> <current.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.25;
  const char* paths[2] = {nullptr, nullptr};
  int n = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threshold=", 12) == 0) {
      threshold = std::strtod(argv[i] + 12, nullptr);
    } else if (n < 2) {
      paths[n++] = argv[i];
    } else {
      return Usage();
    }
  }
  if (n != 2) {
    return Usage();
  }

  auto base = LoadReport(paths[0]);
  auto cur = LoadReport(paths[1]);
  if (!base || !cur) {
    return 2;
  }

  // The reports only compare if both runs simulated the exact same work;
  // event/frame counts are deterministic, so any difference means the two
  // reports came from different workloads (or a behavior change).
  for (const char* key : {"events_processed", "frames_sent"}) {
    const double b = Get(*base, key);
    const double c = Get(*cur, key);
    if (b != c) {
      std::fprintf(stderr, "perfdiff: %s differs (baseline %.0f, current %.0f): runs are not comparable\n",
                   key, b, c);
      return 2;
    }
  }

  const double base_wall = Get(*base, "wall_seconds");
  const double cur_wall = Get(*cur, "wall_seconds");
  const double ratio = base_wall > 0 ? cur_wall / base_wall : 0.0;
  std::printf("perfdiff: wall_seconds %.3f -> %.3f (%.2fx baseline, threshold %.2fx)\n",
              base_wall, cur_wall, ratio, 1.0 + threshold);
  std::printf("perfdiff: events/sec %.0f -> %.0f\n", Get(*base, "events_per_sec"),
              Get(*cur, "events_per_sec"));
  int rc = 0;
  if (ratio > 1.0 + threshold) {
    std::fprintf(stderr, "perfdiff: REGRESSION: current run is %.0f%% slower than baseline\n",
                 (ratio - 1.0) * 100.0);
    rc = 1;
  }

  // Simulated tail-latency gate: any "p999"-prefixed key present in *both*
  // reports is compared with the same threshold. Unlike wall clock these are
  // deterministic simulated values, so a regression is a behavior change in
  // the congestion machinery, not runner noise.
  for (const auto& [key, base_value] : *base) {
    if (key.rfind("p999", 0) != 0 || cur->count(key) == 0) {
      continue;
    }
    const double cur_value = (*cur)[key];
    const double p999_ratio = base_value > 0 ? cur_value / base_value : 0.0;
    std::printf("perfdiff: %s %.3f -> %.3f (%.2fx baseline)\n", key.c_str(),
                base_value, cur_value, p999_ratio);
    if (p999_ratio > 1.0 + threshold) {
      std::fprintf(stderr, "perfdiff: TAIL REGRESSION: %s is %.0f%% above baseline\n",
                   key.c_str(), (p999_ratio - 1.0) * 100.0);
      rc = 1;
    }
  }
  return rc;
}
