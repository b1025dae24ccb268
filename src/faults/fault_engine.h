// Interprets a FaultPlan against a running testbed. The engine installs
// per-frame hooks on links and per-command hooks on DMA engines; each
// (episode, attachment) pair gets its own RNG stream seeded from the plan
// seed and the indices alone, so fault decisions are a pure function of the
// plan and the sequence of frames/commands — independent of wall clock,
// attach order, and whatever else the simulation does.
#ifndef SRC_FAULTS_FAULT_ENGINE_H_
#define SRC_FAULTS_FAULT_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "src/common/rng.h"
#include "src/faults/fault_plan.h"
#include "src/netsim/link.h"
#include "src/pcie/dma_engine.h"
#include "src/sim/simulator.h"

namespace strom {

struct FaultEngineCounters {
  uint64_t frames_dropped = 0;     // burst loss + link-down episodes
  uint64_t frames_delayed = 0;     // reorder + jitter episodes
  uint64_t frames_duplicated = 0;
  uint64_t frames_silently_dropped = 0;  // silent_drop episodes (audit drills)
  uint64_t dma_read_errors = 0;
  uint64_t dma_write_errors = 0;
  uint64_t hosts_crashed = 0;
  uint64_t nics_crashed = 0;
  uint64_t switches_crashed = 0;
  uint64_t restarts = 0;
};

class FaultEngine {
 public:
  FaultEngine(Simulator& sim, std::shared_ptr<const FaultPlan> plan);

  // Installs the frame hook on both sides of `link`. The sides become global
  // targets `side_base` and `side_base + 1` ("linkN" in the plan grammar).
  void AttachLink(PointToPointLink& link, int side_base = 0);

  // Installs the command hook on node `node_index`'s DMA engine ("dmaN").
  void AttachDma(int node_index, DmaEngine& dma);

  // Schedules crash (and, for crash-recovery episodes, restart) callbacks for
  // every crash episode of `kind` matching `target_index`, on `sim` — the
  // simulator that owns the component. The crash callback fires at episode
  // start; the restart callback fires `restart_after` later (never for
  // crash-stop episodes). Crash/restart counters are maintained by the engine.
  void ArmCrashes(FaultTargetKind kind, int target_index, Simulator& sim,
                  std::function<void(const FaultEpisode&)> crash_cb,
                  std::function<void(const FaultEpisode&)> restart_cb);

  const FaultPlan& plan() const { return *plan_; }
  const FaultEngineCounters& counters() const { return counters_; }

 private:
  // One independent RNG stream (plus Gilbert–Elliott state) per
  // (episode, target) pair.
  struct Stream {
    Rng rng;
    bool bad = false;  // Gilbert–Elliott state
  };

  Stream& StreamFor(size_t episode_index, int target_index);
  LinkFaultDecision OnFrame(int global_side, SimTime now);
  Status OnDmaCommand(int node_index, bool is_write, SimTime now);

  Simulator& sim_;
  std::shared_ptr<const FaultPlan> plan_;
  std::map<std::pair<size_t, int>, Stream> streams_;
  FaultEngineCounters counters_;
};

}  // namespace strom

#endif  // SRC_FAULTS_FAULT_ENGINE_H_
