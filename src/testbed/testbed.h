// The paper's testbed (§6.1) as a preset of the Fabric topology builder: two
// nodes on a direct cable, or N nodes behind one switch port each
// (multi-node examples).
#ifndef SRC_TESTBED_TESTBED_H_
#define SRC_TESTBED_TESTBED_H_

#include <cstdint>

#include "src/fabric/fabric.h"

namespace strom {

class Testbed : public Fabric {
 public:
  // num_nodes == 2 builds the direct cable; > 2 builds one leaf switch whose
  // queues never drop, ECN-mark or pause, a plain store-and-forward switch.
  explicit Testbed(const Profile& profile, int num_nodes = 2)
      : Fabric(profile, [num_nodes] {
          FabricTopologyConfig topo;
          topo.num_hosts = num_nodes;
          topo.num_leaves = num_nodes == 2 ? 0 : 1;
          topo.sw.egress_queue_bytes = SIZE_MAX;
          topo.sw.ecn_threshold_bytes = SIZE_MAX;
          topo.sw.pfc = false;
          return topo;
        }()) {}
};

}  // namespace strom

#endif  // SRC_TESTBED_TESTBED_H_
