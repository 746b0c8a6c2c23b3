// Single-thread probes of the SMR layer's per-call costs, through the
// scheme domains' guard API, and of one asymmetric-fence heavy barrier.
#pragma once

#include <string>

#include "smr/registry.hpp"
#include "smr/smr_config.hpp"

namespace perfbench {

struct SchemeProbe {
  double protect_ns = 0;    // one protect() of a node's next link
  double begin_end_ns = 0;  // one empty operation: begin_op + end_op
};

SchemeProbe probe_scheme(scot::SchemeId scheme, const scot::SmrConfig& cfg);

// Mean cost of one asymfence::heavy_barrier on the path the domains use.
double probe_heavy_barrier_ns();

// "membarrier" or "fence-fallback".
std::string fence_path();

}  // namespace perfbench
