// Legality gate — the engine's runtime entry into the composer.
//
// engine::shard calls `check()` once per side when it opens an ILP flow,
// on the graphs of the fused loops the flow will run.  Verdicts are cached
// by graph hash, so the steady-state cost of gating is one hash of the
// stage graph.  Every flow the engine can build composes a legal graph, so
// the shard treats an illegal verdict as a broken contract, not as a path
// choice.  A flow that recomposed mid-run would call `check()` again at the
// point where it recomposes.
#pragma once

#include <cstdint>
#include <map>

#include "analysis/compose.h"

namespace ilp::analysis {

struct gate_stats {
    std::uint64_t checks = 0;      // check() calls
    std::uint64_t cache_hits = 0;  // served from the verdict cache
    // Always 0: the engine demotes no flow.  perfbench/ilpbench.cpp reads
    // the field, so it goes with the next change to the benchmark.
    std::uint64_t fallbacks = 0;
};

class legality_gate {
  public:
    // Composes and checks `g`, or returns the cached verdict when an
    // identical graph (same hash) was checked before.  The reference stays
    // valid until clear().
    const verdict& check(const stage_graph& g);

    const gate_stats& stats() const noexcept { return stats_; }
    std::size_t cached_verdicts() const noexcept { return cache_.size(); }
    void clear() noexcept {
        cache_.clear();
        stats_ = {};
    }

  private:
    std::map<std::uint64_t, verdict> cache_;
    gate_stats stats_;
};

}  // namespace ilp::analysis
