// The two graph sets ilp-lint checks.
//
// stack_graphs() lists the compositions the stack runs: the flow send and
// receive graphs the engine gates, the request receive loop, early send's
// two loops, the layered baselines and the word-chain baseline — each built
// from the loop or stage types the code instantiates.
//
// run_compose_sweep() (ilp-lint --compose) sweeps the composition space.
// It enumerates the cross-product of runtime-assemblable flow graphs — every
// cipher × wire framing (v2/v3) × optional tap (inet2/crc32) × schedule
// (send B,C,A / send linear / receive), plus the word-filter chains — and
// holds each composer verdict to the executable truth:
//
//   * every ACCEPTED graph is run both ways (fused out-of-order vs layered
//     linear passes) and must be bit-identical, tap values included;
//   * every REJECTED graph must name its rule, and R1 rejections are run
//     anyway to confirm the predicted divergence actually happens.
//
// A verdict the differential contradicts is a *miscomputation*; a rejection
// the model can't justify (or whose divergence fails to appear) is an
// *unexplained rejection*.  CI fails on either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/graph.h"

namespace ilp::app {

std::vector<analysis::stage_graph> stack_graphs();

struct compose_case {
    std::string name;           // graph name (cipher/framing/tap/schedule)
    std::uint64_t hash = 0;     // graph_hash — the gate's cache key
    bool legal = false;         // composer verdict
    std::string rule;           // first violated rule ("" when legal)
    std::string offender;       // offending stage (pair)
    bool executed = false;      // differential run performed
    bool outputs_match = false; // fused buffer == layered buffer
    bool taps_match = false;    // checksums / CRC / AEAD tag agree
    bool mismatch_expected = false;  // R1 rejection: divergence is the proof
    bool ok = false;            // verdict consistent with the differential
    std::string status;         // human-readable outcome
};

struct compose_sweep_report {
    std::vector<compose_case> cases;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::size_t executed = 0;
    std::size_t miscomputations = 0;
    std::size_t unexplained_rejections = 0;

    bool ok() const noexcept {
        return cases.size() >= 100 && miscomputations == 0 &&
               unexplained_rejections == 0;
    }
};

compose_sweep_report run_compose_sweep();

}  // namespace ilp::app
