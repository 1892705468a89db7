// The ILP loop: compile-time fusion of data-manipulation stages.
//
// `fused_pipeline<Stages...>` is the paper's integrated processing loop
// (Fig. 1): each iteration reads one exchanged unit of Le bytes from the
// source into scratch (registers), runs every stage on it sub-unit by
// sub-unit, and writes it once to the destination.  Le is computed at
// compile time as lcm(Ls, L1, ..., Ln) from the stage unit sizes, with
// Ls = 8 modelling a 64-bit memory path (§2.2: "Le should also be chosen
// large enough to utilize the hardware architecture efficiently").
//
// Stage calls are statically dispatched and force-inlined — the modern form
// of the paper's macro expansion (§3.2.1: replacing macros with function
// calls "results in the loss of all performance benefits gained by ILP");
// dynamic_pipeline.h keeps the function-call variant for that ablation.
//
// The traversal is core::stream_units (gather.h): units move run by run
// through the contiguous remainder of the current source and destination
// segments, so the segment-op switch happens once per run; the cursors'
// per-unit fill/drain serve only units that straddle a segment boundary.
// Either way a unit issues its loads, its stages' accesses and its stores
// in that order, so sim_memory sees the per-unit access stream.
#pragma once

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/footprint.h"
#include "core/gather.h"
#include "core/stage.h"
#include "memsim/mem_policy.h"
#include "util/alignment.h"
#include "util/contracts.h"

namespace ilp::core {

template <data_stage... Stages>
class fused_pipeline {
public:
    // The exchanged processing-unit length Le (paper §2.2), folding in the
    // system parameter Ls = 8 (64-bit memory path).
    static constexpr std::size_t unit_bytes =
        exchange_unit_of(std::size_t{8}, Stages::unit_bytes...);

    // True if any fused stage requires strictly serial processing; the
    // message planner consults this before scheduling parts out of order.
    static constexpr bool ordering_constrained =
        (false || ... || Stages::ordering_constrained);

    // Strictest stream-offset alignment any fused stage demands; slicing a
    // message at an offset that violates this makes a stage's block
    // straddle the cut (the analyzer's R3-granularity rule).
    static constexpr std::size_t required_alignment = std::max(
        {std::size_t{1}, analysis::footprint_of<Stages>().alignment...});

    // The composition's footprints in fusion order: the nodes of the stage
    // graphs the analyzer checks (app/compose_models.h).
    static std::vector<analysis::footprint> footprints() {
        return {analysis::footprint_of<Stages>()...};
    }

    explicit fused_pipeline(Stages&... stages) : stages_(&stages...) {}

    // Streams n bytes (a multiple of unit_bytes) from src to dst through all
    // stages; cursors advance so consecutive calls continue where the
    // previous one stopped (how message parts share one wire stream).
    template <memsim::memory_policy Mem>
    void run(const Mem& mem, gather_cursor& src, scatter_cursor& dst,
             std::size_t n) {
        stream_units<unit_bytes>(
            mem, src, dst, n, std::integral_constant<std::size_t, unit_bytes>{},
            *this);
    }

    // Whole-message convenience: source and destination must describe the
    // same number of bytes.
    template <memsim::memory_policy Mem>
    void run(const Mem& mem, const gather_source& src,
             const scatter_dest& dst) {
        ILP_EXPECT(src.total_size() == dst.total_size());
        gather_cursor in(src);
        scatter_cursor out(dst);
        run(mem, in, out, src.total_size());
    }

    // Runs every stage, in fusion order, on one exchanged unit in loop
    // scratch (the body of the loop).
    template <memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void process_unit(const Mem& mem, std::byte* unit) {
        apply_stages(mem, unit, std::index_sequence_for<Stages...>{});
    }

private:
    template <memsim::memory_policy Mem, std::size_t... I>
    ILP_ALWAYS_INLINE void apply_stages([[maybe_unused]] const Mem& mem,
                                        [[maybe_unused]] std::byte* scratch,
                                        std::index_sequence<I...>) {
        (apply_one<I>(mem, scratch), ...);
    }

    template <std::size_t I, memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void apply_one(const Mem& mem, std::byte* scratch) {
        using stage_type = std::tuple_element_t<I, std::tuple<Stages...>>;
        auto* stage = std::get<I>(stages_);
        for (std::size_t i = 0; i < unit_bytes; i += stage_type::unit_bytes) {
            stage->process_unit(mem, scratch + i);
        }
    }

    std::tuple<Stages*...> stages_;
};

// Deduction-friendly factory.
template <data_stage... Stages>
fused_pipeline<Stages...> make_pipeline(Stages&... stages) {
    return fused_pipeline<Stages...>(stages...);
}

// ---------------------------------------------------------------------------
// Common source/destination constructors

inline gather_source span_source(std::span<const std::byte> data) {
    gather_source src;
    src.add(data);
    return src;
}

inline scatter_dest span_dest(std::span<std::byte> data) {
    scatter_dest dst;
    dst.add(data);
    return dst;
}

// Destination writing into (up to two) ring-buffer spans — the ILP send
// loop's "align the data to the ring buffer structure" duty (§3.2.2).
inline scatter_dest ring_dest(const ring_span& dst) {
    scatter_dest out;
    if (!dst.first.empty()) out.add(dst.first);
    if (!dst.second.empty()) out.add(dst.second);
    return out;
}

// Source reading straight out of a loaned kernel-segment chain (up to two
// spans when the packet straddles the receive-ring wrap) — the zero-copy
// receive handoff: the fused loop consumes the wire bytes in place, with no
// reassembly copy ahead of it.
inline gather_source chain_source(const const_ring_span& chain) {
    gather_source src;
    if (!chain.first.empty()) src.add(chain.first);
    if (!chain.second.empty()) src.add(chain.second);
    return src;
}

// Read-only sink (e.g. a verification pass that only feeds checksum taps).
inline scatter_dest null_dest(std::size_t n) {
    scatter_dest out;
    out.add_discard(n);
    return out;
}

}  // namespace ilp::core
