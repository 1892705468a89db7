// Function-call composition of stages — the flexibility/performance ablation.
//
// §3.2.1 of the paper: "Using function calls and function pointers instead
// supports a dynamically adaptable implementation, but experiments have
// shown that substituting macros by function calls results in the loss of
// all performance benefits gained by ILP."
//
// dynamic_pipeline is the function-pointer variant: stages are added at run
// time (the adaptability the paper wanted for congestion-dependent stacks),
// the loop structure and memory behaviour are identical to fused_pipeline,
// but every per-unit stage call goes through a type-erased, never-inlined
// function pointer.  bench_ablation_fusion measures the difference.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

#include "core/gather.h"
#include "core/stage.h"
#include "memsim/mem_policy.h"
#include "util/contracts.h"

namespace ilp::core {

template <memsim::memory_policy Mem>
class dynamic_pipeline {
public:
    // Maximum supported exchanged-unit size.
    static constexpr std::size_t max_unit_bytes = 64;

    template <data_stage S>
    void add_stage(S& stage) {
        entries_.push_back({&stage, &trampoline<S>, S::unit_bytes});
        unit_bytes_ = std::lcm(unit_bytes_, S::unit_bytes);
        ILP_EXPECT(unit_bytes_ <= max_unit_bytes);
        ordering_constrained_ =
            ordering_constrained_ || S::ordering_constrained;
    }

    std::size_t unit_bytes() const noexcept { return unit_bytes_; }
    bool ordering_constrained() const noexcept { return ordering_constrained_; }

    void run(const Mem& mem, gather_cursor& src, scatter_cursor& dst,
             std::size_t n) const {
        stream_units<max_unit_bytes>(mem, src, dst, n, unit_bytes_, *this);
    }

    void run(const Mem& mem, const gather_source& src,
             const scatter_dest& dst) const {
        ILP_EXPECT(src.total_size() == dst.total_size());
        gather_cursor in(src);
        scatter_cursor out(dst);
        run(mem, in, out, src.total_size());
    }

    // Runs every stage on one exchanged unit, each call through its
    // function pointer (the body of the loop).
    void process_unit(const Mem& mem, std::byte* unit) const {
        for (const entry& e : entries_) {
            for (std::size_t i = 0; i < unit_bytes_; i += e.unit_bytes) {
                e.fn(e.stage, mem, unit + i);
            }
        }
    }

private:
    using unit_fn = void (*)(void*, const Mem&, std::byte*);

    struct entry {
        void* stage;
        unit_fn fn;
        std::size_t unit_bytes;
    };

    template <typename S>
    static ILP_NEVER_INLINE void trampoline(void* stage, const Mem& mem,
                                            std::byte* unit) {
        static_cast<S*>(stage)->process_unit(mem, unit);
    }

    std::vector<entry> entries_;
    std::size_t unit_bytes_ = 8;  // Ls, as in fused_pipeline
    bool ordering_constrained_ = false;
};

}  // namespace ilp::core
