// Early-manipulation send variant (paper §3.2.2).
//
// When the retransmission buffer is full, the chosen implementation delays
// *all* manipulations until space is available.  The paper considers the
// alternative: "Data manipulations can be performed as early as possible to
// minimize delays.  Data above the TCP level is manipulated in advance; the
// checksum calculation and the copy to the TCP buffer are done when there
// is enough buffer space available again" — worth ~100 us of latency on a
// SS10-30, at the price of a more complex implementation and one extra
// read+write pass (the advance manipulation must land in a staging area).
//
// This class implements that alternative as two fused sub-loops:
//
//   prepare():    marshal + encrypt fused into a staging buffer
//                 (runs immediately, regardless of TCP buffer state);
//   try_flush():  checksum + copy fused from staging into the TCP ring
//                 (runs as soon as the window/buffer allows).
//
// bench_ablation_early_send quantifies the trade: one extra pass of memory
// traffic versus zero manipulation latency once buffer space frees up.
#pragma once

#include <optional>
#include <type_traits>

#include "app/path_mode.h"
#include "buffer/byte_buffer.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/message_plan.h"
#include "core/stage.h"
#include "crypto/block_cipher.h"
#include "tcp/connection.h"

namespace ilp::app {

template <memsim::memory_policy Mem, crypto::block_cipher Cipher>
class early_sender {
public:
    // The two fused loops, named so the lint's early-send graphs
    // (app/compose_sweep.cpp:stack_graphs) are read from the loops that run.
    using prepare_loop = core::fused_pipeline<core::encrypt_stage<Cipher>>;
    using flush_loop = core::fused_pipeline<core::checksum_tap8>;

    early_sender(const Mem& mem, const Cipher& cipher,
                 std::size_t max_wire_bytes)
        : mem_(mem), cipher_(&cipher), staging_(max_wire_bytes) {}

    bool has_pending() const noexcept { return pending_bytes_ > 0; }

    // Phase 1: manipulate the message *now* into the staging area (fused
    // marshal+encrypt, parts B, C, A).  Only one message may be pending.
    void prepare(const core::gather_source& src,
                 const core::message_plan& plan, path_counters& counters) {
        ILP_EXPECT(!has_pending());
        const std::size_t wire_bytes = plan.total_bytes;
        ILP_EXPECT(wire_bytes <= staging_.size());
        core::encrypt_stage<Cipher> encrypt(*cipher_);
        auto loop = core::make_pipeline(encrypt);
        static_assert(std::is_same_v<decltype(loop), prepare_loop>);
        static_assert(!decltype(loop)::ordering_constrained);
        ILP_EXPECT(plan.well_formed() &&
                   plan.aligned_for(decltype(loop)::required_alignment));
        const core::scatter_dest dst =
            core::span_dest(staging_.subspan(0, wire_bytes));
        for (const core::message_part& part : plan.ilp_order()) {
            if (part.empty()) continue;
            loop.run(mem_, src.slice(part.offset, part.len),
                     dst.slice(part.offset, part.len));
        }
        pending_bytes_ = wire_bytes;
        counters.fused_loop_bytes += wire_bytes;
        counters.cipher_bytes += wire_bytes;
    }

    // Phase 2: fused checksum+copy of the staged wire image into the TCP
    // ring.  Returns false while TCP still has no room (call again later).
    bool try_flush(tcp::tcp_sender<Mem>& sender, path_counters& counters) {
        ILP_EXPECT(has_pending());
        const std::size_t wire_bytes = pending_bytes_;
        const bool sent = sender.send_message(
            wire_bytes,
            [&](const ring_span& dst) -> std::optional<std::uint16_t> {
                checksum::inet_accumulator acc;
                core::checksum_tap8 tap(acc);
                auto loop = core::make_pipeline(tap);
                static_assert(std::is_same_v<decltype(loop), flush_loop>);
                loop.run(mem_,
                         core::span_source(staging_.subspan(0, wire_bytes)),
                         core::ring_dest(dst));
                return acc.folded();
            });
        if (!sent) return false;
        pending_bytes_ = 0;
        ++counters.messages;
        counters.wire_bytes += wire_bytes;
        counters.copy_pass_bytes += wire_bytes;  // the staging->ring pass
        return true;
    }

private:
    Mem mem_;
    const Cipher* cipher_;
    byte_buffer staging_;
    std::size_t pending_bytes_ = 0;
};

}  // namespace ilp::app
