// Sending-side data paths (paper Fig. 3).
//
// Both paths take a `gather_source` describing the complete unencrypted wire
// image of one message (headers already staged in XDR form, payload,
// generated padding) and hand the encrypted bytes to a tcp_sender.  The key
// argument selects the wire framing (secure_path.h): a bare block cipher
// sends wire v2; an aead_framing appends the v3 [epoch | tag] trailer.
//
//   ILP:      marshal + encrypt + checksum fused into the single copy from
//             application memory to the TCP ring, processing message parts
//             in the order B, C, A (§3.2.2).  One read of the application
//             data, one write into the ring; the payload checksum falls out
//             of the loop's tap.
//
//   layered:  1. marshalling pass   app -> staging        (r/w)
//             2. encryption pass    staging, in place     (r/w)
//             3. tcp_send copy      staging -> ring       (r/w)
//             4. checksum pass      ring                  (r)   [tcp_output]
//             5. system copy        ring -> kernel        (r/w) [pipe]
#pragma once

#include <optional>
#include <type_traits>

#include "app/path_mode.h"
#include "app/secure_path.h"
#include "buffer/byte_buffer.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/layered_path.h"
#include "core/message_plan.h"
#include "core/stage.h"
#include "crypto/block_cipher.h"
#include "obs/tracer.h"
#include "tcp/connection.h"

namespace ilp::app {

// Reusable per-connection scratch for the layered path's intermediate
// packet (kept allocated so repeated sends have stable addresses, like the
// static buffers of a real 1995 implementation).
class send_workspace {
public:
    explicit send_workspace(std::size_t max_wire_bytes)
        : staging_(max_wire_bytes) {}

    std::span<std::byte> staging(std::size_t n) {
        ILP_EXPECT(n <= staging_.size());
        return staging_.subspan(0, n);
    }

private:
    byte_buffer staging_;
};

// The serial ILP send path's ring-direct fill: the fused
// marshal+encrypt+checksum loop over one message, writing straight into the
// reserved TCP ring span in B,C,A part order, then the framing's trailer
// (aead: the clear [epoch | tag], tap-checksummed); returns the folded
// checksum.  The native benchmark (perfbench) probes this loop on its own.
template <memsim::memory_policy Mem, typename Keys>
std::uint16_t fill_message_ilp(const Mem& mem, const Keys& keys,
                               const core::gather_source& src,
                               const core::message_plan& plan,
                               const ring_span& dst) {
    const auto framing = as_framing(keys);
    checksum::inet_accumulator acc;
    typename decltype(framing)::sealer tx(framing);
    core::checksum_tap8 tap(acc);
    auto loop = core::make_pipeline(tx.stage, tap);
    static_assert(std::is_same_v<decltype(loop),
                                 typename decltype(framing)::send_loop>,
                  "the legality gate's send graphs are read from send_loop");
    static_assert(!decltype(loop)::ordering_constrained,
                  "out-of-order parts require unconstrained stages");
    // Construction-time fusion-legality guard (analyzer rule R3): every
    // part cut must respect the strictest stage alignment or a cipher
    // block would straddle the cut.
    ILP_EXPECT(plan.well_formed() &&
               plan.aligned_for(decltype(loop)::required_alignment));
    const core::scatter_dest ring = core::ring_dest(dst);
    for (const core::message_part& part : plan.ilp_order()) {
        if (part.empty()) continue;
        ILP_OBS_SPAN("core", "fused_part");
        loop.run(mem, src.slice(part.offset, part.len),
                 ring.slice(part.offset, part.len));
    }
    tx.seal(mem, acc, ring, plan.total_bytes);
    return acc.folded();
}

// ILP send path.  Returns false when TCP has no buffer/window space — the
// caller retries later; per §3.2.2 *all* manipulations are delayed until
// the whole message fits ("we decided to perform all data manipulations
// within a single loop and to delay all manipulations until they are all
// possible").
template <memsim::memory_policy Mem, typename Keys>
bool send_message_ilp(tcp::tcp_sender<Mem>& sender, const Mem& mem,
                      const Keys& keys, const core::gather_source& src,
                      const core::message_plan& plan,
                      path_counters& counters) {
    const auto framing = as_framing(keys);
    const std::size_t body_bytes = plan.total_bytes;
    const std::size_t wire_bytes = body_bytes + framing.trailer_bytes;
    ILP_EXPECT(src.total_size() == body_bytes);
    ILP_OBS_SPAN("app", framing.send_ilp_span);
    const bool sent = sender.send_message(
        wire_bytes, [&](const ring_span& dst) -> std::optional<std::uint16_t> {
            return fill_message_ilp(mem, keys, src, plan, dst);
        });
    if (!sent) return false;
    ++counters.messages;
    counters.wire_bytes += wire_bytes;
    counters.fused_loop_bytes += wire_bytes;
    counters.cipher_bytes += body_bytes;
    return true;
}

// Conventional layered send path.
template <memsim::memory_policy Mem, typename Keys>
bool send_message_layered(tcp::tcp_sender<Mem>& sender, const Mem& mem,
                          const Keys& keys, const core::gather_source& src,
                          const core::message_plan& plan,
                          send_workspace& workspace,
                          path_counters& counters) {
    const auto framing = as_framing(keys);
    const std::size_t body_bytes = plan.total_bytes;
    const std::size_t wire_bytes = body_bytes + framing.trailer_bytes;
    ILP_EXPECT(src.total_size() == body_bytes);
    if (wire_bytes > sender.sendable_bytes()) {
        // Check before manipulating: a full buffer must not waste the
        // marshalling/encryption work.
        return false;
    }
    const std::span<std::byte> staging = workspace.staging(wire_bytes);
    ILP_OBS_SPAN("app", framing.send_layered_span);

    // Pass 1: marshalling (application data -> intermediate packet).
    {
        ILP_OBS_SPAN("app", "marshal_pass");
        core::marshal_to_buffer(mem, src, staging.first(body_bytes));
    }
    counters.marshal_pass_bytes += body_bytes;

    // Pass 2: encryption, in place (aead: tag accumulated), then the
    // framing's trailer behind the body.
    typename decltype(framing)::sealer tx(framing);
    {
        ILP_OBS_SPAN("app", "cipher_pass");
        core::apply_stage_in_place(mem, tx.stage, staging.first(body_bytes));
    }
    counters.cipher_pass_bytes += body_bytes;
    counters.cipher_bytes += body_bytes;
    tx.seal(staging.subspan(body_bytes));

    // Pass 3: tcp_send's copy into the ring; pass 4 (checksum) happens in
    // tcp_output because the filler returns nullopt.
    const bool sent = sender.send_message(
        wire_bytes, [&](const ring_span& dst) -> std::optional<std::uint16_t> {
            ILP_OBS_SPAN("app", "tcp_send_copy");
            mem.copy(dst.first.data(), staging.data(), dst.first.size());
            if (!dst.second.empty()) {
                mem.copy(dst.second.data(), staging.data() + dst.first.size(),
                         dst.second.size());
            }
            return std::nullopt;
        });
    ILP_ENSURE(sent);  // sendable_bytes was checked above
    counters.copy_pass_bytes += wire_bytes;
    counters.checksum_pass_bytes += wire_bytes;
    ++counters.messages;
    counters.wire_bytes += wire_bytes;
    return true;
}

// Mode dispatcher used by the application.
template <memsim::memory_policy Mem, typename Keys>
bool send_message(path_mode mode, tcp::tcp_sender<Mem>& sender, const Mem& mem,
                  const Keys& keys, const core::gather_source& src,
                  const core::message_plan& plan, send_workspace& workspace,
                  path_counters& counters) {
    if (mode == path_mode::ilp) {
        return send_message_ilp(sender, mem, keys, src, plan, counters);
    }
    return send_message_layered(sender, mem, keys, src, plan, workspace,
                                counters);
}

}  // namespace ilp::app
