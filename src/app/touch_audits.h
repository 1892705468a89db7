// Word-touch audit drivers for the application data paths.
//
// Each driver runs a real fused path under `sim_memory` with a
// `memsim::touch_map` shadowing the payload-carrying buffers, then asks the
// analyzer (analysis/touch_audit.h) to verify the Figure 13 property: every
// source byte read exactly once, every destination byte written exactly
// once, nothing else.  The drivers call the genuine `fill_message_ilp` (over
// a one-piece ring span — the TCP ring is not needed) and
// `receive_reply_ilp`, under either framing: pass a bare cipher for wire
// v2, an aead_framing for wire v3 (body *and* clear trailer).  Each
// round-trips the payload through the opposite real path so a cipher, plan
// or tag bug fails loudly rather than producing a clean-but-wrong audit.
//
// Each outcome is labelled with the `stack_graphs()` name of the fused loop
// it drove — the flow graph the engine gates for that loop — so a finding
// points at a graph `ilp-lint --list` shows.
//
// `ilp-lint --audit` runs these as the dynamic half of the lint pass;
// tests/analysis_test.cpp runs them plus a seeded double-reading stage that
// the auditor must catch.
#pragma once

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/touch_audit.h"
#include "buffer/byte_buffer.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/message_plan.h"
#include "core/stage.h"
#include "crypto/block_cipher.h"
#include "memsim/configs.h"
#include "memsim/mem_policy.h"
#include "memsim/touch_map.h"
#include "rpc/messages.h"
#include "util/rng.h"

// The drivers run the real paths; include them last to keep the dependency
// direction obvious (this header sits above the paths).
#include "app/compose_models.h"
#include "app/receive_path.h"
#include "app/send_path.h"

namespace ilp::app {

struct audit_outcome {
    std::string loop;  // stack_graphs() name of the fused loop audited
    std::vector<analysis::finding> findings;
    bool round_trip_ok = false;  // data survived the path; guards the audit
};

namespace detail {

inline rpc::reply_header audit_header(std::size_t payload_bytes) {
    rpc::reply_header h;
    h.request_id = 1;
    h.copy_index = 0;
    h.offset = 0;
    h.total_bytes = static_cast<std::uint32_t>(payload_bytes);
    return h;
}

template <typename Keys>
using framing_of = decltype(as_framing(std::declval<const Keys&>()));

// Trailer bytes of the framing `Keys` selects (0 for wire v2).
template <typename Keys>
constexpr std::size_t trailer_of = framing_of<Keys>::trailer_bytes;

// The name of the flow graph for the loop `Keys`'s framing runs on one side.
template <typename Keys>
std::string audited_loop(bool receive) {
    using cipher = typename framing_of<Keys>::cipher_type;
    secure_params params;
    params.enabled = trailer_of<Keys> > 0;
    return receive ? flow_receive_graph<cipher>(params).name
                   : flow_send_graph<cipher>(params).name;
}

// An audit reply: a seeded payload and its wire image, built by the real
// ILP fill in direct memory (unaudited — this is the fixture, not the
// subject).
struct audit_reply {
    byte_buffer payload;
    byte_buffer wire;

    template <typename Keys>
    audit_reply(const Keys& keys, std::size_t payload_bytes,
                std::uint64_t seed)
        : payload(payload_bytes),
          wire(rpc::layout_reply(payload_bytes).wire_bytes +
               trailer_of<Keys>) {
        rng(seed).fill(payload.span());
        rpc::reply_staging staging;
        const core::gather_source src = rpc::make_reply_source(
            audit_header(payload_bytes), payload.span(), staging);
        fill_message_ilp(memsim::direct_memory{}, keys, src,
                         rpc::layout_reply(payload_bytes).plan,
                         ring_span{wire.span(), {}});
    }
};

// Receives `wire` into `dest` through the real reply path and checks the
// payload (and, for aead, the tag) came back intact.
template <memsim::memory_policy Mem, typename Keys>
bool receive_intact(const Mem& mem, const Keys& keys,
                    const const_ring_span& wire, std::span<std::byte> dest,
                    std::span<const std::byte> payload) {
    path_counters counters;
    const tcp::rx_process_result result = receive_reply_ilp(
        mem, keys, wire,
        [&](const rpc::reply_header&, std::size_t n) {
            return n == dest.size() ? dest : std::span<std::byte>{};
        },
        nullptr, counters);
    return result.ok && std::ranges::equal(dest, payload);
}

}  // namespace detail

// Audits the fused send composition: the real fill (encrypt+checksum over
// the B,C,A part schedule, then any trailer), application memory -> wire.
template <typename Keys>
audit_outcome audit_fused_send(const Keys& keys,
                               std::size_t payload_bytes = 1024) {
    const rpc::reply_layout layout = rpc::layout_reply(payload_bytes);
    byte_buffer payload(payload_bytes);
    rng(11).fill(payload.span());
    rpc::reply_staging staging;
    const core::gather_source src = rpc::make_reply_source(
        detail::audit_header(payload_bytes), payload.span(), staging);
    byte_buffer wire(layout.wire_bytes + detail::trailer_of<Keys>);

    memsim::memory_system sys(memsim::test_tiny());
    memsim::touch_map map;
    map.watch("msg-staging", staging.bytes, sizeof staging.bytes);
    map.watch("msg-payload", payload.data(), payload.size());
    map.watch("wire", wire.data(), wire.size());
    sys.set_touch_map(&map);
    fill_message_ilp(memsim::sim_memory(sys), keys, src, layout.plan,
                     ring_span{wire.span(), {}});
    sys.set_touch_map(nullptr);

    audit_outcome out;
    out.loop = detail::audited_loop<Keys>(false);
    out.findings = analysis::audit_touches(
        map,
        {{"msg-staging", 1, 0}, {"msg-payload", 1, 0}, {"wire", 0, 1}},
        "src/app/send_path.h:fill_message_ilp", out.loop);
    byte_buffer dest(payload_bytes);
    out.round_trip_ok = detail::receive_intact(
        memsim::direct_memory{}, keys, wire.span(), dest.span(),
        payload.span());
    return out;
}

// Audits the fused receive path: the genuine receive_reply_ilp, wire image
// -> application destination buffer.
template <typename Keys>
audit_outcome audit_fused_receive(const Keys& keys,
                                  std::size_t payload_bytes = 1024) {
    detail::audit_reply reply(keys, payload_bytes, 13);
    byte_buffer dest(payload_bytes);
    memsim::memory_system sys(memsim::test_tiny());
    memsim::touch_map map;
    map.watch("wire", reply.wire.data(), reply.wire.size());
    map.watch("reply-dest", dest.data(), dest.size());
    sys.set_touch_map(&map);
    const bool intact = detail::receive_intact(memsim::sim_memory(sys), keys,
                                               reply.wire.span(), dest.span(),
                                               reply.payload.span());
    sys.set_touch_map(nullptr);

    audit_outcome out;
    out.loop = detail::audited_loop<Keys>(true);
    out.findings = analysis::audit_touches(
        map, {{"wire", 1, 0}, {"reply-dest", 0, 1}},
        "src/app/receive_path.h:receive_reply_ilp", out.loop);
    out.round_trip_ok = intact;
    return out;
}

// Audits the zero-copy fused receive: the genuine chain-taking
// receive_reply_ilp over a wire image deliberately staged as a two-piece
// ring loan (the arena's tail holds the first piece, its head the second —
// exactly the shape datagram_pipe hands out across the ring wrap).  On top
// of the exactly-once expectations, the copy-count audit (A3) proves no
// staging pass survives: the only writes on the whole watched path are the
// payload bytes landing in their destination.
template <typename Keys>
audit_outcome audit_zero_copy_receive(const Keys& keys,
                                      std::size_t payload_bytes = 1024) {
    const detail::audit_reply reply(keys, payload_bytes, 17);
    const std::size_t wire_bytes = reply.wire.size();

    // Stage the wire as a wrap-straddling loan, split at an odd offset so
    // the chain cut lands mid-word inside the payload region.
    const std::size_t split = wire_bytes / 2 + 3;
    byte_buffer arena(wire_bytes + 64);
    std::byte* piece_a = arena.data() + arena.size() - split;
    std::byte* piece_b = arena.data();
    std::memcpy(piece_a, reply.wire.data(), split);
    std::memcpy(piece_b, reply.wire.data() + split, wire_bytes - split);
    const const_ring_span chain{{piece_a, split},
                                {piece_b, wire_bytes - split}};

    byte_buffer dest(payload_bytes);
    memsim::memory_system sys(memsim::test_tiny());
    memsim::touch_map map;
    map.watch("kernel-a", piece_a, split);
    map.watch("kernel-b", piece_b, wire_bytes - split);
    map.watch("reply-dest", dest.data(), dest.size());
    sys.set_touch_map(&map);
    const bool intact =
        detail::receive_intact(memsim::sim_memory(sys), keys, chain,
                               dest.span(), reply.payload.span());
    sys.set_touch_map(nullptr);

    audit_outcome out;
    out.loop = detail::audited_loop<Keys>(true);
    out.findings = analysis::audit_touches(
        map, {{"kernel-a", 1, 0}, {"kernel-b", 1, 0}, {"reply-dest", 0, 1}},
        "src/app/receive_path.h:receive_reply_ilp", out.loop);
    const auto copies = analysis::audit_copy_count(
        map, payload_bytes, "src/app/receive_path.h:receive_reply_ilp",
        out.loop);
    out.findings.insert(out.findings.end(), copies.begin(), copies.end());
    out.round_trip_ok = intact;
    return out;
}

}  // namespace ilp::app
