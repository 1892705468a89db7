// Secure (wire v3) data paths: AEAD framing over the ILP and layered paths.
//
// A secure message is the v2 wire image encrypted under the flow's current
// epoch key, followed by an 8-byte clear trailer [epoch | tag]
// (rpc::secure_trailer).  The tag is accumulated *inside* the same fused
// loop that marshals, encrypts and checksums — authentication costs no
// extra pass and no extra memory traffic, which is the modern re-run of the
// paper's ILP claim.  The layered baselines pay the conventional
// pass-per-layer price, tag included in the cipher pass.
//
// Receive side owns the failure taxonomy the robustness contract demands:
//
//   epoch_skew    — trailer epoch is *behind* the two-epoch key window
//                   (stale beyond any legal retransmit); nothing decrypted.
//   tag_mismatch  — key window (or forward derivation) produced a key, but
//                   the accumulated tag disagrees with the trailer: wrong
//                   key or tampered ciphertext.  A malformed-looking header
//                   whose tag also disagrees is classified here, so a key
//                   mismatch is *always* explicit, never "malformed".
//   malformed     — tag verified but the plaintext is structurally invalid.
//   ok            — decrypted, parsed and tag-verified; the keychain has
//                   adopted the epoch if it was ahead of the window.
//
// All failure paths still fold the complete TCP checksum (including the
// clear trailer) so the transport can deliver its verdict, exactly like the
// plain receive paths.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>

#include "app/path_mode.h"
#include "app/receive_path.h"
#include "app/send_path.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/layered_path.h"
#include "core/stage.h"
#include "crypto/aead.h"
#include "crypto/kdf.h"
#include "obs/tracer.h"
#include "rpc/messages.h"
#include "tcp/connection.h"

namespace ilp::app {

// Per-flow security configuration, set identically on both endpoints (the
// deterministic KDF plays the role of the key exchange).  wire_version 2
// negotiates the flow down to the classic format: no trailers, a pinned
// epoch-0 key, no rekeying — the compatibility mode for old peers.
struct secure_params {
    bool enabled = false;
    std::uint64_t flow_secret = 0;
    std::uint32_t wire_version = rpc::wire_version_secure;
    // Server-side policy: rekey after this many reply-stream bytes
    // (0 = never).  Only meaningful with wire v3 framing.
    std::uint64_t rekey_interval_bytes = 0;
};

// Trailer framing is active only for secure wire-v3 flows.
inline bool secure_framing(const secure_params& params) noexcept {
    return params.enabled && params.wire_version == rpc::wire_version_secure;
}

// Bytes the v3 framing reserves after the body for the clear [epoch | tag]
// trailer — the reservation the composition-legality engine matches against
// the trailer obligation the AEAD stages declare in their footprints.
inline constexpr std::size_t secure_trailer_reserved_bytes =
    rpc::secure_trailer_bytes;
static_assert(core::aead_encrypt_stage<crypto::aead_cipher>::footprint_decl
                      .trailer_bytes == rpc::secure_trailer_bytes,
              "AEAD footprint trailer obligation must match the wire-v3 "
              "trailer reservation");
static_assert(core::aead_decrypt_stage<crypto::aead_cipher>::footprint_decl
                      .trailer_bytes == rpc::secure_trailer_bytes,
              "AEAD footprint trailer obligation must match the wire-v3 "
              "trailer reservation");

enum class secure_rx_cause : std::uint8_t {
    ok,
    malformed,
    epoch_skew,
    tag_mismatch,
};

inline const char* to_string(secure_rx_cause cause) noexcept {
    switch (cause) {
        case secure_rx_cause::ok: return "ok";
        case secure_rx_cause::malformed: return "malformed";
        case secure_rx_cause::epoch_skew: return "epoch_skew";
        case secure_rx_cause::tag_mismatch: return "tag_mismatch";
    }
    return "?";
}

struct secure_rx_status {
    secure_rx_cause cause = secure_rx_cause::malformed;
    crypto::key_epoch epoch = 0;  // trailer epoch as received
    bool window_hit = false;      // accepted under the *previous* epoch
    bool adopted = false;         // keychain jumped forward to this epoch
};

// Per-endpoint security counters, merged into flow outcomes and metrics.
struct secure_flow_stats {
    std::uint64_t rekeys = 0;           // key-window advances initiated
    std::uint64_t tag_failures = 0;     // explicit tag_mismatch rejections
    std::uint64_t epoch_skews = 0;      // epochs behind the key window
    std::uint64_t window_hits = 0;      // previous-epoch acceptances
    std::uint64_t epoch_adoptions = 0;  // forward jumps committed
};

// ---------------------------------------------------------------------------
// Secure send paths

// The serial secure ILP send path's ring-direct fill: the fused
// aead-encrypt+tag+checksum loop over one secure message plus its clear
// [epoch | tag] trailer, writing straight into the reserved TCP ring span;
// returns the folded checksum over body and trailer.
template <memsim::memory_policy Mem, crypto::aead_capable Cipher>
std::uint16_t fill_message_secure_ilp(const Mem& mem, const Cipher& cipher,
                                      crypto::key_epoch epoch,
                                      const core::gather_source& src,
                                      const core::message_plan& plan,
                                      const ring_span& dst) {
    const std::size_t body_bytes = plan.total_bytes;
    checksum::inet_accumulator acc;
    crypto::aead_tag_accumulator tag;
    core::aead_encrypt_stage<Cipher> encrypt(cipher, tag);
    core::checksum_tap8 tap(acc);
    auto loop = core::make_pipeline(encrypt, tap);
    static_assert(!decltype(loop)::ordering_constrained,
                  "out-of-order parts require unconstrained stages");
    ILP_EXPECT(plan.well_formed() &&
               plan.aligned_for(decltype(loop)::required_alignment));
    const core::scatter_dest ring = core::ring_dest(dst);
    for (const core::message_part& part : plan.ilp_order()) {
        if (part.empty()) continue;
        ILP_OBS_SPAN("core", "fused_part");
        loop.run(mem, src.slice(part.offset, part.len),
                 ring.slice(part.offset, part.len));
    }
    // Clear trailer: epoch + folded tag, still covered by the TCP
    // checksum via the copy mini-loop's tap.
    alignas(8) std::byte trailer[rpc::secure_trailer_bytes];
    rpc::encode_secure_trailer({.key_epoch = epoch, .tag = tag.fold()},
                               trailer);
    core::opaque_stage copy;
    core::checksum_tap8 trailer_tap(acc);
    auto trailer_loop = core::make_pipeline(copy, trailer_tap);
    trailer_loop.run(mem, core::span_source({trailer, sizeof trailer}),
                     ring.slice(body_bytes, rpc::secure_trailer_bytes));
    return acc.folded();
}

// ILP: one fused pass (aead encrypt+tag, checksum tap) over the message
// parts in B,C,A order, then the 8-byte trailer staged locally and pushed
// through a 2-stage mini-loop so the checksum tap covers it too.
template <memsim::memory_policy Mem, crypto::aead_capable Cipher>
bool send_message_secure_ilp(tcp::tcp_sender<Mem>& sender, const Mem& mem,
                             const Cipher& cipher, crypto::key_epoch epoch,
                             const core::gather_source& src,
                             const core::message_plan& plan,
                             path_counters& counters) {
    const std::size_t body_bytes = plan.total_bytes;
    const std::size_t wire_bytes = body_bytes + rpc::secure_trailer_bytes;
    ILP_EXPECT(src.total_size() == body_bytes);
    ILP_OBS_SPAN("app", "send_secure_ilp");
    const bool sent = sender.send_message(
        wire_bytes, [&](const ring_span& dst) -> std::optional<std::uint16_t> {
            return fill_message_secure_ilp(mem, cipher, epoch, src, plan, dst);
        });
    if (!sent) return false;
    ++counters.messages;
    counters.wire_bytes += wire_bytes;
    counters.fused_loop_bytes += wire_bytes;
    counters.cipher_bytes += body_bytes;
    return true;
}

// Layered baseline: marshal pass, aead pass (in place, tag accumulated),
// trailer encode, then tcp_send's copy with the checksum left to tcp_output.
template <memsim::memory_policy Mem, crypto::aead_capable Cipher>
bool send_message_secure_layered(tcp::tcp_sender<Mem>& sender, const Mem& mem,
                                 const Cipher& cipher, crypto::key_epoch epoch,
                                 const core::gather_source& src,
                                 const core::message_plan& plan,
                                 send_workspace& workspace,
                                 path_counters& counters) {
    const std::size_t body_bytes = plan.total_bytes;
    const std::size_t wire_bytes = body_bytes + rpc::secure_trailer_bytes;
    ILP_EXPECT(src.total_size() == body_bytes);
    if (wire_bytes > sender.sendable_bytes()) return false;
    const std::span<std::byte> staging = workspace.staging(wire_bytes);
    ILP_OBS_SPAN("app", "send_secure_layered");

    {
        ILP_OBS_SPAN("app", "marshal_pass");
        core::marshal_to_buffer(mem, src, staging.first(body_bytes));
    }
    counters.marshal_pass_bytes += body_bytes;

    crypto::aead_tag_accumulator tag;
    {
        ILP_OBS_SPAN("app", "cipher_pass");
        core::aead_encrypt_stage<Cipher> encrypt(cipher, tag);
        core::apply_stage_in_place(mem, encrypt, staging.first(body_bytes));
    }
    counters.cipher_pass_bytes += body_bytes;
    counters.cipher_bytes += body_bytes;
    rpc::encode_secure_trailer({.key_epoch = epoch, .tag = tag.fold()},
                               staging.subspan(body_bytes));

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

template <memsim::memory_policy Mem, crypto::aead_capable Cipher>
bool send_message_secure(path_mode mode, tcp::tcp_sender<Mem>& sender,
                         const Mem& mem, const Cipher& cipher,
                         crypto::key_epoch epoch,
                         const core::gather_source& src,
                         const core::message_plan& plan,
                         send_workspace& workspace, path_counters& counters) {
    if (mode == path_mode::ilp) {
        return send_message_secure_ilp(sender, mem, cipher, epoch, src, plan,
                                       counters);
    }
    return send_message_secure_layered(sender, mem, cipher, epoch, src, plan,
                                       workspace, counters);
}

// ---------------------------------------------------------------------------
// Secure receive paths

namespace detail {

// Decodes the clear trailer from a (possibly two-piece) chain.  The flatten
// is raw and uncounted, mirroring the contiguous path where
// decode_secure_trailer reads the wire without going through the memory
// policy; the *counted* trailer touches are the checksum ones below.
inline rpc::secure_trailer decode_trailer_chain(const const_ring_span& t) {
    alignas(8) std::byte tmp[rpc::secure_trailer_bytes];
    ILP_EXPECT(t.size() == rpc::secure_trailer_bytes);
    std::memcpy(tmp, t.first.data(), t.first.size());
    if (!t.second.empty()) {
        std::memcpy(tmp + t.first.size(), t.second.data(), t.second.size());
    }
    return rpc::decode_secure_trailer({tmp, rpc::secure_trailer_bytes});
}

// Counted checksum over a chain, segment by segment (parity-tracked, so any
// split offset folds to the same sum as the contiguous pass).
template <memsim::memory_policy Mem>
void checksum_chain(const Mem& mem, checksum::inet_accumulator& acc,
                    const const_ring_span& data) {
    acc.add_bytes(mem, data.first, 8);
    if (!data.second.empty()) acc.add_bytes(mem, data.second, 8);
}

// A failure discovered after decryption started: finish decrypting the rest
// of the body into a discard destination so the tag accumulator is complete,
// checksum the clear trailer, and classify — a disagreeing tag means wrong
// key / tampering (tag_mismatch) and outranks the structural complaint.
template <memsim::memory_policy Mem, typename Loop>
tcp::rx_process_result fail_secure_body(
    const Mem& mem, Loop& loop, checksum::inet_accumulator& acc,
    const crypto::aead_tag_accumulator& tag,
    const rpc::secure_trailer& trailer, std::span<std::byte> wire,
    std::size_t from, secure_rx_status* status, path_counters& counters) {
    const std::size_t body = wire.size() - rpc::secure_trailer_bytes;
    if (from < body) {
        core::scatter_dest discard;
        discard.add_discard(body - from);
        loop.run(mem, core::span_source(wire.subspan(from, body - from)),
                 discard);
        counters.fused_loop_bytes += body - from;
        counters.cipher_bytes += body - from;
    }
    core::checksum_pass(mem, acc, wire.subspan(body), 8);
    counters.checksum_pass_bytes += rpc::secure_trailer_bytes;
    if (status != nullptr) {
        status->cause = tag.fold() == trailer.tag
                            ? secure_rx_cause::malformed
                            : secure_rx_cause::tag_mismatch;
    }
    return {acc.folded(), false};
}

// Gather-source form for the zero-copy chain path; single-segment sources
// run the exact same accesses as the span form above.
template <memsim::memory_policy Mem, typename Loop>
tcp::rx_process_result fail_secure_body(
    const Mem& mem, Loop& loop, checksum::inet_accumulator& acc,
    const crypto::aead_tag_accumulator& tag,
    const rpc::secure_trailer& trailer, const core::gather_source& wire,
    std::size_t from, secure_rx_status* status, path_counters& counters) {
    const std::size_t body = wire.total_size() - rpc::secure_trailer_bytes;
    if (from < body) {
        core::scatter_dest discard;
        discard.add_discard(body - from);
        loop.run(mem, wire.slice(from, body - from), discard);
        counters.fused_loop_bytes += body - from;
        counters.cipher_bytes += body - from;
    }
    // Named: segments() views the slice, which must outlive the loop.
    const core::gather_source trailer_wire =
        wire.slice(body, rpc::secure_trailer_bytes);
    for (const core::gather_segment& s : trailer_wire.segments()) {
        acc.add_bytes(mem, std::span<const std::byte>{s.data, s.len}, 8);
    }
    counters.checksum_pass_bytes += rpc::secure_trailer_bytes;
    if (status != nullptr) {
        status->cause = tag.fold() == trailer.tag
                            ? secure_rx_cause::malformed
                            : secure_rx_cause::tag_mismatch;
    }
    return {acc.folded(), false};
}

}  // namespace detail

// Selects the decryption key for `epoch` from the keychain: a window hit
// uses the held cipher; an epoch *ahead* of the window is trial-derived into
// `derived` (committed to the chain only after the tag verifies); an epoch
// behind the window is an explicit epoch_skew.  Returns nullptr on skew.
template <crypto::aead_capable Cipher>
const Cipher* select_rx_cipher(crypto::keychain<Cipher>& chain,
                               crypto::key_epoch epoch,
                               std::optional<Cipher>& derived,
                               secure_rx_status* status) {
    if (status != nullptr) status->epoch = epoch;
    if (const Cipher* held = chain.cipher_for(epoch)) {
        if (status != nullptr && epoch != chain.current_epoch()) {
            status->window_hit = true;
        }
        return held;
    }
    if (epoch > chain.current_epoch()) {
        derived.emplace(
            crypto::derive_epoch_cipher<Cipher>(chain.secret(), epoch));
        return &*derived;
    }
    if (status != nullptr) status->cause = secure_rx_cause::epoch_skew;
    return nullptr;
}

// ILP secure reply receive: trailer decoded first (clear), body streamed
// through the fused tap+aead-decrypt loop in the same two-phase shape as
// receive_reply_ilp, tag compared at the end.  Adopts forward epochs into
// the keychain only after the tag verifies.
//
// Primary (zero-copy) form over a loaned kernel-segment chain.  The clear
// trailer is what makes this possible under rule R2: every header and
// trailer size is known *before* the fused loop starts, straight off the
// loan, so the loop can stream the ciphertext in place with no reassembly.
template <memsim::memory_policy Mem, crypto::aead_capable Cipher,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_secure_ilp(
    const Mem& mem, crypto::keychain<Cipher>& chain,
    const const_ring_span& wire, Resolver&& resolve,
    rpc::reply_header* out_header, secure_rx_status* status,
    path_counters& counters) {
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", "receive_secure_ilp");
    checksum::inet_accumulator acc;
    if (status != nullptr) *status = {};
    const core::gather_source src = core::chain_source(wire);
    if (n < rpc::reply_payload_offset + 4 + rpc::secure_trailer_bytes ||
        n % core::encryption_unit_bytes != 0) {
        return detail::fail_with_remainder(mem, acc, src, 0, counters);
    }
    const std::size_t body = n - rpc::secure_trailer_bytes;
    const rpc::secure_trailer trailer = detail::decode_trailer_chain(
        wire.subspan(body, rpc::secure_trailer_bytes));

    std::optional<Cipher> derived;
    const Cipher* cipher =
        select_rx_cipher(chain, trailer.key_epoch, derived, status);
    if (cipher == nullptr) {
        // Stale epoch: nothing we can decrypt; checksum everything so TCP
        // can verdict, and report the skew explicitly.
        return detail::fail_with_remainder(mem, acc, src, 0, counters);
    }

    crypto::aead_tag_accumulator tag;
    core::checksum_tap8 tap(acc);
    core::aead_decrypt_stage<Cipher> dec(*cipher, tag);
    auto loop = core::make_pipeline(tap, dec);
    static_assert(detail::reply_header_region %
                          decltype(loop)::required_alignment ==
                      0,
                  "header phase must end on a fused-unit boundary");

    detail::reply_header_staging staging;
    {
        ILP_OBS_SPAN("app", "receive_header_phase");
        core::scatter_dest dst;
        dst.add(staging.bytes(), core::segment_op::xdr_words);
        loop.run(mem, src.slice(0, detail::reply_header_region), dst);
    }
    counters.fused_loop_bytes += detail::reply_header_region;
    counters.cipher_bytes += detail::reply_header_region;

    const auto marshalled = rpc::validate_enc_header(staging.words[0], body);
    const rpc::reply_header header = staging.to_header();
    if (!marshalled.has_value() || *marshalled < rpc::reply_payload_offset ||
        header.msg_type != rpc::msg_type_reply) {
        return detail::fail_secure_body(mem, loop, acc, tag, trailer, src,
                                        detail::reply_header_region, status,
                                        counters);
    }
    const std::size_t payload_bytes = *marshalled - rpc::reply_payload_offset;
    const std::span<std::byte> dest = resolve(header, payload_bytes);
    if (dest.size() != payload_bytes) {
        return detail::fail_secure_body(mem, loop, acc, tag, trailer, src,
                                        detail::reply_header_region, status,
                                        counters);
    }

    std::uint32_t opaque_len = 0;
    {
        ILP_OBS_SPAN("app", "receive_body_phase");
        core::scatter_dest dst;
        dst.add({reinterpret_cast<std::byte*>(&opaque_len), 4},
                core::segment_op::xdr_words);
        if (payload_bytes > 0) dst.add(dest);
        const std::size_t pad =
            body - rpc::reply_payload_offset - payload_bytes;
        if (pad > 0) dst.add_discard(pad);
        loop.run(mem,
                 src.slice(detail::reply_header_region,
                           body - detail::reply_header_region),
                 dst);
    }
    counters.fused_loop_bytes += body - detail::reply_header_region;
    counters.cipher_bytes += body - detail::reply_header_region;
    detail::checksum_chain(mem, acc,
                           wire.subspan(body, rpc::secure_trailer_bytes));
    counters.checksum_pass_bytes += rpc::secure_trailer_bytes;

    if (tag.fold() != trailer.tag) {
        if (status != nullptr) status->cause = secure_rx_cause::tag_mismatch;
        return {acc.folded(), false};
    }
    if (opaque_len != payload_bytes) {
        return {acc.folded(), false};  // malformed (tag ok, structure bad)
    }
    if (status != nullptr) {
        status->cause = secure_rx_cause::ok;
        status->adopted = chain.adopt(trailer.key_epoch);
    } else {
        chain.adopt(trailer.key_epoch);
    }
    ++counters.messages;
    counters.payload_bytes += payload_bytes;
    if (out_header != nullptr) *out_header = header;
    return {acc.folded(), true};
}

// Contiguous overload (the staged-copy mode and all unit fixtures):
// delegates with a single-piece chain, so it runs the identical access
// sequence it always has.
template <memsim::memory_policy Mem, crypto::aead_capable Cipher,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_secure_ilp(
    const Mem& mem, crypto::keychain<Cipher>& chain,
    std::span<std::byte> wire, Resolver&& resolve,
    rpc::reply_header* out_header, secure_rx_status* status,
    path_counters& counters) {
    return receive_reply_secure_ilp(mem, chain, const_ring_span{wire, {}},
                                    std::forward<Resolver>(resolve),
                                    out_header, status, counters);
}

// Layered secure reply receive: checksum pass (body + trailer), aead pass in
// place, unmarshal passes — the conventional stack with authentication
// folded into the cipher pass.
template <memsim::memory_policy Mem, crypto::aead_capable Cipher,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_secure_layered(
    const Mem& mem, crypto::keychain<Cipher>& chain,
    std::span<std::byte> wire, Resolver&& resolve,
    rpc::reply_header* out_header, secure_rx_status* status,
    path_counters& counters) {
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", "receive_secure_layered");
    checksum::inet_accumulator acc;
    if (status != nullptr) *status = {};

    {
        ILP_OBS_SPAN("app", "checksum_pass");
        core::checksum_pass(mem, acc, wire, 8);
    }
    counters.checksum_pass_bytes += n;
    if (n < rpc::reply_payload_offset + 4 + rpc::secure_trailer_bytes ||
        n % core::encryption_unit_bytes != 0) {
        return {acc.folded(), false};
    }
    const std::size_t body = n - rpc::secure_trailer_bytes;
    const rpc::secure_trailer trailer =
        rpc::decode_secure_trailer(wire.subspan(body));

    std::optional<Cipher> derived;
    const Cipher* cipher =
        select_rx_cipher(chain, trailer.key_epoch, derived, status);
    if (cipher == nullptr) return {acc.folded(), false};

    crypto::aead_tag_accumulator tag;
    {
        ILP_OBS_SPAN("app", "cipher_pass");
        core::aead_decrypt_stage<Cipher> dec(*cipher, tag);
        core::apply_stage_in_place(mem, dec, wire.first(body));
    }
    counters.cipher_pass_bytes += body;
    counters.cipher_bytes += body;

    if (tag.fold() != trailer.tag) {
        if (status != nullptr) status->cause = secure_rx_cause::tag_mismatch;
        return {acc.folded(), false};
    }

    detail::reply_header_staging staging;
    {
        ILP_OBS_SPAN("app", "unmarshal_pass");
        core::scatter_dest dst;
        dst.add(staging.bytes(), core::segment_op::xdr_words);
        core::unmarshal_from_buffer(
            mem, wire.first(detail::reply_header_region), dst);
    }
    counters.marshal_pass_bytes += detail::reply_header_region;

    const auto marshalled = rpc::validate_enc_header(staging.words[0], body);
    const rpc::reply_header header = staging.to_header();
    if (!marshalled.has_value() || *marshalled < rpc::reply_payload_offset ||
        header.msg_type != rpc::msg_type_reply) {
        return {acc.folded(), false};
    }
    const std::size_t payload_bytes = *marshalled - rpc::reply_payload_offset;
    const std::span<std::byte> dest = resolve(header, payload_bytes);
    if (dest.size() != payload_bytes) return {acc.folded(), false};

    std::uint32_t opaque_len = 0;
    {
        ILP_OBS_SPAN("app", "unmarshal_pass");
        core::scatter_dest dst;
        dst.add({reinterpret_cast<std::byte*>(&opaque_len), 4},
                core::segment_op::xdr_words);
        if (payload_bytes > 0) dst.add(dest);
        const std::size_t pad =
            body - rpc::reply_payload_offset - payload_bytes;
        if (pad > 0) dst.add_discard(pad);
        core::unmarshal_from_buffer(
            mem,
            wire.subspan(detail::reply_header_region,
                         body - detail::reply_header_region),
            dst);
    }
    counters.marshal_pass_bytes += body - detail::reply_header_region;
    if (opaque_len != payload_bytes) return {acc.folded(), false};

    if (status != nullptr) {
        status->cause = secure_rx_cause::ok;
        status->adopted = chain.adopt(trailer.key_epoch);
    } else {
        chain.adopt(trailer.key_epoch);
    }
    ++counters.messages;
    counters.payload_bytes += payload_bytes;
    if (out_header != nullptr) *out_header = header;
    return {acc.folded(), true};
}

template <memsim::memory_policy Mem, crypto::aead_capable Cipher,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_secure(
    path_mode mode, const Mem& mem, crypto::keychain<Cipher>& chain,
    std::span<std::byte> wire, Resolver&& resolve,
    rpc::reply_header* out_header, secure_rx_status* status,
    path_counters& counters) {
    if (mode == path_mode::ilp) {
        return receive_reply_secure_ilp(mem, chain, wire,
                                        std::forward<Resolver>(resolve),
                                        out_header, status, counters);
    }
    return receive_reply_secure_layered(mem, chain, wire,
                                        std::forward<Resolver>(resolve),
                                        out_header, status, counters);
}

// Chain dispatcher: only the ILP path can consume a read-only loan (the
// layered path decrypts in place), so the TCP layer routes chains here only
// when a chain processor is installed — i.e. in ILP mode.
template <memsim::memory_policy Mem, crypto::aead_capable Cipher,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_secure(
    path_mode mode, const Mem& mem, crypto::keychain<Cipher>& chain,
    const const_ring_span& wire, Resolver&& resolve,
    rpc::reply_header* out_header, secure_rx_status* status,
    path_counters& counters) {
    ILP_EXPECT(mode == path_mode::ilp);
    return receive_reply_secure_ilp(mem, chain, wire,
                                    std::forward<Resolver>(resolve),
                                    out_header, status, counters);
}

// Secure request receive (server side): requests travel under the flow's
// epoch-free *control* key, so the trailer epoch is informational only.
// Decrypts the body into `staging` (the caller parses it with
// rpc::unmarshal_request), verifies the tag, reports the cause.
template <memsim::memory_policy Mem, crypto::aead_capable Cipher>
tcp::rx_process_result receive_request_secure(
    path_mode mode, const Mem& mem, const Cipher& control_cipher,
    std::span<std::byte> wire, std::span<std::byte> staging,
    secure_rx_status* status, path_counters& counters) {
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", "receive_request_secure");
    checksum::inet_accumulator acc;
    if (status != nullptr) *status = {};
    if (n <= rpc::secure_trailer_bytes ||
        n % core::encryption_unit_bytes != 0 ||
        n - rpc::secure_trailer_bytes > staging.size()) {
        return detail::fail_with_remainder(mem, acc, wire, 0, counters);
    }
    const std::size_t body = n - rpc::secure_trailer_bytes;
    const rpc::secure_trailer trailer =
        rpc::decode_secure_trailer(wire.subspan(body));
    if (status != nullptr) status->epoch = trailer.key_epoch;

    crypto::aead_tag_accumulator tag;
    if (mode == path_mode::ilp) {
        core::checksum_tap8 tap(acc);
        core::aead_decrypt_stage<Cipher> dec(control_cipher, tag);
        auto loop = core::make_pipeline(tap, dec);
        loop.run(mem, core::span_source(wire.first(body)),
                 core::span_dest(staging.first(body)));
        counters.fused_loop_bytes += body;
    } else {
        core::checksum_pass(mem, acc, wire.first(body), 8);
        counters.checksum_pass_bytes += body;
        core::aead_decrypt_stage<Cipher> dec(control_cipher, tag);
        core::apply_stage_in_place(mem, dec, wire.first(body));
        counters.cipher_pass_bytes += body;
        core::copy_pass(mem, wire.first(body), staging.first(body));
        counters.copy_pass_bytes += body;
    }
    counters.cipher_bytes += body;
    core::checksum_pass(mem, acc, wire.subspan(body), 8);
    counters.checksum_pass_bytes += rpc::secure_trailer_bytes;

    if (tag.fold() != trailer.tag) {
        if (status != nullptr) status->cause = secure_rx_cause::tag_mismatch;
        return {acc.folded(), false};
    }
    if (status != nullptr) status->cause = secure_rx_cause::ok;
    ++counters.messages;
    return {acc.folded(), true};
}

// Zero-copy (chain) form of the secure request receive, ILP mode only (see
// the plain-path chain overload for the rationale): trailer decoded off the
// loan first (R2), body fused-decrypted straight out of the chain into the
// parse staging, trailer checksummed in place.
template <memsim::memory_policy Mem, crypto::aead_capable Cipher>
tcp::rx_process_result receive_request_secure(
    path_mode mode, const Mem& mem, const Cipher& control_cipher,
    const const_ring_span& wire, std::span<std::byte> staging,
    secure_rx_status* status, path_counters& counters) {
    ILP_EXPECT(mode == path_mode::ilp);
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", "receive_request_secure");
    checksum::inet_accumulator acc;
    if (status != nullptr) *status = {};
    const core::gather_source src = core::chain_source(wire);
    if (n <= rpc::secure_trailer_bytes ||
        n % core::encryption_unit_bytes != 0 ||
        n - rpc::secure_trailer_bytes > staging.size()) {
        return detail::fail_with_remainder(mem, acc, src, 0, counters);
    }
    const std::size_t body = n - rpc::secure_trailer_bytes;
    const rpc::secure_trailer trailer = detail::decode_trailer_chain(
        wire.subspan(body, rpc::secure_trailer_bytes));
    if (status != nullptr) status->epoch = trailer.key_epoch;

    crypto::aead_tag_accumulator tag;
    core::checksum_tap8 tap(acc);
    core::aead_decrypt_stage<Cipher> dec(control_cipher, tag);
    auto loop = core::make_pipeline(tap, dec);
    loop.run(mem, src.slice(0, body), core::span_dest(staging.first(body)));
    counters.fused_loop_bytes += body;
    counters.cipher_bytes += body;
    detail::checksum_chain(mem, acc,
                           wire.subspan(body, rpc::secure_trailer_bytes));
    counters.checksum_pass_bytes += rpc::secure_trailer_bytes;

    if (tag.fold() != trailer.tag) {
        if (status != nullptr) status->cause = secure_rx_cause::tag_mismatch;
        return {acc.folded(), false};
    }
    if (status != nullptr) status->cause = secure_rx_cause::ok;
    ++counters.messages;
    return {acc.folded(), true};
}

}  // namespace ilp::app
