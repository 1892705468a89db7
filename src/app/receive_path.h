// Receiving-side data paths (paper Fig. 5).
//
// Both paths run as the tcp_receiver's processor: after the system copy and
// header parse (initial stage) and before TCP commits anything (final
// stage).  They must *always* return the folded checksum of the complete
// ciphertext payload — even when the message is malformed — because the
// final stage needs it for the accept/reject verdict.  The key argument
// selects the wire framing (secure_path.h): a bare block cipher reads wire
// v2; an aead_framing reads and verifies the v3 [epoch | tag] trailer.
//
//   ILP:      checksum + decrypt + unmarshal fused into the copy out of the
//             receive buffer.  The first cipher blocks are decrypted first
//             to learn the encryption header's length field and the RPC
//             header ("as soon as enough data is decrypted for
//             unmarshalling, it performs the appropriate unmarshalling
//             operations", §3.2.3), then the rest streams straight into the
//             application's destination buffer.
//
//   layered:  1. checksum pass        receive buffer        (r)
//             2. decryption pass      in place              (r/w)
//             3. unmarshal + copy     buffer -> application (r/w)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>

#include "app/path_mode.h"
#include "app/secure_path.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/layered_path.h"
#include "core/stage.h"
#include "crypto/block_cipher.h"
#include "obs/tracer.h"
#include "rpc/messages.h"
#include "tcp/connection.h"

namespace ilp::app {

// Gives the receive path the destination for a reply's payload once the RPC
// header is known; returns an empty span to reject (unknown request id, bad
// offset, ...).  The span must be exactly `payload_bytes` long.
template <typename F>
concept reply_dest_resolver =
    requires(F f, const rpc::reply_header& h, std::size_t n) {
        { f(h, n) } -> std::convertible_to<std::span<std::byte>>;
    };

namespace detail {

// Region of the wire holding the encryption header + the five RPC header
// words: exactly the first three cipher blocks.
inline constexpr std::size_t reply_header_region = 24;

// Host-order staging for the unmarshalled length field and RPC header.
struct reply_header_staging {
    std::uint32_t words[6] = {};  // length, msg_type, request_id, copy_index,
                                  // offset, total_bytes

    // Destination of the header region's XDR words.
    core::scatter_dest dest() {
        core::scatter_dest dst;
        dst.add({reinterpret_cast<std::byte*>(words), sizeof words},
                core::segment_op::xdr_words);
        return dst;
    }
    rpc::reply_header to_header() const {
        rpc::reply_header h;
        h.msg_type = words[1];
        h.request_id = words[2];
        h.copy_index = words[3];
        h.offset = words[4];
        h.total_bytes = words[5];
        return h;
    }
    // Payload size the header promises for a `body`-byte wire image, or
    // nullopt when the length field or message type is invalid.
    std::optional<std::size_t> payload_bytes(std::size_t body) const {
        const auto marshalled = rpc::validate_enc_header(words[0], body);
        if (!marshalled.has_value() ||
            *marshalled < rpc::reply_payload_offset ||
            words[1] != rpc::msg_type_reply) {
            return std::nullopt;
        }
        return *marshalled - rpc::reply_payload_offset;
    }
};

// Destination of everything after the header region: the opaque length
// word, the payload (straight into the application's buffer) and the
// discarded padding.
inline core::scatter_dest reply_body_dest(std::uint32_t& opaque_len,
                                          std::span<std::byte> payload,
                                          std::size_t body) {
    core::scatter_dest dst;
    dst.add({reinterpret_cast<std::byte*>(&opaque_len), 4},
            core::segment_op::xdr_words);
    if (!payload.empty()) dst.add(payload);
    const std::size_t pad = body - rpc::reply_payload_offset - payload.size();
    if (pad > 0) dst.add_discard(pad);
    return dst;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Reply receive paths

// The fused path reads the wire as a loaned kernel-segment chain — up to two
// spans around the receive-ring wrap — in place, exactly once, with no
// reassembly copy.  Contiguous callers (the staged-copy mode, unit
// fixtures) pass their span, which converts to a one-piece chain, so they
// run the identical access sequence.
template <memsim::memory_policy Mem, typename Keys,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_ilp(const Mem& mem, const Keys& keys,
                                         const const_ring_span& wire,
                                         Resolver&& resolve,
                                         rpc::reply_header* out_header,
                                         path_counters& counters) {
    const auto framing = as_framing(keys);
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", framing.receive_ilp_span);
    checksum::inet_accumulator acc;
    typename decltype(framing)::opener rx(framing);
    const core::gather_source src = core::chain_source(wire);
    if (n < rpc::reply_payload_offset + 4 + framing.trailer_bytes ||
        n % core::encryption_unit_bytes != 0) {
        return detail::fail_with_remainder(mem, acc, src, 0, counters);
    }
    // aead: the clear trailer names the key; a stale epoch leaves nothing
    // to decrypt, so checksum everything and report the skew.
    const std::size_t body = n - framing.trailer_bytes;
    if (!rx.open(wire.subspan(body, framing.trailer_bytes))) {
        return detail::fail_with_remainder(mem, acc, src, 0, counters);
    }

    core::checksum_tap8 tap(acc);  // over the ciphertext...
    auto dec = rx.decryptor();     // ...then decrypt
    auto loop = core::make_pipeline(tap, dec);
    static_assert(std::is_same_v<decltype(loop),
                                 typename decltype(framing)::receive_loop>,
                  "the legality gate's receive graphs are read from "
                  "receive_loop");
    // The two-phase split at reply_header_region is itself a part cut; it
    // must land on a cipher-block boundary (analyzer rule R3).
    static_assert(detail::reply_header_region %
                          decltype(loop)::required_alignment ==
                      0,
                  "header phase must end on a fused-unit boundary");

    // Phase 1: decrypt the header region to learn the message geometry.
    detail::reply_header_staging staging;
    {
        ILP_OBS_SPAN("app", "receive_header_phase");
        loop.run(mem, src.slice(0, detail::reply_header_region),
                 staging.dest());
    }
    counters.fused_loop_bytes += detail::reply_header_region;
    counters.cipher_bytes += detail::reply_header_region;

    const rpc::reply_header header = staging.to_header();
    const std::optional<std::size_t> payload_bytes =
        staging.payload_bytes(body);
    if (!payload_bytes) {
        return rx.fail_body(mem, loop, acc, src, detail::reply_header_region,
                            counters);
    }
    const std::span<std::byte> dest = resolve(header, *payload_bytes);
    if (dest.size() != *payload_bytes) {
        return rx.fail_body(mem, loop, acc, src, detail::reply_header_region,
                            counters);
    }

    // Phase 2: the rest of the body, payload straight into the
    // application's buffer.
    std::uint32_t opaque_len = 0;
    {
        ILP_OBS_SPAN("app", "receive_body_phase");
        loop.run(mem,
                 src.slice(detail::reply_header_region,
                           body - detail::reply_header_region),
                 detail::reply_body_dest(opaque_len, dest, body));
    }
    counters.fused_loop_bytes += body - detail::reply_header_region;
    counters.cipher_bytes += body - detail::reply_header_region;

    // What follows the body (aead: the clear trailer) is read once, by the
    // checksum; then the framing gives the verdict.
    tcp::rx_process_result result =
        detail::fail_with_remainder(mem, acc, src, body, counters);
    result.ok = rx.verify() && rx.accept(opaque_len == *payload_bytes,
                                         *payload_bytes, header, out_header,
                                         counters);
    return result;
}

// Layered: checksum pass over the whole wire (trailer included), cipher
// pass in place (aead: tag accumulated and verified right after), then the
// unmarshal passes.
template <memsim::memory_policy Mem, typename Keys,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_layered(const Mem& mem, const Keys& keys,
                                             std::span<std::byte> wire,
                                             Resolver&& resolve,
                                             rpc::reply_header* out_header,
                                             path_counters& counters) {
    const auto framing = as_framing(keys);
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", framing.receive_layered_span);
    checksum::inet_accumulator acc;
    typename decltype(framing)::opener rx(framing);

    // Pass 1: checksum over the ciphertext.
    {
        ILP_OBS_SPAN("app", "checksum_pass");
        core::checksum_pass(mem, acc, wire, 8);
    }
    counters.checksum_pass_bytes += n;
    if (n < rpc::reply_payload_offset + 4 + framing.trailer_bytes ||
        n % core::encryption_unit_bytes != 0) {
        return {acc.folded(), false};
    }
    const std::size_t body = n - framing.trailer_bytes;
    if (!rx.open(wire.subspan(body))) return {acc.folded(), false};

    // Pass 2: decrypt in place.
    {
        ILP_OBS_SPAN("app", "cipher_pass");
        auto dec = rx.decryptor();
        core::apply_stage_in_place(mem, dec, wire.first(body));
    }
    counters.cipher_pass_bytes += body;
    counters.cipher_bytes += body;
    if (!rx.verify()) return {acc.folded(), false};

    // Pass 3: unmarshal + copy.  Headers first...
    detail::reply_header_staging staging;
    {
        ILP_OBS_SPAN("app", "unmarshal_pass");
        core::unmarshal_from_buffer(
            mem, wire.first(detail::reply_header_region), staging.dest());
    }
    counters.marshal_pass_bytes += detail::reply_header_region;

    const rpc::reply_header header = staging.to_header();
    const std::optional<std::size_t> payload_bytes =
        staging.payload_bytes(body);
    if (!payload_bytes) return {acc.folded(), false};
    const std::span<std::byte> dest = resolve(header, *payload_bytes);
    if (dest.size() != *payload_bytes) return {acc.folded(), false};

    // ...then the body.
    std::uint32_t opaque_len = 0;
    {
        ILP_OBS_SPAN("app", "unmarshal_pass");
        core::unmarshal_from_buffer(
            mem,
            wire.subspan(detail::reply_header_region,
                         body - detail::reply_header_region),
            detail::reply_body_dest(opaque_len, dest, body));
    }
    counters.marshal_pass_bytes += body - detail::reply_header_region;
    return {acc.folded(), rx.accept(opaque_len == *payload_bytes,
                                    *payload_bytes, header, out_header,
                                    counters)};
}

// Mode dispatcher used by the application.  A read-only chain loan can only
// reach the ILP path: the layered path decrypts in place, so the TCP layer
// stages a counted copy for it and hands over a span instead.
template <memsim::memory_policy Mem, typename Keys, typename Wire,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply(path_mode mode, const Mem& mem,
                                     const Keys& keys, const Wire& wire,
                                     Resolver&& resolve,
                                     rpc::reply_header* out_header,
                                     path_counters& counters) {
    if constexpr (std::is_same_v<Wire, std::span<std::byte>>) {
        if (mode == path_mode::layered) {
            return receive_reply_layered(mem, keys, wire,
                                         std::forward<Resolver>(resolve),
                                         out_header, counters);
        }
    } else {
        ILP_EXPECT(mode == path_mode::ilp);
    }
    return receive_reply_ilp(mem, keys, wire, std::forward<Resolver>(resolve),
                             out_header, counters);
}

// ---------------------------------------------------------------------------
// Request receive path (server side; requests are small but still flow
// through the full data-manipulation machinery)

// Decrypts a request body into `staging` and checksums the whole wire; the
// caller parses the plaintext staging with rpc::unmarshal_request
// afterwards.  aead: requests travel under the flow's epoch-free control
// key, so the trailer epoch is informational only.  The wire is a span
// (staged copy, either mode) or a read-only chain loan (ILP only, see
// receive_reply).
template <memsim::memory_policy Mem, typename Keys, typename Wire>
tcp::rx_process_result receive_request(path_mode mode, const Mem& mem,
                                       const Keys& keys, const Wire& wire,
                                       std::span<std::byte> staging,
                                       path_counters& counters) {
    const auto framing = as_framing(keys);
    const const_ring_span chain = wire;
    const std::size_t n = chain.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", framing.receive_request_span);
    checksum::inet_accumulator acc;
    typename decltype(framing)::opener rx(framing);
    const core::gather_source src = core::chain_source(chain);
    if (framing.runt_request(n) || n % core::encryption_unit_bytes != 0 ||
        n - framing.trailer_bytes > staging.size()) {
        return detail::fail_with_remainder(mem, acc, src, 0, counters);
    }
    const std::size_t body = n - framing.trailer_bytes;
    rx.open(chain.subspan(body, framing.trailer_bytes));
    auto dec = rx.decryptor();

    if (mode == path_mode::ilp) {
        core::checksum_tap8 tap(acc);
        auto loop = core::make_pipeline(tap, dec);
        static_assert(std::is_same_v<decltype(loop),
                                     typename decltype(framing)::receive_loop>,
                      "the lint's request graphs are read from "
                      "receive_loop");
        loop.run(mem, src.slice(0, body), core::span_dest(staging.first(body)));
        counters.fused_loop_bytes += body;
    } else if constexpr (std::is_same_v<Wire, std::span<std::byte>>) {
        core::checksum_pass(mem, acc, wire.first(body), 8);
        counters.checksum_pass_bytes += body;
        core::apply_stage_in_place(mem, dec, wire.first(body));
        counters.cipher_pass_bytes += body;
        core::copy_pass(mem, wire.first(body), staging.first(body));
        counters.copy_pass_bytes += body;
    } else {
        ILP_EXPECT(false && "a read-only loan cannot be decrypted in place");
    }
    counters.cipher_bytes += body;

    tcp::rx_process_result result =
        detail::fail_with_remainder(mem, acc, src, body, counters);
    // A request has no reply header: the caller parses the staging.
    result.ok = rx.verify() && rx.accept(true, 0, {}, nullptr, counters);
    return result;
}

}  // namespace ilp::app
