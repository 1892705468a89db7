// Receiving-side data paths (paper Fig. 5).
//
// Both paths run as the tcp_receiver's processor: after the system copy and
// header parse (initial stage) and before TCP commits anything (final
// stage).  They must *always* return the folded checksum of the complete
// ciphertext payload — even when the message is malformed — because the
// final stage needs it for the accept/reject verdict.
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
#include <span>

#include "app/path_mode.h"
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

    std::span<std::byte> bytes() {
        return {reinterpret_cast<std::byte*>(words), sizeof words};
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
};

// Folds the untouched remainder of the wire into the accumulator so TCP can
// still verdict a malformed message, and reports failure.
template <memsim::memory_policy Mem>
tcp::rx_process_result fail_with_remainder(const Mem& mem,
                                           checksum::inet_accumulator& acc,
                                           std::span<std::byte> wire,
                                           std::size_t from,
                                           path_counters& counters) {
    core::checksum_pass(mem, acc, wire.subspan(from), 8);
    counters.checksum_pass_bytes += wire.size() - from;
    return {acc.folded(), false};
}

// Gather-source form, for the zero-copy chain paths: checksums the
// remainder segment by segment (the accumulator's odd-parity tracking makes
// that correct for any chain split).  On a single-segment source this runs
// the exact same accesses as the span form above.
template <memsim::memory_policy Mem>
tcp::rx_process_result fail_with_remainder(const Mem& mem,
                                           checksum::inet_accumulator& acc,
                                           const core::gather_source& wire,
                                           std::size_t from,
                                           path_counters& counters) {
    const std::size_t n = wire.total_size();
    // Named: segments() views the slice, which must outlive the loop.
    const core::gather_source rest = wire.slice(from, n - from);
    for (const core::gather_segment& s : rest.segments()) {
        acc.add_bytes(mem, std::span<const std::byte>{s.data, s.len}, 8);
    }
    counters.checksum_pass_bytes += n - from;
    return {acc.folded(), false};
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Reply receive paths

// Primary (zero-copy) form: the wire arrives as a loaned kernel-segment
// chain — up to two spans around the receive-ring wrap — and the fused loop
// reads it in place, exactly once, with no reassembly copy.  The contiguous
// overload below delegates here with a single-piece chain, so the copying
// mode runs the identical access sequence it always has.
template <memsim::memory_policy Mem, crypto::block_cipher Cipher,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_ilp(const Mem& mem, const Cipher& cipher,
                                         const const_ring_span& wire,
                                         Resolver&& resolve,
                                         rpc::reply_header* out_header,
                                         path_counters& counters) {
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", "receive_ilp");
    checksum::inet_accumulator acc;
    const core::gather_source src = core::chain_source(wire);
    if (n < rpc::reply_payload_offset + 4 ||
        n % core::encryption_unit_bytes != 0) {
        return detail::fail_with_remainder(mem, acc, src, 0, counters);
    }

    core::checksum_tap8 tap(acc);            // over the ciphertext...
    core::decrypt_stage<Cipher> dec(cipher);  // ...then decrypt
    auto loop = core::make_pipeline(tap, dec);
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
        core::scatter_dest dst;
        dst.add(staging.bytes(), core::segment_op::xdr_words);
        loop.run(mem, src.slice(0, detail::reply_header_region), dst);
    }
    counters.fused_loop_bytes += detail::reply_header_region;
    counters.cipher_bytes += detail::reply_header_region;

    const auto marshalled = rpc::validate_enc_header(staging.words[0], n);
    const rpc::reply_header header = staging.to_header();
    if (!marshalled.has_value() ||
        *marshalled < rpc::reply_payload_offset ||
        header.msg_type != rpc::msg_type_reply) {
        return detail::fail_with_remainder(
            mem, acc, src, detail::reply_header_region, counters);
    }
    const std::size_t payload_bytes =
        *marshalled - rpc::reply_payload_offset;
    const std::span<std::byte> dest = resolve(header, payload_bytes);
    if (dest.size() != payload_bytes) {
        return detail::fail_with_remainder(
            mem, acc, src, detail::reply_header_region, counters);
    }

    // Phase 2: the opaque length word, the payload (straight into the
    // application's buffer) and the discarded padding.
    std::uint32_t opaque_len = 0;
    {
        ILP_OBS_SPAN("app", "receive_body_phase");
        core::scatter_dest dst;
        dst.add({reinterpret_cast<std::byte*>(&opaque_len), 4},
                core::segment_op::xdr_words);
        if (payload_bytes > 0) dst.add(dest);
        const std::size_t pad = n - rpc::reply_payload_offset - payload_bytes;
        if (pad > 0) dst.add_discard(pad);
        loop.run(mem,
                 src.slice(detail::reply_header_region,
                           n - detail::reply_header_region),
                 dst);
    }
    const std::size_t body = n - detail::reply_header_region;
    counters.fused_loop_bytes += body;
    counters.cipher_bytes += body;
    ++counters.messages;
    counters.payload_bytes += payload_bytes;

    if (out_header != nullptr) *out_header = header;
    return {acc.folded(), opaque_len == payload_bytes};
}

// Contiguous overload (the staged-copy mode and all unit fixtures).
template <memsim::memory_policy Mem, crypto::block_cipher Cipher,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_ilp(const Mem& mem, const Cipher& cipher,
                                         std::span<std::byte> wire,
                                         Resolver&& resolve,
                                         rpc::reply_header* out_header,
                                         path_counters& counters) {
    return receive_reply_ilp(mem, cipher, const_ring_span{wire, {}},
                             std::forward<Resolver>(resolve), out_header,
                             counters);
}

template <memsim::memory_policy Mem, crypto::block_cipher Cipher,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_layered(const Mem& mem,
                                             const Cipher& cipher,
                                             std::span<std::byte> wire,
                                             Resolver&& resolve,
                                             rpc::reply_header* out_header,
                                             path_counters& counters) {
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", "receive_layered");
    checksum::inet_accumulator acc;

    // Pass 1: checksum over the ciphertext.
    {
        ILP_OBS_SPAN("app", "checksum_pass");
        core::checksum_pass(mem, acc, wire, 8);
    }
    counters.checksum_pass_bytes += n;
    if (n < rpc::reply_payload_offset + 4 ||
        n % core::encryption_unit_bytes != 0) {
        return {acc.folded(), false};
    }

    // Pass 2: decrypt in place.
    {
        ILP_OBS_SPAN("app", "cipher_pass");
        core::decrypt_stage<Cipher> dec(cipher);
        core::apply_stage_in_place(mem, dec, wire);
    }
    counters.cipher_pass_bytes += n;
    counters.cipher_bytes += n;

    // Pass 3: unmarshal + copy.  Headers first...
    detail::reply_header_staging staging;
    {
        ILP_OBS_SPAN("app", "unmarshal_pass");
        core::scatter_dest dst;
        dst.add(staging.bytes(), core::segment_op::xdr_words);
        core::unmarshal_from_buffer(
            mem, wire.first(detail::reply_header_region), dst);
    }
    counters.marshal_pass_bytes += detail::reply_header_region;

    const auto marshalled = rpc::validate_enc_header(staging.words[0], n);
    const rpc::reply_header header = staging.to_header();
    if (!marshalled.has_value() ||
        *marshalled < rpc::reply_payload_offset ||
        header.msg_type != rpc::msg_type_reply) {
        return {acc.folded(), false};
    }
    const std::size_t payload_bytes =
        *marshalled - rpc::reply_payload_offset;
    const std::span<std::byte> dest = resolve(header, payload_bytes);
    if (dest.size() != payload_bytes) return {acc.folded(), false};

    // ...then the body.
    std::uint32_t opaque_len = 0;
    {
        ILP_OBS_SPAN("app", "unmarshal_pass");
        core::scatter_dest dst;
        dst.add({reinterpret_cast<std::byte*>(&opaque_len), 4},
                core::segment_op::xdr_words);
        if (payload_bytes > 0) dst.add(dest);
        const std::size_t pad = n - rpc::reply_payload_offset - payload_bytes;
        if (pad > 0) dst.add_discard(pad);
        core::unmarshal_from_buffer(
            mem, wire.subspan(detail::reply_header_region), dst);
    }
    counters.marshal_pass_bytes += n - detail::reply_header_region;
    ++counters.messages;
    counters.payload_bytes += payload_bytes;

    if (out_header != nullptr) *out_header = header;
    return {acc.folded(), opaque_len == payload_bytes};
}

// ---------------------------------------------------------------------------
// Request receive paths (server side; requests are small but still flow
// through the full data-manipulation machinery)

// Decrypts a request into `staging` and checksums it; the caller parses the
// plaintext staging with rpc::unmarshal_request afterwards.  Returns the
// checksum result; `*plain_len` receives the wire size.
template <memsim::memory_policy Mem, crypto::block_cipher Cipher>
tcp::rx_process_result receive_request(path_mode mode, const Mem& mem,
                                       const Cipher& cipher,
                                       std::span<std::byte> wire,
                                       std::span<std::byte> staging,
                                       path_counters& counters) {
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", "receive_request");
    checksum::inet_accumulator acc;
    if (n % core::encryption_unit_bytes != 0 || n > staging.size()) {
        return detail::fail_with_remainder(mem, acc, wire, 0, counters);
    }

    if (mode == path_mode::ilp) {
        core::checksum_tap8 tap(acc);
        core::decrypt_stage<Cipher> dec(cipher);
        auto loop = core::make_pipeline(tap, dec);
        loop.run(mem, core::span_source(wire),
                 core::span_dest(staging.first(n)));
        counters.fused_loop_bytes += n;
    } else {
        core::checksum_pass(mem, acc, wire, 8);
        counters.checksum_pass_bytes += n;
        core::decrypt_stage<Cipher> dec(cipher);
        core::apply_stage_in_place(mem, dec, wire);
        counters.cipher_pass_bytes += n;
        core::copy_pass(mem, wire, staging.first(n));
        counters.copy_pass_bytes += n;
    }
    counters.cipher_bytes += n;
    ++counters.messages;
    return {acc.folded(), true};
}

// Zero-copy (chain) form of the request receive.  ILP mode only: the
// layered path decrypts the wire in place, which a read-only loan cannot
// support, so the TCP layer stages a counted copy for it and calls the
// span overload instead.
template <memsim::memory_policy Mem, crypto::block_cipher Cipher>
tcp::rx_process_result receive_request(path_mode mode, const Mem& mem,
                                       const Cipher& cipher,
                                       const const_ring_span& wire,
                                       std::span<std::byte> staging,
                                       path_counters& counters) {
    ILP_EXPECT(mode == path_mode::ilp);
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", "receive_request");
    checksum::inet_accumulator acc;
    const core::gather_source src = core::chain_source(wire);
    if (n % core::encryption_unit_bytes != 0 || n > staging.size()) {
        return detail::fail_with_remainder(mem, acc, src, 0, counters);
    }
    core::checksum_tap8 tap(acc);
    core::decrypt_stage<Cipher> dec(cipher);
    auto loop = core::make_pipeline(tap, dec);
    loop.run(mem, src, core::span_dest(staging.first(n)));
    counters.fused_loop_bytes += n;
    counters.cipher_bytes += n;
    ++counters.messages;
    return {acc.folded(), true};
}

}  // namespace ilp::app
