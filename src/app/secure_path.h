// Wire framing: the one compile-time policy of the data-path family.
//
// send_path.h and receive_path.h hold one function per role and per
// {ILP, layered}.  The type of their key argument selects one of the two
// framing models below at compile time, so no framing branch ever enters a
// per-byte loop:
//
//   plain  (wire v2) — no trailer; the key argument is a bare block cipher.
//   aead   (wire v3) — the v2 wire image encrypted under the flow's current
//                      epoch key, followed by an 8-byte clear trailer
//                      [epoch | tag] (rpc::secure_trailer).  The tag is
//                      accumulated *inside* the same fused loop that
//                      marshals, encrypts and checksums — authentication
//                      costs no extra pass and no extra memory traffic,
//                      which is the modern re-run of the paper's ILP claim.
//                      The layered baselines pay the conventional
//                      pass-per-layer price, tag included in the cipher pass.
//
// Each model supplies a per-message `sealer` (send: cipher stage, trailer)
// and `opener` (receive: key selection, cipher stage, verdict).  The aead
// opener owns the failure taxonomy the robustness contract demands:
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
// clear trailer) so the transport can deliver its verdict.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>

#include "app/path_mode.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/stage.h"
#include "crypto/aead.h"
#include "crypto/kdf.h"
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

namespace detail {

// Folds the wire's untouched remainder [from, end) into the accumulator
// segment by segment (the accumulator's odd-parity tracking makes that
// correct for any chain split) so TCP can still verdict a malformed
// message, and reports failure.  The aead success path reuses it for the
// clear trailer — the only bytes the fused loop does not read — and
// overrides the verdict.
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
// plain: wire v2, no trailer

template <crypto::block_cipher Cipher>
struct plain_framing {
    static constexpr std::size_t trailer_bytes = 0;
    static constexpr const char* send_ilp_span = "send_ilp";
    static constexpr const char* send_layered_span = "send_layered";
    static constexpr const char* receive_ilp_span = "receive_ilp";
    static constexpr const char* receive_layered_span = "receive_layered";
    static constexpr const char* receive_request_span = "receive_request";

    // The stages and fused loops this framing's ILP paths run: the sealer's
    // cipher stage then the TCP checksum tap on send, the tap then the
    // opener's decryptor on receive.  The paths static_assert their loops
    // are exactly these types, and the gated flow graphs are read from them
    // (compose_models.h:flow_graph).
    using seal_stage = core::encrypt_stage<Cipher>;
    using open_stage = core::decrypt_stage<Cipher>;
    using send_loop = core::fused_pipeline<seal_stage, core::checksum_tap8>;
    using receive_loop = core::fused_pipeline<core::checksum_tap8, open_stage>;

    const Cipher* cipher;

    // An empty v2 request passes through to the parser, which rejects it.
    static constexpr bool runt_request(std::size_t) noexcept { return false; }

    struct sealer {
        explicit sealer(const plain_framing& f) : stage(*f.cipher) {}

        // No trailer to write, on either path.
        template <memsim::memory_policy Mem>
        void seal(const Mem&, checksum::inet_accumulator&,
                  const core::scatter_dest&, std::size_t) const {}
        void seal(std::span<std::byte>) const {}

        seal_stage stage;
    };

    struct opener {
        explicit opener(const plain_framing& f) : cipher(f.cipher) {}

        bool open(const const_ring_span&) const noexcept { return true; }
        open_stage decryptor() const { return open_stage(*cipher); }

        // A bad header: checksum whatever the loop has not read yet.
        template <memsim::memory_policy Mem, typename Loop>
        tcp::rx_process_result fail_body(const Mem& mem, Loop&,
                                         checksum::inet_accumulator& acc,
                                         const core::gather_source& wire,
                                         std::size_t from,
                                         path_counters& counters) const {
            return detail::fail_with_remainder(mem, acc, wire, from, counters);
        }

        bool verify() const noexcept { return true; }

        // v2 counts the message before the opaque-length check.
        bool accept(bool well_formed, std::size_t payload_bytes,
                    const rpc::reply_header& header,
                    rpc::reply_header* out_header,
                    path_counters& counters) const {
            ++counters.messages;
            counters.payload_bytes += payload_bytes;
            if (out_header != nullptr) *out_header = header;
            return well_formed;
        }

        const Cipher* cipher;
    };
};

// ---------------------------------------------------------------------------
// aead: wire v3, [epoch | tag] trailer

// One object serves both ends of a direction: the sender reads `key` and
// `epoch`; the receiver reads `window` (the reply direction's two-epoch key
// window) or, without one, the fixed `key` (the request direction's
// epoch-free control key, whose trailer epoch is informational only).
template <crypto::aead_capable Cipher>
struct aead_framing {
    static constexpr std::size_t trailer_bytes = rpc::secure_trailer_bytes;
    static constexpr const char* send_ilp_span = "send_secure_ilp";
    static constexpr const char* send_layered_span = "send_secure_layered";
    static constexpr const char* receive_ilp_span = "receive_secure_ilp";
    static constexpr const char* receive_layered_span =
        "receive_secure_layered";
    static constexpr const char* receive_request_span =
        "receive_request_secure";

    // As plain_framing's, with the tag-accumulating AEAD stages.
    using seal_stage = core::aead_encrypt_stage<Cipher>;
    using open_stage = core::aead_decrypt_stage<Cipher>;
    using send_loop = core::fused_pipeline<seal_stage, core::checksum_tap8>;
    using receive_loop = core::fused_pipeline<core::checksum_tap8, open_stage>;

    const Cipher* key = nullptr;
    crypto::key_epoch epoch = 0;  // the epoch a sent trailer names
    crypto::keychain<Cipher>* window = nullptr;
    secure_rx_status* status = nullptr;  // receive verdict, if wanted

    // A request must carry at least one body unit besides its trailer.
    static constexpr bool runt_request(std::size_t n) noexcept {
        return n <= trailer_bytes;
    }

    struct sealer {
        explicit sealer(const aead_framing& f)
            : stage(*f.key, tag), epoch(f.epoch) {}
        sealer(const sealer&) = delete;
        sealer& operator=(const sealer&) = delete;

        // ILP: the trailer is staged locally and pushed through a 2-stage
        // copy mini-loop, so the checksum tap covers it and each ring byte
        // is written exactly once.
        template <memsim::memory_policy Mem>
        void seal(const Mem& mem, checksum::inet_accumulator& acc,
                  const core::scatter_dest& ring, std::size_t body) const {
            alignas(8) std::byte trailer[trailer_bytes];
            seal(trailer);
            core::opaque_stage copy;
            core::checksum_tap8 tap(acc);
            auto loop = core::make_pipeline(copy, tap);
            loop.run(mem, core::span_source({trailer, sizeof trailer}),
                     ring.slice(body, trailer_bytes));
        }
        // Layered: encoded in the staging buffer, copied with the body.
        void seal(std::span<std::byte> trailer) const {
            rpc::encode_secure_trailer({.key_epoch = epoch, .tag = tag.fold()},
                                       trailer);
        }

        crypto::aead_tag_accumulator tag;  // declared before `stage`
        seal_stage stage;
        crypto::key_epoch epoch;
    };

    class opener {
    public:
        explicit opener(const aead_framing& f)
            : f_(f), status_(f.status != nullptr ? f.status : &unreported_) {
            *status_ = {};
        }
        opener(const opener&) = delete;
        opener& operator=(const opener&) = delete;

        // Decodes the clear trailer — known before the loop starts, straight
        // off the loan (rule R2) — and selects the key.  The flatten is raw
        // and uncounted, like any header parse; the *counted* trailer
        // touches are the checksum ones.  False on epoch_skew.
        bool open(const const_ring_span& t) {
            alignas(8) std::byte tmp[trailer_bytes];
            ILP_EXPECT(t.size() == trailer_bytes);
            std::memcpy(tmp, t.first.data(), t.first.size());
            if (!t.second.empty()) {
                std::memcpy(tmp + t.first.size(), t.second.data(),
                            t.second.size());
            }
            trailer_ = rpc::decode_secure_trailer({tmp, trailer_bytes});
            const crypto::key_epoch epoch = trailer_.key_epoch;
            status_->epoch = epoch;
            crypto::keychain<Cipher>* const window = f_.window;
            if (window == nullptr) {
                cipher_ = f_.key;  // the fixed (request) key
            } else if ((cipher_ = window->cipher_for(epoch)) != nullptr) {
                status_->window_hit = epoch != window->current_epoch();
            } else if (epoch > window->current_epoch()) {
                // Ahead of the window: trial-derive; accept() commits the
                // epoch to the chain only after the tag verifies.
                cipher_ = &derived_.emplace(crypto::derive_epoch_cipher<Cipher>(
                    window->secret(), epoch));
            } else {
                // Behind the window: stale beyond any legal retransmit.
                status_->cause = secure_rx_cause::epoch_skew;
            }
            return cipher_ != nullptr;
        }

        open_stage decryptor() { return open_stage(*cipher_, tag_); }

        // A failure discovered after decryption started: finish decrypting
        // the rest of the body into a discard destination so the tag is
        // complete, checksum the clear trailer, and classify — a
        // disagreeing tag means wrong key / tampering (tag_mismatch) and
        // outranks the structural complaint.
        template <memsim::memory_policy Mem, typename Loop>
        tcp::rx_process_result fail_body(const Mem& mem, Loop& loop,
                                         checksum::inet_accumulator& acc,
                                         const core::gather_source& wire,
                                         std::size_t from,
                                         path_counters& counters) {
            const std::size_t body = wire.total_size() - trailer_bytes;
            if (from < body) {
                core::scatter_dest discard;
                discard.add_discard(body - from);
                loop.run(mem, wire.slice(from, body - from), discard);
                counters.fused_loop_bytes += body - from;
                counters.cipher_bytes += body - from;
            }
            const tcp::rx_process_result result =
                detail::fail_with_remainder(mem, acc, wire, body, counters);
            status_->cause = tag_.fold() == trailer_.tag
                                 ? secure_rx_cause::malformed
                                 : secure_rx_cause::tag_mismatch;
            return result;
        }

        bool verify() {
            if (tag_.fold() == trailer_.tag) return true;
            status_->cause = secure_rx_cause::tag_mismatch;
            return false;
        }

        // Tag already verified.  A structural failure stays `malformed`;
        // otherwise the reply window adopts a forward epoch, and only then
        // is the message counted.
        bool accept(bool well_formed, std::size_t payload_bytes,
                    const rpc::reply_header& header,
                    rpc::reply_header* out_header, path_counters& counters) {
            if (!well_formed) return false;
            status_->cause = secure_rx_cause::ok;
            status_->adopted =
                f_.window != nullptr && f_.window->adopt(trailer_.key_epoch);
            ++counters.messages;
            counters.payload_bytes += payload_bytes;
            if (out_header != nullptr) *out_header = header;
            return true;
        }

    private:
        aead_framing f_;
        secure_rx_status unreported_;
        secure_rx_status* status_;
        rpc::secure_trailer trailer_{};
        std::optional<Cipher> derived_;
        const Cipher* cipher_ = nullptr;
        crypto::aead_tag_accumulator tag_;
    };
};

// The framing a key argument selects: a bare block cipher is the plain
// model; a framing object (plain_framing / aead_framing) is itself.
template <typename Keys>
auto as_framing(const Keys& keys) {
    if constexpr (crypto::block_cipher<Keys>) {
        return plain_framing<Keys>{&keys};
    } else {
        return keys;
    }
}

}  // namespace ilp::app
