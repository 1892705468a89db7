// Per-flow key lifecycle: KDF determinism, the two-epoch keychain window,
// key-schedule hygiene (zeroize on retirement), the AEAD-shaped cipher, the
// secure wire-v3 framing, and the rekey-under-chaos contract — every fault
// cell ends byte-verified or fails *explicitly* with a distinct cause
// (tag_mismatch / epoch_skew), never silently.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "app/harness.h"
#include "app/secure_path.h"
#include "crypto/aead.h"
#include "crypto/des.h"
#include "crypto/kdf.h"
#include "crypto/rc4.h"
#include "crypto/safer_k64.h"
#include "engine/fleet.h"
#include "memsim/mem_policy.h"
#include "net/datagram.h"
#include "rpc/messages.h"
#include "util/rng.h"

namespace ilp {
namespace {

using memsim::direct_memory;
using crypto::aead_cipher;
using crypto::key_epoch;

// ---------------------------------------------------------------------------
// KDF + keychain

std::vector<std::byte> encrypt_probe(const aead_cipher& cipher) {
    std::vector<std::byte> block(aead_cipher::block_bytes);
    for (std::size_t i = 0; i < block.size(); ++i) {
        block[i] = static_cast<std::byte>(i + 1);
    }
    cipher.encrypt_block(direct_memory{}, block.data());
    return block;
}

TEST(Kdf, SameSecretSameEpochSameKey) {
    const auto a = crypto::derive_epoch_cipher<aead_cipher>(0x1234, 7);
    const auto b = crypto::derive_epoch_cipher<aead_cipher>(0x1234, 7);
    EXPECT_EQ(encrypt_probe(a), encrypt_probe(b));
}

TEST(Kdf, EpochAndSecretBothSeparateKeys) {
    const auto base = crypto::derive_epoch_cipher<aead_cipher>(0x1234, 7);
    const auto next_epoch = crypto::derive_epoch_cipher<aead_cipher>(0x1234, 8);
    const auto other_secret =
        crypto::derive_epoch_cipher<aead_cipher>(0x1235, 7);
    const auto control = crypto::derive_control_cipher<aead_cipher>(0x1234);
    EXPECT_NE(encrypt_probe(base), encrypt_probe(next_epoch));
    EXPECT_NE(encrypt_probe(base), encrypt_probe(other_secret));
    EXPECT_NE(encrypt_probe(base), encrypt_probe(control));
}

TEST(Keychain, WindowHoldsCurrentAndPrevious) {
    crypto::keychain<aead_cipher> chain(0xbeef);
    EXPECT_EQ(chain.current_epoch(), 0u);
    EXPECT_NE(chain.cipher_for(0), nullptr);
    EXPECT_EQ(chain.cipher_for(1), nullptr);  // not derived yet

    chain.advance();
    EXPECT_EQ(chain.current_epoch(), 1u);
    ASSERT_NE(chain.cipher_for(0), nullptr);  // previous epoch still accepted
    ASSERT_NE(chain.cipher_for(1), nullptr);
    // The windowed epoch-0 key is the *same* key material epoch 0 used.
    const auto fresh0 = crypto::derive_epoch_cipher<aead_cipher>(0xbeef, 0);
    EXPECT_EQ(encrypt_probe(*chain.cipher_for(0)), encrypt_probe(fresh0));

    chain.advance();
    EXPECT_EQ(chain.cipher_for(0), nullptr);  // retired
    EXPECT_NE(chain.cipher_for(1), nullptr);
    EXPECT_NE(chain.cipher_for(2), nullptr);
}

TEST(Keychain, AdoptJumpsForwardOnly) {
    crypto::keychain<aead_cipher> chain(0xbeef);
    EXPECT_FALSE(chain.adopt(0));  // not a forward jump
    EXPECT_TRUE(chain.adopt(1));   // plain advance
    EXPECT_EQ(chain.current_epoch(), 1u);
    EXPECT_TRUE(chain.adopt(5));  // outage hid several rekeys
    EXPECT_EQ(chain.current_epoch(), 5u);
    EXPECT_NE(chain.cipher_for(4), nullptr);  // window re-centred on {4, 5}
    EXPECT_EQ(chain.cipher_for(3), nullptr);
    EXPECT_FALSE(chain.adopt(2));  // stale epochs never re-adopted
    EXPECT_EQ(chain.current_epoch(), 5u);
}

// The hygiene contract's sharp edge: touching a retired epoch is a
// programming error that must abort, never hand back a stale key.
using KeychainDeathTest = ::testing::Test;

TEST(KeychainDeathTest, RetiredEpochIsUnreachable) {
    crypto::keychain<aead_cipher> chain(0xbeef);
    chain.advance();
    chain.advance();  // window is {1, 2}; epoch 0 retired
    EXPECT_DEATH((void)chain.require(0), "");
}

// ---------------------------------------------------------------------------
// Key-schedule zeroization on teardown

// Destroys a placement-new'd cipher and returns how many bytes of its
// storage remain nonzero.  The bytes are read through a volatile pointer:
// the object's lifetime has ended, so a plain read is one the optimizer may
// treat as uninitialized and fold away, while a volatile read must load
// what the destructor's (volatile) scrub left in memory.
template <typename Cipher, std::size_t KeyBytes>
std::size_t nonzero_bytes_after_destruction() {
    // Zero-filled storage, so struct padding (never written by the object)
    // cannot masquerade as leaked key material.
    alignas(Cipher) std::byte storage[sizeof(Cipher)] = {};
    std::array<std::byte, KeyBytes> key;
    rng r(99);
    r.fill(key);
    Cipher* cipher = new (storage) Cipher(key);
    cipher->~Cipher();
    const volatile std::byte* bytes = storage;
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < sizeof(Cipher); ++i) {
        if (bytes[i] != std::byte{0}) ++nonzero;
    }
    return nonzero;
}

TEST(Zeroize, CipherSchedulesAreScrubbedOnTeardown) {
    // des and aead hold nothing but key material: all-zero after teardown.
    EXPECT_EQ((nonzero_bytes_after_destruction<crypto::des, 8>()), 0u);
    EXPECT_EQ((nonzero_bytes_after_destruction<aead_cipher, 16>()), 0u);
    // rc4's state array and indices are scrubbed likewise.
    EXPECT_EQ((nonzero_bytes_after_destruction<crypto::rc4, 16>()), 0u);
    // safer_k64 keeps its (non-secret) round count; everything else — the
    // expanded subkey schedule — must be gone.
    EXPECT_LE((nonzero_bytes_after_destruction<crypto::safer_k64, 8>()),
              sizeof(unsigned));
}

TEST(Zeroize, KeychainAdvanceScrubsTheRetiredEpoch) {
    // advance() destroys the epoch-(current-1) cipher in place; the
    // destructor contract above is what makes that retirement real.  Here we
    // pin the observable half: the retired epoch is no longer derivable from
    // the chain (cipher_for refuses) even though current-1 still is.
    crypto::keychain<aead_cipher> chain(0x5eed);
    chain.advance();
    chain.advance();
    EXPECT_EQ(chain.cipher_for(0), nullptr);
    EXPECT_NE(chain.cipher_for(1), nullptr);
}

// ---------------------------------------------------------------------------
// AEAD cipher

TEST(Aead, EncryptDecryptRoundTrip) {
    std::array<std::byte, aead_cipher::key_bytes> key;
    rng r(3);
    r.fill(key);
    const aead_cipher cipher{std::span<const std::byte>(key)};
    std::array<std::byte, 8> block;
    r.fill(block);
    const auto original = block;
    cipher.encrypt_block(direct_memory{}, block.data());
    EXPECT_NE(block, original);
    cipher.decrypt_block(direct_memory{}, block.data());
    EXPECT_EQ(block, original);
}

TEST(Aead, TagIsOrderIndependentButKeyAndDataSensitive) {
    std::array<std::byte, aead_cipher::key_bytes> key;
    rng r(4);
    r.fill(key);
    const aead_cipher cipher{std::span<const std::byte>(key)};
    const std::uint64_t words[] = {1, 0x1234, 0xffffffffffull};

    crypto::aead_tag_accumulator forward, backward;
    for (const std::uint64_t w : words) forward.add(cipher.tag_mix(w));
    for (int i = 2; i >= 0; --i) backward.add(cipher.tag_mix(words[i]));
    // Commutative accumulation: the fused B,C,A traversal tags the same
    // value as the receiver's linear pass.
    EXPECT_EQ(forward.fold(), backward.fold());

    crypto::aead_tag_accumulator tampered;
    tampered.add(cipher.tag_mix(words[0] ^ 1));
    tampered.add(cipher.tag_mix(words[1]));
    tampered.add(cipher.tag_mix(words[2]));
    EXPECT_NE(forward.fold(), tampered.fold());

    key[0] ^= std::byte{1};
    const aead_cipher other{std::span<const std::byte>(key)};
    crypto::aead_tag_accumulator wrong_key;
    for (const std::uint64_t w : words) wrong_key.add(other.tag_mix(w));
    EXPECT_NE(forward.fold(), wrong_key.fold());
}

// ---------------------------------------------------------------------------
// Wire v3 marshalling

TEST(WireV3, RequestRoundTripsEpoch) {
    rpc::file_request request;
    request.request_id = 42;
    request.filename = "f.dat";
    request.version = rpc::wire_version_secure;
    request.key_epoch = 9;
    std::array<std::byte, 256> buf{};
    const auto n = rpc::marshal_request(request, buf);
    ASSERT_TRUE(n.has_value());
    const auto parsed = rpc::unmarshal_request(std::span(buf).first(*n));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->version, rpc::wire_version_secure);
    EXPECT_EQ(parsed->key_epoch, 9u);
    EXPECT_EQ(parsed->request_id, 42u);
}

TEST(WireV3, V2RequestStaysV2AndCarriesNoEpoch) {
    rpc::file_request request;
    // 9-character name: the v2 image lands exactly 8-aligned, so the v3
    // epoch word costs a full alignment step and the delta is visible.
    request.filename = "files/abc";
    request.version = rpc::wire_version;
    request.key_epoch = 9;  // must not be marshalled in v2
    std::array<std::byte, 256> buf{};
    const auto n2 = rpc::marshal_request(request, buf);
    ASSERT_TRUE(n2.has_value());
    EXPECT_EQ(*n2 % 8, 0u);
    const auto parsed = rpc::unmarshal_request(std::span(buf).first(*n2));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->version, rpc::wire_version);
    EXPECT_EQ(parsed->key_epoch, 0u);

    request.version = rpc::wire_version_secure;
    const auto n3 = rpc::marshal_request(request, buf);
    ASSERT_TRUE(n3.has_value());
    EXPECT_EQ(*n3, *n2 + 8);  // one extra XDR word, kept 8-aligned
}

TEST(WireV3, TrailerRoundTrips) {
    std::array<std::byte, rpc::secure_trailer_bytes> bytes{};
    rpc::encode_secure_trailer({.key_epoch = 7, .tag = 0xdeadbeef}, bytes);
    const rpc::secure_trailer t = rpc::decode_secure_trailer(bytes);
    EXPECT_EQ(t.key_epoch, 7u);
    EXPECT_EQ(t.tag, 0xdeadbeefu);
    EXPECT_EQ(rpc::max_payload_for_secure_wire(1024),
              rpc::max_payload_for_wire(1024 - rpc::secure_trailer_bytes));
    EXPECT_EQ(rpc::max_payload_for_secure_wire(rpc::secure_trailer_bytes), 0u);
}

// ---------------------------------------------------------------------------
// Secure receive path: failure taxonomy and the epoch window, unit level

constexpr std::uint64_t fixture_secret = 0xfee1;

struct secure_fixture {
    std::vector<std::byte> payload;
    byte_buffer wire;  // encrypted body + clear trailer
    rpc::reply_layout layout;

    explicit secure_fixture(key_epoch epoch, std::size_t payload_bytes = 200,
                            std::uint64_t secret = fixture_secret)
        : payload(payload_bytes),
          wire(rpc::layout_reply(payload_bytes).wire_bytes +
               rpc::secure_trailer_bytes),
          layout(rpc::layout_reply(payload_bytes)) {
        rng r(7);
        r.fill(payload);
        rpc::reply_header header;
        header.request_id = 9;
        header.total_bytes = static_cast<std::uint32_t>(payload_bytes);
        rpc::reply_staging staging;
        const auto src = rpc::make_reply_source(header, payload, staging);
        const aead_cipher cipher =
            crypto::derive_epoch_cipher<aead_cipher>(secret, epoch);
        crypto::aead_tag_accumulator tag;
        core::aead_encrypt_stage<aead_cipher> enc(cipher, tag);
        auto pipe = core::make_pipeline(enc);
        const std::span<std::byte> body =
            wire.span().first(layout.wire_bytes);
        pipe.run(direct_memory{}, src, core::span_dest(body));
        rpc::encode_secure_trailer({.key_epoch = epoch, .tag = tag.fold()},
                                   wire.span().subspan(layout.wire_bytes));
    }
};

app::secure_rx_status receive_into(secure_fixture& f,
                                   crypto::keychain<aead_cipher>& chain,
                                   app::path_mode mode,
                                   std::span<std::byte> dest) {
    rpc::reply_header header;
    app::secure_rx_status status;
    app::path_counters counters;
    const auto resolve = [&](const rpc::reply_header&,
                             std::size_t n) -> std::span<std::byte> {
        return dest.size() >= n ? dest.subspan(0, n) : std::span<std::byte>{};
    };
    app::receive_reply(mode, direct_memory{},
                       app::aead_framing<aead_cipher>{.window = &chain,
                                                      .status = &status},
                       f.wire.span(), resolve, &header, counters);
    return status;
}

TEST(SecureReceive, HappyPathBothModes) {
    for (const auto mode : {app::path_mode::ilp, app::path_mode::layered}) {
        secure_fixture f(/*epoch=*/0);
        crypto::keychain<aead_cipher> chain(fixture_secret);
        byte_buffer dest(f.payload.size());
        const auto status = receive_into(f, chain, mode, dest.span());
        EXPECT_EQ(status.cause, app::secure_rx_cause::ok);
        EXPECT_FALSE(status.window_hit);
        EXPECT_EQ(std::memcmp(dest.span().data(), f.payload.data(),
                              f.payload.size()),
                  0);
    }
}

// The retransmit-tolerance property: ciphertext first sent under epoch N is
// still accepted after the receiver advanced to N+1 (the TCP ring stores
// ciphertext, so a retransmitted segment carries its original epoch).
TEST(SecureReceive, PreviousEpochRetransmitAcceptedInWindow) {
    for (const auto mode : {app::path_mode::ilp, app::path_mode::layered}) {
        secure_fixture f(/*epoch=*/0);
        crypto::keychain<aead_cipher> chain(fixture_secret);
        chain.advance();  // receiver already at epoch 1
        byte_buffer dest(f.payload.size());
        const auto status = receive_into(f, chain, mode, dest.span());
        EXPECT_EQ(status.cause, app::secure_rx_cause::ok);
        EXPECT_TRUE(status.window_hit);
        EXPECT_EQ(chain.current_epoch(), 1u);  // no regression
        EXPECT_EQ(std::memcmp(dest.span().data(), f.payload.data(),
                              f.payload.size()),
                  0);
    }
}

// Zero-copy shape: the same secure wire delivered as a two-piece ring-loan
// chain must behave bit-identically to the contiguous span, including when
// the split lands inside the 8-byte clear trailer (the [epoch|tag] words
// are decoded before the fused loop starts, per the paper's R2 rule).
TEST(SecureReceive, ChainMatchesSpanIncludingTrailerSplits) {
    secure_fixture base(/*epoch=*/0);
    crypto::keychain<aead_cipher> chain_s(fixture_secret);
    byte_buffer dest_s(base.payload.size());
    const auto status_s =
        receive_into(base, chain_s, app::path_mode::ilp, dest_s.span());
    ASSERT_EQ(status_s.cause, app::secure_rx_cause::ok);

    const std::size_t wire_bytes = base.wire.size();
    const std::size_t body = wire_bytes - rpc::secure_trailer_bytes;
    const std::size_t splits[] = {1,        13,       body - 3, body,
                                  body + 1, body + 4, body + 7};
    for (const std::size_t split : splits) {
        secure_fixture f(/*epoch=*/0);
        byte_buffer arena(wire_bytes + 32);
        std::byte* a = arena.data() + arena.size() - split;
        std::memcpy(a, f.wire.data(), split);
        std::memcpy(arena.data(), f.wire.data() + split, wire_bytes - split);
        const_ring_span wire_chain;
        wire_chain.first = {a, split};
        wire_chain.second = {arena.data(), wire_bytes - split};

        crypto::keychain<aead_cipher> kc(fixture_secret);
        byte_buffer dest(f.payload.size());
        rpc::reply_header header;
        app::secure_rx_status status;
        app::path_counters counters;
        const auto resolve = [&](const rpc::reply_header&,
                                 std::size_t n) -> std::span<std::byte> {
            return dest.size() >= n ? dest.span().subspan(0, n)
                                    : std::span<std::byte>{};
        };
        const auto result = app::receive_reply_ilp(
            direct_memory{},
            app::aead_framing<aead_cipher>{.window = &kc, .status = &status},
            wire_chain, resolve, &header, counters);
        EXPECT_TRUE(result.ok) << "split=" << split;
        EXPECT_EQ(status.cause, app::secure_rx_cause::ok) << "split=" << split;
        EXPECT_EQ(std::memcmp(dest.data(), f.payload.data(),
                              f.payload.size()),
                  0)
            << "split=" << split;
        EXPECT_EQ(header.request_id, 9u);
    }
}

TEST(SecureReceive, ForwardEpochIsAdoptedAfterTagVerifies) {
    secure_fixture f(/*epoch=*/3);
    crypto::keychain<aead_cipher> chain(fixture_secret);
    byte_buffer dest(f.payload.size());
    const auto status =
        receive_into(f, chain, app::path_mode::ilp, dest.span());
    EXPECT_EQ(status.cause, app::secure_rx_cause::ok);
    EXPECT_TRUE(status.adopted);
    EXPECT_EQ(chain.current_epoch(), 3u);
    EXPECT_NE(chain.cipher_for(2), nullptr);  // window re-centred on {2, 3}
}

TEST(SecureReceive, EpochBehindWindowIsExplicitSkew) {
    secure_fixture f(/*epoch=*/0);
    crypto::keychain<aead_cipher> chain(fixture_secret);
    EXPECT_TRUE(chain.adopt(3));  // window {2, 3}; epoch 0 retired
    byte_buffer dest(f.payload.size());
    const auto status =
        receive_into(f, chain, app::path_mode::ilp, dest.span());
    EXPECT_EQ(status.cause, app::secure_rx_cause::epoch_skew);
    EXPECT_STREQ(to_string(status.cause), "epoch_skew");
}

// A wrong key garbles the header before the tag is ever reached; the
// classifier must still call it tag_mismatch (by finishing the decrypt into
// a discard destination and comparing tags), never "malformed".
TEST(SecureReceive, WrongKeyIsExplicitTagMismatchBothModes) {
    for (const auto mode : {app::path_mode::ilp, app::path_mode::layered}) {
        secure_fixture f(/*epoch=*/0, 200, /*secret=*/0xbad5ec);
        crypto::keychain<aead_cipher> chain(fixture_secret);
        byte_buffer dest(f.payload.size());
        const auto status = receive_into(f, chain, mode, dest.span());
        EXPECT_EQ(status.cause, app::secure_rx_cause::tag_mismatch);
    }
}

TEST(SecureReceive, TamperedCiphertextIsTagMismatch) {
    for (const auto mode : {app::path_mode::ilp, app::path_mode::layered}) {
        secure_fixture f(/*epoch=*/0);
        f.wire.span()[rpc::reply_payload_offset + 13] ^= std::byte{0x40};
        crypto::keychain<aead_cipher> chain(fixture_secret);
        byte_buffer dest(f.payload.size());
        const auto status = receive_into(f, chain, mode, dest.span());
        EXPECT_EQ(status.cause, app::secure_rx_cause::tag_mismatch);
    }
}

TEST(SecureReceive, TamperedTrailerTagIsTagMismatch) {
    secure_fixture f(/*epoch=*/0);
    f.wire.span()[f.layout.wire_bytes + 5] ^= std::byte{1};  // tag bytes
    crypto::keychain<aead_cipher> chain(fixture_secret);
    byte_buffer dest(f.payload.size());
    const auto status =
        receive_into(f, chain, app::path_mode::ilp, dest.span());
    EXPECT_EQ(status.cause, app::secure_rx_cause::tag_mismatch);
}

// ---------------------------------------------------------------------------
// Targeted corruption (net layer)

std::size_t corrupted_index(net::corrupt_target target, std::size_t bytes) {
    virtual_clock clock;
    net::fault_config faults;
    faults.corrupt_probability = 1.0;
    faults.corrupt_span = target;
    faults.seed = 21;
    net::datagram_pipe pipe(clock, 0, faults);
    std::vector<std::byte> received;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        received.assign(p.begin(), p.end());
    });
    std::vector<std::byte> msg(bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
        msg[i] = static_cast<std::byte>(i * 7);
    }
    pipe.send(direct_memory{}, msg);
    clock.advance(1);
    EXPECT_EQ(received.size(), msg.size());
    for (std::size_t i = 0; i < bytes; ++i) {
        if (received[i] != msg[i]) return i;
    }
    ADD_FAILURE() << "no byte was corrupted";
    return bytes;
}

TEST(CorruptSpan, TargetsLandInTheirRegion) {
    constexpr std::size_t bytes = 256;
    EXPECT_LT(corrupted_index(net::corrupt_target::header, bytes), 20u);
    const std::size_t payload_hit =
        corrupted_index(net::corrupt_target::payload, bytes);
    EXPECT_GE(payload_hit, 20u);
    EXPECT_LT(payload_hit, bytes);
    EXPECT_GE(corrupted_index(net::corrupt_target::trailer_tail, bytes),
              bytes - 8);
}

TEST(CorruptSpan, PerTargetStatsAndUnchangedDrawOrder) {
    virtual_clock clock;
    net::fault_config faults;
    faults.corrupt_probability = 0.5;
    faults.drop_probability = 0.1;
    faults.seed = 33;

    // Same plan, three targets: the loss pattern (a pure function of the
    // RNG draw sequence) must be identical — targeting only remaps the
    // victim byte, it never consumes a different number of draws.
    std::array<net::pipe_stats, 3> stats;
    const net::corrupt_target targets[] = {net::corrupt_target::anywhere,
                                           net::corrupt_target::header,
                                           net::corrupt_target::trailer_tail};
    for (int t = 0; t < 3; ++t) {
        net::fault_config f = faults;
        f.corrupt_span = targets[t];
        net::datagram_pipe pipe(clock, 0, f);
        std::vector<std::byte> msg(128);
        for (int i = 0; i < 400; ++i) pipe.send(direct_memory{}, msg);
        clock.advance(1);
        stats[t] = pipe.stats();
    }
    EXPECT_EQ(stats[0].packets_dropped, stats[1].packets_dropped);
    EXPECT_EQ(stats[0].packets_dropped, stats[2].packets_dropped);
    EXPECT_EQ(stats[0].packets_corrupted, stats[1].packets_corrupted);
    EXPECT_EQ(stats[0].packets_corrupted, stats[2].packets_corrupted);
    // Per-cause rows: each targeted flip is attributed to its region.
    EXPECT_EQ(stats[0].packets_header_corrupted, 0u);
    EXPECT_EQ(stats[0].packets_tail_corrupted, 0u);
    EXPECT_EQ(stats[1].packets_header_corrupted, stats[1].packets_corrupted);
    EXPECT_EQ(stats[2].packets_tail_corrupted, stats[2].packets_corrupted);
}

// ---------------------------------------------------------------------------
// End-to-end secure transfers

app::transfer_config secure_config() {
    app::transfer_config config;
    config.file_bytes = 24 * 1024;
    config.packet_wire_bytes = 512;
    config.retry.response_timeout_us = 2'000'000;
    config.retry.max_attempts = 5;
    config.secure = true;
    config.rekey_interval_bytes = 4 * 1024;
    return config;
}

TEST(SecureTransfer, CompletesVerifiedWithRekeysBothModes) {
    for (const auto mode : {app::path_mode::ilp, app::path_mode::layered}) {
        app::transfer_config config = secure_config();
        config.mode = mode;
        const auto result = app::run_transfer_native<aead_cipher>(config);
        ASSERT_TRUE(result.completed);
        EXPECT_TRUE(result.verified);
        // The rekey interval fired several times over 24 KB of replies, and
        // the client tracked every epoch the server advanced through.
        EXPECT_GE(result.metrics.counter("crypto.rekeys"), 4u);
        EXPECT_EQ(result.metrics.counter("crypto.epoch_adoptions"),
                  result.metrics.counter("crypto.rekeys"));
        EXPECT_EQ(result.metrics.counter("crypto.tag_failures"), 0u);
        EXPECT_EQ(result.metrics.counter("crypto.epoch_skews"), 0u);
    }
}

// Wire v3 with a file whose final reply payload is not a multiple of 4, so
// that reply carries XDR padding ahead of its trailer.
TEST(SecureTransfer, NonWordSizedFilesCompleteVerifiedBothModes) {
    for (const std::size_t file_bytes :
         {std::size_t{997}, std::size_t{999}, std::size_t{1001},
          std::size_t{1026}, std::size_t{3001}, std::size_t{15359}}) {
        for (const auto mode :
             {app::path_mode::ilp, app::path_mode::layered}) {
            app::transfer_config config = secure_config();
            config.mode = mode;
            config.file_bytes = file_bytes;
            const auto result = app::run_transfer_native<aead_cipher>(config);
            ASSERT_TRUE(result.completed)
                << "mode=" << static_cast<int>(mode) << " file=" << file_bytes;
            EXPECT_TRUE(result.verified) << "file=" << file_bytes;
            EXPECT_EQ(result.payload_bytes_delivered, file_bytes);
            EXPECT_EQ(result.metrics.counter("crypto.tag_failures"), 0u);
        }
    }
}

TEST(SecureTransfer, NegotiatedDownV2FlowRunsClassicFraming) {
    app::transfer_config config = secure_config();
    config.secure_wire_version = rpc::wire_version;  // old peer
    const auto result = app::run_transfer_native<aead_cipher>(config);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.verified);
    // No trailers, epoch pinned to 0, no rekeying — but still encrypted
    // under the KDF's epoch-0 keys.
    EXPECT_EQ(result.metrics.counter("crypto.rekeys"), 0u);
    EXPECT_EQ(result.metrics.counter("crypto.epoch_adoptions"), 0u);
}

TEST(SecureTransfer, KeyMismatchFailsExplicitlyNeverSilently) {
    app::transfer_config config = secure_config();
    config.client_secret_override = 0xd15a9ee;  // endpoints disagree on keys
    const auto result = app::run_transfer_native<aead_cipher>(config);
    EXPECT_FALSE(result.completed);
    // The server rejected every request with an explicit tag mismatch; the
    // client exhausted its retry budget — an explicit failure with a
    // distinct cause, not a hang and not silent corruption.
    EXPECT_TRUE(result.recovery.gave_up);
    EXPECT_GT(result.metrics.counter("crypto.request_tag_failures"), 0u);
    EXPECT_EQ(result.payload_bytes_delivered, 0u);
}

TEST(SecureTransfer, RekeyUnderBurstLossCompletesWithoutSpuriousFailures) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        app::transfer_config config = secure_config();
        config.file_bytes = 64 * 1024;
        config.rekey_interval_bytes = 8 * 1024;
        config.forward_faults.burst.enabled = true;
        config.forward_faults.burst.p_good_to_bad = 0.05;
        config.forward_faults.burst.p_bad_to_good = 0.3;
        config.forward_faults.burst.bad_loss = 0.9;
        config.forward_faults.seed = seed;
        const auto result = app::run_transfer_native<aead_cipher>(config);
        ASSERT_TRUE(result.completed) << "seed " << seed;
        EXPECT_TRUE(result.verified) << "seed " << seed;
        EXPECT_GE(result.metrics.counter("crypto.rekeys"), 2u);
        // Retransmitted old-epoch ciphertext lands inside the key window:
        // rekeying under loss produces zero spurious rejections.
        EXPECT_EQ(result.metrics.counter("crypto.tag_failures"), 0u)
            << "seed " << seed;
        EXPECT_EQ(result.metrics.counter("crypto.epoch_skews"), 0u)
            << "seed " << seed;
    }
}

// ---------------------------------------------------------------------------
// Rekey chaos matrix: rekeying crossed with every fault family.  Exactly two
// terminal states per cell: byte-verified completion, or an explicit failure
// with a recorded recovery attempt — never a silent outcome.

struct rekey_chaos_scenario {
    const char* name;
    void (*apply)(app::transfer_config&);
};

const rekey_chaos_scenario rekey_chaos_matrix[] = {
    {"clean", [](app::transfer_config&) {}},
    {"burst_loss",
     [](app::transfer_config& c) {
         c.forward_faults.burst.enabled = true;
         c.forward_faults.burst.p_good_to_bad = 0.05;
         c.forward_faults.burst.p_bad_to_good = 0.25;
         c.forward_faults.burst.bad_loss = 0.95;
     }},
    {"ack_outage_persist",
     [](app::transfer_config& c) {
         // The ACK path dies mid-transfer: the sender's window freezes and
         // the persist/retransmit machinery carries old-epoch ciphertext
         // across the rekeys that happen after the link heals.
         c.reverse_faults.outages.push_back({1'000, 2'500'000});
     }},
    {"outage_resume",
     [](app::transfer_config& c) {
         c.file_bytes = 96 * 1024;
         c.forward_faults.outages.push_back({1'000, 2'500'000});
     }},
    {"trailer_corruption",
     [](app::transfer_config& c) {
         c.forward_faults.corrupt_probability = 0.05;
         c.forward_faults.corrupt_span = net::corrupt_target::trailer_tail;
     }},
    {"header_corruption",
     [](app::transfer_config& c) {
         c.forward_faults.corrupt_probability = 0.05;
         c.forward_faults.corrupt_span = net::corrupt_target::header;
     }},
    {"kitchen_sink",
     [](app::transfer_config& c) {
         c.forward_faults.burst.enabled = true;
         c.forward_faults.burst.p_good_to_bad = 0.05;
         c.forward_faults.burst.p_bad_to_good = 0.3;
         c.forward_faults.burst.bad_loss = 0.9;
         c.forward_faults.corrupt_probability = 0.05;
         c.forward_faults.corrupt_span = net::corrupt_target::trailer_tail;
         c.forward_faults.duplicate_probability = 0.05;
         c.reverse_faults.drop_probability = 0.05;
         c.request_forward_faults.drop_probability = 0.05;
     }},
};

class RekeyChaosMatrix
    : public ::testing::TestWithParam<std::tuple<int, app::path_mode>> {};

TEST_P(RekeyChaosMatrix, CompletesVerifiedOrFailsExplicitly) {
    const auto& [index, mode] = GetParam();
    const rekey_chaos_scenario& s = rekey_chaos_matrix[index];
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        app::transfer_config config = secure_config();
        config.mode = mode;
        s.apply(config);
        config.forward_faults.seed = seed;
        config.reverse_faults.seed = seed + 100;
        config.request_forward_faults.seed = seed + 200;
        config.request_reverse_faults.seed = seed + 300;

        const auto result = app::run_transfer_native<aead_cipher>(config);
        if (result.completed) {
            EXPECT_TRUE(result.verified) << s.name << " seed " << seed;
        } else {
            EXPECT_TRUE(result.recovery.gave_up) << s.name << " seed " << seed;
            EXPECT_GT(result.recovery.rpc_retries, 0u)
                << s.name << " seed " << seed;
            EXPECT_LT(result.elapsed_us, config.deadline_us)
                << s.name << " seed " << seed;
        }
        // Anything a corrupted trailer or body provoked was an *explicit*
        // rejection: a tag/epoch counter ticked, the data never did.
        if (result.completed) {
            EXPECT_TRUE(result.verified) << s.name << " seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPlans, RekeyChaosMatrix,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values(app::path_mode::ilp,
                                         app::path_mode::layered)),
    [](const ::testing::TestParamInfo<std::tuple<int, app::path_mode>>& p) {
        return std::string(rekey_chaos_matrix[std::get<0>(p.param)].name) +
               (std::get<1>(p.param) == app::path_mode::ilp ? "_ilp"
                                                            : "_layered");
    });

// ---------------------------------------------------------------------------
// Fleet determinism with staggered rekeying

engine::fleet_config secure_fleet_config(std::uint32_t shards,
                                         bool threaded = false) {
    engine::fleet_config cfg;
    cfg.flows = 40;
    cfg.shards = shards;
    cfg.threaded = threaded;
    cfg.defaults.file_bytes = 8 * 1024;
    cfg.defaults.packet_wire_bytes = 512;
    cfg.defaults.secure = true;
    cfg.per_flow = [](std::uint32_t f, engine::flow_config& fc) {
        // Staggered rekey cadence, plus bursty loss on a quarter of the
        // flows so retransmits cross rekey boundaries.
        fc.rekey_interval_bytes = 1024 + 512 * (f % 4);
        if (f % 4 == 0) {
            fc.forward_faults.burst.enabled = true;
            fc.forward_faults.burst.p_good_to_bad = 0.05;
            fc.forward_faults.burst.p_bad_to_good = 0.3;
            fc.forward_faults.burst.bad_loss = 1.0;
        }
    };
    return cfg;
}

TEST(SecureFleet, StaggeredRekeyFlowsAllEndExplicitly) {
    const engine::fleet_report report =
        engine::run_fleet_native<aead_cipher>(secure_fleet_config(4));
    ASSERT_EQ(report.flows.size(), 40u);
    std::uint64_t total_rekeys = 0;
    for (const engine::flow_outcome& o : report.flows) {
        const int flags = (o.completed ? 1 : 0) + (o.gave_up ? 1 : 0) +
                          (o.deadline_exceeded ? 1 : 0) +
                          (o.request_rejected ? 1 : 0) +
                          (o.ports_exhausted ? 1 : 0);
        EXPECT_EQ(flags, 1) << "flow " << o.flow_id;
        if (o.completed) {
            EXPECT_TRUE(o.verified) << "flow " << o.flow_id;
        }
        EXPECT_EQ(o.tag_failures, 0u) << "flow " << o.flow_id;
        EXPECT_EQ(o.epoch_skews, 0u) << "flow " << o.flow_id;
        total_rekeys += o.rekeys;
    }
    EXPECT_GT(total_rekeys, 40u);  // every flow rekeyed at least once
    EXPECT_EQ(report.metrics.counter("engine.crypto.rekeys"), total_rekeys);
}

TEST(SecureFleet, SameSeedSameDigestWithRekeying) {
    const auto a = engine::run_fleet_native<aead_cipher>(secure_fleet_config(2));
    const auto b = engine::run_fleet_native<aead_cipher>(secure_fleet_config(2));
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(SecureFleet, ShardCountDoesNotChangeSecureOutcomes) {
    const auto one = engine::run_fleet_native<aead_cipher>(secure_fleet_config(1));
    const auto four =
        engine::run_fleet_native<aead_cipher>(secure_fleet_config(4));
    EXPECT_EQ(one.digest(), four.digest());
}

TEST(SecureFleet, ThreadedShardsMatchSerialWithRekeying) {
    const auto serial =
        engine::run_fleet_native<aead_cipher>(secure_fleet_config(4, false));
    const auto threaded =
        engine::run_fleet_native<aead_cipher>(secure_fleet_config(4, true));
    EXPECT_EQ(serial.digest(), threaded.digest());
}

}  // namespace
}  // namespace ilp
