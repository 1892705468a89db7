// Direct unit tests of the receive-side data paths: every rejection branch
// must still return the correct full-ciphertext checksum (so TCP can
// verdict the segment), and both implementations must agree bit-for-bit.
#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>

#include "app/receive_path.h"
#include "app/send_path.h"
#include "crypto/aead.h"
#include "crypto/kdf.h"
#include "crypto/safer_simplified.h"
#include "memsim/configs.h"
#include "rpc/messages.h"
#include "util/endian.h"
#include "util/rng.h"

namespace ilp::app {
namespace {

using memsim::direct_memory;

// One fixture per wire framing, built by the real ILP fill.  v2 sends under
// a bare block cipher; v3 under the epoch-0 key of a keychain, with the
// clear [epoch | tag] trailer, and receives through that keychain's window.
template <bool V3>
struct framed_fixture {
    std::array<std::byte, 8> key;
    crypto::safer_simplified cipher;
    crypto::keychain<crypto::aead_cipher> chain{0x5eed};
    std::vector<std::byte> payload;
    byte_buffer wire;
    rpc::reply_layout layout;

    explicit framed_fixture(std::size_t payload_bytes = 200)
        : key(make_key()),
          cipher(key),
          payload(payload_bytes),
          wire(rpc::layout_reply(payload_bytes).wire_bytes +
               (V3 ? rpc::secure_trailer_bytes : 0)),
          layout(rpc::layout_reply(payload_bytes)) {
        rng r(7);
        r.fill(payload);
        rpc::reply_header header;
        header.request_id = 9;
        header.copy_index = 0;
        header.offset = 0;
        header.total_bytes = static_cast<std::uint32_t>(payload_bytes);
        rpc::reply_staging staging;
        const auto src = rpc::make_reply_source(header, payload, staging);
        fill_message_ilp(direct_memory{}, keys(), src, layout.plan,
                         ring_span{wire.span(), {}});
    }

    // The key argument of both ends: the bare cipher, or the v3 framing
    // (send under the window's current key, receive through the window).
    decltype(auto) keys() {
        if constexpr (V3) {
            return aead_framing<crypto::aead_cipher>{
                &chain.current(), chain.current_epoch(), &chain, nullptr};
        } else {
            return static_cast<const crypto::safer_simplified&>(cipher);
        }
    }

    static std::array<std::byte, 8> make_key() {
        std::array<std::byte, 8> k;
        rng r(1);
        r.fill(k);
        return k;
    }

    // Reference checksum of the (possibly mutated) wire, trailer included.
    std::uint16_t wire_sum() const {
        checksum::inet_accumulator acc;
        acc.add_bytes(direct_memory{}, wire.span(), 2);
        return acc.folded();
    }
};

using fixture = framed_fixture<false>;

// Runs `check` once per wire framing: check(std::bool_constant<V3>{}).
template <typename Check>
void for_each_framing(Check&& check) {
    {
        SCOPED_TRACE("wire v2");
        check(std::false_type{});
    }
    {
        SCOPED_TRACE("wire v3");
        check(std::true_type{});
    }
}

template <bool V3, typename Path>
tcp::rx_process_result run_path(framed_fixture<V3>& f, Path&& path,
                                std::span<std::byte> dest,
                                rpc::reply_header* header_out,
                                path_counters& counters) {
    const auto resolve = [&](const rpc::reply_header&,
                             std::size_t n) -> std::span<std::byte> {
        return dest.size() >= n ? dest.subspan(0, n) : std::span<std::byte>{};
    };
    return path(direct_memory{}, f.keys(), f.wire.span(), resolve,
                header_out, counters);
}

auto ilp_path = [](auto&&... args) {
    return receive_reply_ilp(std::forward<decltype(args)>(args)...);
};
auto layered_path = [](auto&&... args) {
    return receive_reply_layered(std::forward<decltype(args)>(args)...);
};

TEST(ReceivePath, HappyPathBothModes) {
    for (const bool use_ilp : {true, false}) {
        fixture f;
        byte_buffer dest(f.payload.size());
        rpc::reply_header header;
        path_counters counters;
        const std::uint16_t expected_sum = f.wire_sum();
        const auto result =
            use_ilp ? run_path(f, ilp_path, dest.span(), &header, counters)
                    : run_path(f, layered_path, dest.span(), &header, counters);
        EXPECT_TRUE(result.ok);
        EXPECT_EQ(result.payload_sum, expected_sum);
        EXPECT_EQ(header.request_id, 9u);
        EXPECT_EQ(std::memcmp(dest.data(), f.payload.data(), f.payload.size()),
                  0);
        EXPECT_EQ(counters.messages, 1u);
        EXPECT_EQ(counters.payload_bytes, f.payload.size());
    }
}

TEST(ReceivePath, CorruptLengthFieldRejectsButChecksumStaysRight) {
    for (const bool use_ilp : {true, false}) {
        fixture f;
        // Flip ciphertext bits in the first block (where the length lives);
        // decryption now yields garbage length.
        f.wire.data()[1] ^= std::byte{0x5a};
        const std::uint16_t expected_sum = f.wire_sum();
        byte_buffer dest(f.payload.size());
        path_counters counters;
        const auto result =
            use_ilp
                ? run_path(f, ilp_path, dest.span(), nullptr, counters)
                : run_path(f, layered_path, dest.span(), nullptr, counters);
        EXPECT_FALSE(result.ok) << (use_ilp ? "ilp" : "layered");
        // The checksum must cover the *whole* (corrupt) ciphertext so the
        // TCP final stage can reject the segment properly.
        EXPECT_EQ(result.payload_sum, expected_sum);
    }
}

TEST(ReceivePath, ResolverRejectionFailsCleanly) {
    for (const bool use_ilp : {true, false}) {
        fixture f;
        const std::uint16_t expected_sum = f.wire_sum();
        path_counters counters;
        const auto reject_all = [](const rpc::reply_header&,
                                   std::size_t) -> std::span<std::byte> {
            return {};
        };
        const auto result =
            use_ilp ? receive_reply_ilp(direct_memory{}, f.cipher,
                                        f.wire.span(), reject_all, nullptr,
                                        counters)
                    : receive_reply_layered(direct_memory{}, f.cipher,
                                            f.wire.span(), reject_all, nullptr,
                                            counters);
        EXPECT_FALSE(result.ok);
        EXPECT_EQ(result.payload_sum, expected_sum);
        EXPECT_EQ(counters.messages, 0u);
    }
}

TEST(ReceivePath, RuntAndUnalignedWiresFail) {
    for (const bool use_ilp : {true, false}) {
        fixture f;
        path_counters counters;
        byte_buffer dest(16);
        // Runt: shorter than the minimum reply.
        auto short_span = f.wire.subspan(0, 16);
        const auto resolve = [&](const rpc::reply_header&,
                                 std::size_t) -> std::span<std::byte> {
            return dest.span();
        };
        const auto result =
            use_ilp ? receive_reply_ilp(direct_memory{}, f.cipher, short_span,
                                        resolve, nullptr, counters)
                    : receive_reply_layered(direct_memory{}, f.cipher,
                                            short_span, resolve, nullptr,
                                            counters);
        EXPECT_FALSE(result.ok);
    }
}

TEST(ReceivePath, IlpAndLayeredAgreeOnEveryBitAndCounter) {
    for_each_framing([]<bool V3>(std::bool_constant<V3>) {
        framed_fixture<V3> f1(333), f2(333);
        byte_buffer dest1(333), dest2(333);
        rpc::reply_header h1, h2;
        path_counters c1, c2;
        const auto r1 = run_path(f1, ilp_path, dest1.span(), &h1, c1);
        const auto r2 = run_path(f2, layered_path, dest2.span(), &h2, c2);
        EXPECT_TRUE(r1.ok);
        EXPECT_EQ(r1.ok, r2.ok);
        EXPECT_EQ(r1.payload_sum, r2.payload_sum);
        EXPECT_EQ(r1.payload_sum, f1.wire_sum());
        EXPECT_EQ(std::memcmp(dest1.data(), dest2.data(), 333), 0);
        EXPECT_EQ(std::memcmp(dest1.data(), f1.payload.data(), 333), 0);
        EXPECT_EQ(h1.offset, h2.offset);
        EXPECT_EQ(c1.messages, c2.messages);
        EXPECT_EQ(c1.payload_bytes, c2.payload_bytes);
        EXPECT_EQ(c1.wire_bytes, c2.wire_bytes);
        EXPECT_EQ(c1.cipher_bytes, c2.cipher_bytes);
        // ILP does everything in the fused loop; layered in separate passes.
        EXPECT_GT(c1.fused_loop_bytes, 0u);
        EXPECT_EQ(c1.cipher_pass_bytes, 0u);
        EXPECT_EQ(c2.fused_loop_bytes, 0u);
        EXPECT_GT(c2.cipher_pass_bytes, 0u);
        EXPECT_GT(c2.checksum_pass_bytes, 0u);
    });
}

// Stages a wire image as a two-piece chain split at `split` bytes,
// mimicking the ring-wrap loan datagram_pipe hands out (the arena's tail
// holds the first piece, its head the second).
struct chain_stage {
    byte_buffer arena;
    const_ring_span chain;

    chain_stage(std::span<const std::byte> wire, std::size_t split)
        : arena(wire.size() + 32) {
        std::byte* a = arena.data() + arena.size() - split;
        std::memcpy(a, wire.data(), split);
        std::memcpy(arena.data(), wire.data() + split, wire.size() - split);
        chain.first = {a, split};
        chain.second = {arena.data(), wire.size() - split};
    }
};

TEST(ReceivePath, ChainMatchesSpanBitForBitAtManySplits) {
    for_each_framing([]<bool V3>(std::bool_constant<V3>) {
        framed_fixture<V3> span_f(200);
        byte_buffer dest_s(200);
        rpc::reply_header h_s;
        path_counters c_s;
        const auto r_s = run_path(span_f, ilp_path, dest_s.span(), &h_s, c_s);
        ASSERT_TRUE(r_s.ok);

        // Splits inside the header, the payload, at the body/trailer
        // boundary and inside the v3 trailer.
        const std::size_t wire_bytes = span_f.wire.size();
        const std::size_t body = span_f.layout.wire_bytes;
        const std::size_t splits[] = {1,  3,  5,  8,  21, 24, 32,
                                      wire_bytes / 2 + 1, body - 3,
                                      wire_bytes - 3, wire_bytes - 1};
        for (const std::size_t split : splits) {
            framed_fixture<V3> f(200);
            chain_stage st(f.wire.span(), split);
            byte_buffer dest(200);
            rpc::reply_header h;
            path_counters c;
            const auto resolve = [&](const rpc::reply_header&,
                                     std::size_t n) -> std::span<std::byte> {
                return dest.span().subspan(0, n);
            };
            const auto r = receive_reply_ilp(direct_memory{}, f.keys(),
                                             st.chain, resolve, &h, c);
            EXPECT_EQ(r.ok, r_s.ok) << "split=" << split;
            EXPECT_EQ(r.payload_sum, r_s.payload_sum) << "split=" << split;
            EXPECT_EQ(std::memcmp(dest.data(), dest_s.data(), 200), 0)
                << "split=" << split;
            EXPECT_EQ(h.request_id, h_s.request_id);
            EXPECT_EQ(h.offset, h_s.offset);
            EXPECT_EQ(c.messages, c_s.messages);
            EXPECT_EQ(c.payload_bytes, c_s.payload_bytes);
            EXPECT_EQ(c.fused_loop_bytes, c_s.fused_loop_bytes);
            EXPECT_EQ(c.checksum_pass_bytes, c_s.checksum_pass_bytes);
            EXPECT_EQ(c.cipher_pass_bytes, c_s.cipher_pass_bytes);
        }
    });
}

TEST(ReceivePath, ChainRejectionMatchesSpanChecksum) {
    // A corrupted wire must be rejected with the same full-wire checksum
    // whether it arrives contiguous or as a wrap-straddling chain.
    for_each_framing([]<bool V3>(std::bool_constant<V3>) {
        framed_fixture<V3> span_f(200);
        span_f.wire.data()[1] ^= std::byte{0x5a};
        path_counters c_s;
        byte_buffer dest_s(200);
        const auto r_s =
            run_path(span_f, ilp_path, dest_s.span(), nullptr, c_s);
        ASSERT_FALSE(r_s.ok);
        EXPECT_EQ(r_s.payload_sum, span_f.wire_sum());

        framed_fixture<V3> f(200);
        f.wire.data()[1] ^= std::byte{0x5a};
        chain_stage st(f.wire.span(), 13);
        path_counters c;
        byte_buffer dest(200);
        const auto resolve = [&](const rpc::reply_header&,
                                 std::size_t n) -> std::span<std::byte> {
            return dest.span().subspan(0, n);
        };
        const auto r = receive_reply_ilp(direct_memory{}, f.keys(), st.chain,
                                         resolve, nullptr, c);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.payload_sum, r_s.payload_sum);
        EXPECT_EQ(c.checksum_pass_bytes, c_s.checksum_pass_bytes);
        EXPECT_EQ(c.fused_loop_bytes, c_s.fused_loop_bytes);
    });
}

TEST(ReceivePath, SimulatedIlpTouchesLessMemory) {
    fixture f1(996), f2(996);
    memsim::memory_system sys1(memsim::supersparc_with_l2());
    memsim::memory_system sys2(memsim::supersparc_with_l2());
    byte_buffer dest1(996), dest2(996);
    path_counters c1, c2;
    const auto resolve1 = [&](const rpc::reply_header&,
                              std::size_t n) -> std::span<std::byte> {
        return dest1.subspan(0, n);
    };
    const auto resolve2 = [&](const rpc::reply_header&,
                              std::size_t n) -> std::span<std::byte> {
        return dest2.subspan(0, n);
    };
    const auto r1 =
        receive_reply_ilp(memsim::sim_memory(sys1), f1.cipher, f1.wire.span(),
                          resolve1, nullptr, c1);
    const auto r2 = receive_reply_layered(memsim::sim_memory(sys2), f2.cipher,
                                          f2.wire.span(), resolve2, nullptr,
                                          c2);
    ASSERT_TRUE(r1.ok && r2.ok);
    EXPECT_LT(sys1.data_stats().total_accesses(),
              sys2.data_stats().total_accesses());
    // The layered path reads the wire 3x (checksum, decrypt, unmarshal) and
    // writes it once; ILP reads once.  Difference ~= 3 passes of ~1 KB.
    const std::uint64_t diff = sys2.data_stats().reads.total_bytes() -
                               sys1.data_stats().reads.total_bytes();
    EXPECT_GE(diff, 2u * 1000);
}

}  // namespace
}  // namespace ilp::app
