// Unit and property tests for the cipher suite: SAFER tables, full SAFER
// K-64, the paper's simplified SAFER, and the constant-based simple cipher.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <set>
#include <span>
#include <vector>

#include "buffer/byte_buffer.h"
#include "crypto/block_cipher.h"
#include "crypto/safer_k64.h"
#include "crypto/safer_simplified.h"
#include "crypto/safer_tables.h"
#include "crypto/simple_cipher.h"
#include "memsim/configs.h"
#include "util/rng.h"

namespace ilp::crypto {
namespace {

using key_array = std::array<std::byte, 8>;

key_array make_key(std::uint64_t seed) {
    key_array key;
    rng r(seed);
    r.fill(key);
    return key;
}

template <typename Cipher>
void expect_round_trip(const Cipher& cipher, std::uint64_t seed) {
    rng r(seed);
    memsim::direct_memory mem;
    for (int i = 0; i < 256; ++i) {
        std::byte block[8];
        r.fill(block);
        std::byte original[8];
        std::memcpy(original, block, 8);
        cipher.encrypt_block(mem, block);
        cipher.decrypt_block(mem, block);
        EXPECT_EQ(std::memcmp(block, original, 8), 0) << "iteration " << i;
    }
}

TEST(SaferTables, ExpIsPermutationAndLogInverts) {
    std::set<std::uint8_t> seen;
    for (int i = 0; i < 256; ++i) {
        seen.insert(safer_exp(static_cast<std::uint8_t>(i)));
    }
    EXPECT_EQ(seen.size(), 256u);
    for (int i = 0; i < 256; ++i) {
        const auto x = static_cast<std::uint8_t>(i);
        EXPECT_EQ(safer_log(safer_exp(x)), x);
        EXPECT_EQ(safer_exp(safer_log(x)), x);
    }
}

TEST(SaferTables, KnownAlgebraicValues) {
    // 45^0 = 1, 45^1 = 45, and the defining quirk 45^128 mod 257 = 256 = 0.
    EXPECT_EQ(safer_exp(0), 1);
    EXPECT_EQ(safer_exp(1), 45);
    EXPECT_EQ(safer_exp(128), 0);
    EXPECT_EQ(safer_log(0), 128);
    EXPECT_EQ(safer_log(1), 0);
}

TEST(SaferK64, EncryptDecryptRoundTrip) {
    const key_array key = make_key(1);
    const safer_k64 cipher({key.data(), key.size()});
    expect_round_trip(cipher, 2);
}

TEST(SaferK64, RoundTripAtEveryRoundCount) {
    const key_array key = make_key(3);
    for (unsigned rounds = 1; rounds <= safer_k64::max_rounds; ++rounds) {
        const safer_k64 cipher({key.data(), key.size()}, rounds);
        expect_round_trip(cipher, 100 + rounds);
    }
}

TEST(SaferK64, DifferentKeysGiveDifferentCiphertext) {
    const key_array k1 = make_key(4);
    const key_array k2 = make_key(5);
    const safer_k64 c1({k1.data(), k1.size()});
    const safer_k64 c2({k2.data(), k2.size()});
    std::byte b1[8] = {};
    std::byte b2[8] = {};
    memsim::direct_memory mem;
    c1.encrypt_block(mem, b1);
    c2.encrypt_block(mem, b2);
    EXPECT_NE(std::memcmp(b1, b2, 8), 0);
}

TEST(SaferK64, AvalancheOnPlaintextBitFlip) {
    // Flipping one plaintext bit should change roughly half the ciphertext
    // bits after 6 rounds; demand at least 16 of 64 on average.
    const key_array key = make_key(6);
    const safer_k64 cipher({key.data(), key.size()});
    memsim::direct_memory mem;
    rng r(7);
    int total_flips = 0;
    constexpr int trials = 64;
    for (int t = 0; t < trials; ++t) {
        std::byte a[8], b[8];
        r.fill(a);
        std::memcpy(b, a, 8);
        b[t % 8] ^= static_cast<std::byte>(1u << (t % 8));
        cipher.encrypt_block(mem, a);
        cipher.encrypt_block(mem, b);
        for (int i = 0; i < 8; ++i) {
            total_flips += std::popcount(
                std::to_integer<unsigned>(a[i] ^ b[i]));
        }
    }
    EXPECT_GT(total_flips, 16 * trials);
    EXPECT_LT(total_flips, 48 * trials);
}

TEST(SaferK64, EncryptionIsNotIdentity) {
    const key_array key = make_key(8);
    const safer_k64 cipher({key.data(), key.size()});
    memsim::direct_memory mem;
    std::byte block[8] = {};
    cipher.encrypt_block(mem, block);
    std::byte zero[8] = {};
    EXPECT_NE(std::memcmp(block, zero, 8), 0);
}

TEST(SaferK64, SimulatedTableAndKeyTraffic) {
    // Per 8-byte block and round: 8 key reads + 8 table reads + 8 key reads;
    // plus the 8 reads of the final key layer.  All 1-byte accesses.
    const key_array key = make_key(9);
    const safer_k64 cipher({key.data(), key.size()}, 6);
    memsim::memory_system sys(memsim::test_tiny());
    memsim::sim_memory mem(sys);
    std::byte block[8] = {};
    cipher.encrypt_block(mem, block);
    const auto reads = sys.data_stats().reads;
    EXPECT_EQ(reads.accesses[memsim::size_bucket(1)], 6u * 24 + 8);
    EXPECT_EQ(sys.data_stats().writes.total_accesses(), 0u);
}

TEST(SaferSimplified, RoundTrip) {
    const key_array key = make_key(10);
    const safer_simplified cipher({key.data(), key.size()});
    expect_round_trip(cipher, 11);
}

TEST(SaferSimplified, MatchesPaperStructureTraffic) {
    // The simplified cipher does exactly one key read and one table read per
    // byte (paper §3.1) — 16 single-byte reads per 8-byte unit.
    const key_array key = make_key(12);
    const safer_simplified cipher({key.data(), key.size()});
    memsim::memory_system sys(memsim::test_tiny());
    memsim::sim_memory mem(sys);
    std::byte block[8] = {};
    cipher.encrypt_block(mem, block);
    EXPECT_EQ(sys.data_stats().reads.accesses[memsim::size_bucket(1)], 16u);
    EXPECT_EQ(sys.data_stats().total_misses(),
              sys.data_stats().reads.total_misses());
}

TEST(SaferSimplified, ChangesEveryZeroBlock) {
    const key_array key = make_key(13);
    const safer_simplified cipher({key.data(), key.size()});
    memsim::direct_memory mem;
    std::byte block[8] = {};
    cipher.encrypt_block(mem, block);
    std::byte zero[8] = {};
    EXPECT_NE(std::memcmp(block, zero, 8), 0);
}

TEST(SaferSimplified, DiffersFromFullSafer) {
    const key_array key = make_key(14);
    const safer_k64 full({key.data(), key.size()});
    const safer_simplified simplified({key.data(), key.size()});
    memsim::direct_memory mem;
    std::byte a[8] = {}, b[8] = {};
    full.encrypt_block(mem, a);
    simplified.encrypt_block(mem, b);
    EXPECT_NE(std::memcmp(a, b, 8), 0);
}

// Known-answer vectors: round trips cannot catch a change that alters
// encryption and decryption consistently.  `encrypted` is encrypt_block and
// `decrypted` is decrypt_block, each applied once to `input`.  The expected
// bytes were computed with the loop-per-layer safer_simplified (before its
// kernels were written out per byte position) and the table-backed
// safer_k64 of the same tree; they were not re-derived from the code under
// test.
struct known_answer {
    std::array<std::uint8_t, 8> key;
    std::array<std::uint8_t, 8> input;
    std::array<std::uint8_t, 8> encrypted;
    std::array<std::uint8_t, 8> decrypted;
};

constexpr std::array<std::uint8_t, 8> kat_keys[] = {
    {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
    {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08},
    {0x8f, 0x3a, 0xc4, 0x5d, 0x21, 0xe9, 0x70, 0xb6},
};
constexpr std::array<std::uint8_t, 8> kat_inputs[] = {
    {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
    {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07},
    {0xff, 0xee, 0x10, 0x42, 0x99, 0x07, 0xa5, 0x5a},
};

constexpr known_answer safer_simplified_kat[] = {
    {kat_keys[0], kat_inputs[0],
     {0x82, 0x81, 0x01, 0x81, 0x82, 0x81, 0x01, 0x81},
     {0x80, 0x01, 0x01, 0x80, 0x80, 0x01, 0x01, 0x80}},
    {kat_keys[1], kat_inputs[1],
     {0x63, 0x36, 0x8c, 0x9d, 0x3e, 0x11, 0xb3, 0xf9},
     {0x31, 0xe0, 0x25, 0x64, 0x35, 0x0f, 0x21, 0x18}},
    {kat_keys[2], kat_inputs[2],
     {0x3f, 0x1f, 0xf9, 0x78, 0x98, 0xa8, 0x2f, 0x29},
     {0xb7, 0xab, 0x20, 0xf3, 0x1d, 0xaf, 0x5b, 0x4e}},
};

constexpr known_answer safer_k64_6_rounds_kat[] = {
    {kat_keys[0], kat_inputs[0],
     {0x03, 0x28, 0x08, 0xc9, 0x0e, 0xe7, 0xab, 0x7f},
     {0x9f, 0xd5, 0xc6, 0x29, 0x92, 0xef, 0x30, 0xd8}},
    {kat_keys[1], kat_inputs[1],
     {0xb0, 0x4d, 0xcd, 0x22, 0x71, 0xfd, 0x2d, 0x64},
     {0x97, 0xe9, 0x29, 0x0b, 0x61, 0x1e, 0xe6, 0xf8}},
    {kat_keys[2], kat_inputs[2],
     {0xb7, 0x8a, 0xed, 0x03, 0x2a, 0xf1, 0xf3, 0x88},
     {0xa0, 0xf0, 0x1f, 0xf4, 0x36, 0xd7, 0x12, 0xdc}},
};

template <typename MakeCipher>
void expect_known_answers(std::span<const known_answer> vectors,
                          MakeCipher make) {
    memsim::direct_memory mem;
    for (const known_answer& v : vectors) {
        const auto cipher = make(std::as_bytes(std::span(v.key)));
        std::array<std::uint8_t, 8> block = v.input;
        cipher.encrypt_block(mem, reinterpret_cast<std::byte*>(block.data()));
        EXPECT_EQ(block, v.encrypted);
        block = v.input;
        cipher.decrypt_block(mem, reinterpret_cast<std::byte*>(block.data()));
        EXPECT_EQ(block, v.decrypted);
    }
}

TEST(SaferSimplified, KnownAnswers) {
    expect_known_answers(safer_simplified_kat, [](auto key) {
        return safer_simplified(key);
    });
}

TEST(SaferK64, KnownAnswersSixRounds) {
    expect_known_answers(safer_k64_6_rounds_kat,
                         [](auto key) { return safer_k64(key, 6); });
}

// Records the address of every byte load a cipher issues, in order.
struct load_order_memory : memsim::direct_memory {
    std::vector<const std::byte*>* loads;
    std::uint8_t load_u8(const std::byte* p) const {
        loads->push_back(p);
        return direct_memory::load_u8(p);
    }
};

TEST(SaferSimplified, AccessOrderFollowsTheLayers) {
    // Encryption reads the 8 key bytes in order, then one table byte per
    // position (E for positions 0,3,4,7, L for the rest); decryption reads
    // the tables first and the key last.  The simulator's miss counts
    // depend on this order, not just on the access counts.
    const key_array key = make_key(21);
    const safer_simplified cipher({key.data(), key.size()});
    std::vector<const std::byte*> loads;
    const load_order_memory mem{{}, &loads};
    const std::byte* const exp = safer_exp_table();
    const std::byte* const log = safer_log_table();
    const auto expect_table_reads = [&](std::size_t first, bool encrypt) {
        for (std::size_t j = 0; j < 8; ++j) {
            const bool xor_position = j == 0 || j == 3 || j == 4 || j == 7;
            const std::byte* table = (xor_position == encrypt) ? exp : log;
            const std::byte* p = loads[first + j];
            EXPECT_TRUE(p >= table && p < table + 256) << "position " << j;
        }
    };
    const auto expect_key_reads = [&](std::size_t first) {
        for (std::size_t j = 1; j < 8; ++j) {
            EXPECT_EQ(loads[first + j], loads[first] + j) << "position " << j;
        }
    };
    std::byte block[8] = {};
    cipher.encrypt_block(mem, block);
    ASSERT_EQ(loads.size(), 16u);
    expect_key_reads(0);
    expect_table_reads(8, true);
    const std::byte* const key_bytes = loads[0];
    loads.clear();
    cipher.decrypt_block(mem, block);
    ASSERT_EQ(loads.size(), 16u);
    expect_table_reads(0, false);
    expect_key_reads(8);
    EXPECT_EQ(loads[8], key_bytes);
}

TEST(SimpleCipher, RoundTrip) {
    const key_array key = make_key(15);
    const simple_cipher cipher({key.data(), key.size()});
    expect_round_trip(cipher, 16);
}

TEST(SimpleCipher, TouchesNoMemoryBeyondTheUnit) {
    // The defining property for the paper's §4.1 ablation: zero counted
    // memory accesses per block.
    const key_array key = make_key(17);
    const simple_cipher cipher({key.data(), key.size()});
    memsim::memory_system sys(memsim::test_tiny());
    memsim::sim_memory mem(sys);
    std::byte block[8] = {};
    cipher.encrypt_block(mem, block);
    cipher.decrypt_block(mem, block);
    EXPECT_EQ(sys.data_stats().total_accesses(), 0u);
}

TEST(SimpleCipher, KeyDependence) {
    const key_array k1 = make_key(18);
    const key_array k2 = make_key(19);
    const simple_cipher c1({k1.data(), k1.size()});
    const simple_cipher c2({k2.data(), k2.size()});
    memsim::direct_memory mem;
    std::byte b1[8] = {}, b2[8] = {};
    c1.encrypt_block(mem, b1);
    c2.encrypt_block(mem, b2);
    EXPECT_NE(std::memcmp(b1, b2, 8), 0);
}

TEST(NullCipher, IdentityAndConceptConformance) {
    static_assert(block_cipher<null_cipher>);
    static_assert(block_cipher<safer_k64>);
    static_assert(block_cipher<safer_simplified>);
    static_assert(block_cipher<simple_cipher>);
    null_cipher cipher;
    memsim::direct_memory mem;
    std::byte block[8] = {std::byte{1}, std::byte{2}, std::byte{3},
                          std::byte{4}, std::byte{5}, std::byte{6},
                          std::byte{7}, std::byte{8}};
    std::byte original[8];
    std::memcpy(original, block, 8);
    cipher.encrypt_block(mem, block);
    EXPECT_EQ(std::memcmp(block, original, 8), 0);
}

// Parameterized property sweep: every cipher must be a bijection on blocks
// (no two plaintexts map to the same ciphertext under a fixed key).
class CipherBijection : public ::testing::TestWithParam<int> {};

TEST_P(CipherBijection, DistinctPlaintextsGiveDistinctCiphertexts) {
    const key_array key = make_key(20);
    memsim::direct_memory mem;
    std::set<std::uint64_t> outputs;
    constexpr int samples = 512;
    auto run = [&](const auto& cipher) {
        outputs.clear();
        for (int i = 0; i < samples; ++i) {
            std::byte block[8] = {};
            std::memcpy(block, &i, sizeof i);
            cipher.encrypt_block(mem, block);
            std::uint64_t v;
            std::memcpy(&v, block, 8);
            outputs.insert(v);
        }
        EXPECT_EQ(outputs.size(), static_cast<std::size_t>(samples));
    };
    switch (GetParam()) {
        case 0: run(safer_k64({key.data(), key.size()})); break;
        case 1: run(safer_simplified({key.data(), key.size()})); break;
        case 2: run(simple_cipher({key.data(), key.size()})); break;
        default: FAIL();
    }
}

INSTANTIATE_TEST_SUITE_P(AllCiphers, CipherBijection,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace ilp::crypto
