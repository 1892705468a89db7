// The paper's *simplified* SAFER-K64 (§3.1).
//
// Full SAFER K-64 (~25 Mbps at one round on a SPARCstation 10) was still too
// slow to let ILP effects show, so the authors reduced it to one layer of
// each operation type while "keeping the characteristics of the algorithm
// unchanged":
//
//   1. add/xor of each byte with the key    (reads the key),
//   2. logarithm/exponential on each byte   (reads the E/L tables),
//   3. 2-PHT(a1,a2) = (2*a1+a2, a1+a2) on each byte pair.
//
// This keeps the cache-relevant behaviour — one key read and one
// data-dependent table read per byte — at roughly 100x DES speed, which is
// exactly what made ILP gains measurable.  Decryption mirrors the three
// layers in reverse; as the paper notes it needs more intermediate values,
// which is why its cache behaviour is worse on the receive side (§4.2).
#pragma once

#include <cstdint>
#include <span>

#include "crypto/safer_k64.h"
#include "crypto/safer_tables.h"
#include "memsim/mem_policy.h"
#include "util/contracts.h"

namespace ilp::crypto {

class safer_simplified {
public:
    static constexpr std::size_t block_bytes = 8;
    static constexpr std::size_t key_bytes = 8;

    // Exp/log tables plus the single subkey row it reads per block (§4.2).
    static constexpr std::size_t table_bytes = 2 * 256 + key_bytes;

    explicit safer_simplified(std::span<const std::byte> key)
        : schedule_(key, 1) {}

    // Both directions are written out per byte position so the compiler
    // keeps the block in registers; every `mem` access stays its own
    // statement, in the layer order below, so the simulator sees the same
    // access stream as the layer-by-layer description.  SAFER's mixed
    // pattern: positions 0,3,4,7 use xor (and the E table), positions
    // 1,2,5,6 use addition (and the L table).
    template <memsim::memory_policy Mem>
    void encrypt_block(const Mem& mem, std::byte* block) const {
        const std::byte* const exp = safer_exp_table();
        const std::byte* const log = safer_log_table();
        const std::byte* const k = schedule_.subkey(0);
        // Layer 1: mixed xor/add with the key (key bytes read via `mem`).
        const std::uint8_t x0 = xor8(in8(block, 0), mem.load_u8(k + 0));
        const std::uint8_t x1 = add8(in8(block, 1), mem.load_u8(k + 1));
        const std::uint8_t x2 = add8(in8(block, 2), mem.load_u8(k + 2));
        const std::uint8_t x3 = xor8(in8(block, 3), mem.load_u8(k + 3));
        const std::uint8_t x4 = xor8(in8(block, 4), mem.load_u8(k + 4));
        const std::uint8_t x5 = add8(in8(block, 5), mem.load_u8(k + 5));
        const std::uint8_t x6 = add8(in8(block, 6), mem.load_u8(k + 6));
        const std::uint8_t x7 = xor8(in8(block, 7), mem.load_u8(k + 7));
        // Layer 2: mixed exp/log substitution (table bytes read via `mem`).
        const std::uint8_t s0 = mem.load_u8(exp + x0);
        const std::uint8_t s1 = mem.load_u8(log + x1);
        const std::uint8_t s2 = mem.load_u8(log + x2);
        const std::uint8_t s3 = mem.load_u8(exp + x3);
        const std::uint8_t s4 = mem.load_u8(exp + x4);
        const std::uint8_t s5 = mem.load_u8(log + x5);
        const std::uint8_t s6 = mem.load_u8(log + x6);
        const std::uint8_t s7 = mem.load_u8(exp + x7);
        // Layer 3: 2-PHT(a1,a2) = (2*a1+a2, a1+a2) on each pair of bytes.
        out8(block, 0, add8(add8(s0, s0), s1));
        out8(block, 1, add8(s0, s1));
        out8(block, 2, add8(add8(s2, s2), s3));
        out8(block, 3, add8(s2, s3));
        out8(block, 4, add8(add8(s4, s4), s5));
        out8(block, 5, add8(s4, s5));
        out8(block, 6, add8(add8(s6, s6), s7));
        out8(block, 7, add8(s6, s7));
    }

    template <memsim::memory_policy Mem>
    void decrypt_block(const Mem& mem, std::byte* block) const {
        const std::byte* const exp = safer_exp_table();
        const std::byte* const log = safer_log_table();
        const std::byte* const k = schedule_.subkey(0);
        // Decryption keeps more intermediate state than encryption (the
        // paper's explanation for its higher receive-side cache misses): the
        // inverse PHT needs both halves of each pair before either output
        // byte is final.
        const std::uint8_t b0 = in8(block, 0), b1 = in8(block, 1);
        const std::uint8_t b2 = in8(block, 2), b3 = in8(block, 3);
        const std::uint8_t b4 = in8(block, 4), b5 = in8(block, 5);
        const std::uint8_t b6 = in8(block, 6), b7 = in8(block, 7);
        // Inverse layer 3: IPHT(b1,b2) = (b1-b2, 2*b2-b1).
        const std::uint8_t m0 = sub8(b0, b1);
        const std::uint8_t m1 = sub8(add8(b1, b1), b0);
        const std::uint8_t m2 = sub8(b2, b3);
        const std::uint8_t m3 = sub8(add8(b3, b3), b2);
        const std::uint8_t m4 = sub8(b4, b5);
        const std::uint8_t m5 = sub8(add8(b5, b5), b4);
        const std::uint8_t m6 = sub8(b6, b7);
        const std::uint8_t m7 = sub8(add8(b7, b7), b6);
        // Inverse layer 2: log undoes exp and vice versa.
        const std::uint8_t t0 = mem.load_u8(log + m0);
        const std::uint8_t t1 = mem.load_u8(exp + m1);
        const std::uint8_t t2 = mem.load_u8(exp + m2);
        const std::uint8_t t3 = mem.load_u8(log + m3);
        const std::uint8_t t4 = mem.load_u8(log + m4);
        const std::uint8_t t5 = mem.load_u8(exp + m5);
        const std::uint8_t t6 = mem.load_u8(exp + m6);
        const std::uint8_t t7 = mem.load_u8(log + m7);
        // Inverse layer 1 (all key reads before the block is written).
        const std::uint8_t o0 = xor8(t0, mem.load_u8(k + 0));
        const std::uint8_t o1 = sub8(t1, mem.load_u8(k + 1));
        const std::uint8_t o2 = sub8(t2, mem.load_u8(k + 2));
        const std::uint8_t o3 = xor8(t3, mem.load_u8(k + 3));
        const std::uint8_t o4 = xor8(t4, mem.load_u8(k + 4));
        const std::uint8_t o5 = sub8(t5, mem.load_u8(k + 5));
        const std::uint8_t o6 = sub8(t6, mem.load_u8(k + 6));
        const std::uint8_t o7 = xor8(t7, mem.load_u8(k + 7));
        out8(block, 0, o0);
        out8(block, 1, o1);
        out8(block, 2, o2);
        out8(block, 3, o3);
        out8(block, 4, o4);
        out8(block, 5, o5);
        out8(block, 6, o6);
        out8(block, 7, o7);
    }

private:
    static ILP_ALWAYS_INLINE std::uint8_t in8(const std::byte* block,
                                              std::size_t j) {
        return std::to_integer<std::uint8_t>(block[j]);
    }
    static ILP_ALWAYS_INLINE void out8(std::byte* block, std::size_t j,
                                       std::uint8_t v) {
        block[j] = static_cast<std::byte>(v);
    }
    static ILP_ALWAYS_INLINE std::uint8_t add8(std::uint8_t a,
                                               std::uint8_t b) {
        return static_cast<std::uint8_t>(a + b);
    }
    static ILP_ALWAYS_INLINE std::uint8_t sub8(std::uint8_t a,
                                               std::uint8_t b) {
        return static_cast<std::uint8_t>(a - b);
    }
    static ILP_ALWAYS_INLINE std::uint8_t xor8(std::uint8_t a,
                                               std::uint8_t b) {
        return static_cast<std::uint8_t>(a ^ b);
    }

    safer_k64 schedule_;  // reuses the SAFER key schedule (subkey 0)
};

}  // namespace ilp::crypto
