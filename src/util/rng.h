// Deterministic pseudo-random number generator (splitmix64 + xoshiro256**).
//
// Used for workload generation (file contents), fault injection in the
// datagram substrate, and property-test input generation.  Self-contained so
// results never depend on the standard library's unspecified distributions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "util/endian.h"

namespace ilp {

// Deterministically combines a base seed with a stream id (splitmix64-style
// finalizer over the pair).  Every per-flow RNG in the multi-flow engine is
// seeded with derive_seed(base, flow_id), so a flow's random stream (file
// contents, key material, fault coins) depends only on the base seed and its
// own id — never on scheduling order or shard assignment.
constexpr std::uint64_t derive_seed(std::uint64_t base,
                                    std::uint64_t stream) noexcept {
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

class rng {
public:
    explicit rng(std::uint64_t seed) noexcept {
        // splitmix64 seeding, as recommended by the xoshiro authors.
        std::uint64_t x = seed;
        for (auto& word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    std::uint64_t next_u64() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    std::uint32_t next_u32() noexcept {
        return static_cast<std::uint32_t>(next_u64() >> 32);
    }

    // Uniform in [0, bound); bound must be > 0.  Uses rejection sampling to
    // avoid modulo bias.
    std::uint64_t next_below(std::uint64_t bound) noexcept {
        const std::uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const std::uint64_t r = next_u64();
            if (r >= threshold) return r % bound;
        }
    }

    // Uniform double in [0, 1).
    double next_double() noexcept {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    bool next_bool(double probability_true) noexcept {
        return next_double() < probability_true;
    }

    // Each draw fills 8 bytes, least significant byte first.  Whole draws
    // are stored a word at a time: a byte-at-a-time loop made filling a
    // large file cost several times more, and its speed swung with where
    // the linker happened to place the loop.
    void fill(std::span<std::byte> out) noexcept {
        std::size_t i = 0;
        for (; i + 8 <= out.size(); i += 8) {
            std::uint64_t v = next_u64();
            if constexpr (!host_is_little_endian()) v = byteswap64(v);
            std::memcpy(out.data() + i, &v, 8);
        }
        if (i < out.size()) {
            std::uint64_t v = next_u64();
            for (; i < out.size(); ++i) {
                out[i] = static_cast<std::byte>(v & 0xff);
                v >>= 8;
            }
        }
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

}  // namespace ilp
