// Gather sources and scatter destinations for the fused ILP loop.
//
// Marshalling in a stub-compiler stack is not a uniform transform: an
// outgoing message is assembled from segments — already-encoded header
// words, integer fields that need host->XDR conversion, opaque payload that
// is copied verbatim, and alignment bytes that are generated, not read
// (paper Fig. 2).  A `gather_source` describes exactly that, and its cursor
// *is* the marshalling stage of the fused loop: it reads each application
// word once (through the memory policy, so the simulator sees it) and
// deposits the XDR wire form directly into loop scratch.
//
// The receive side mirrors it: a `scatter_dest` routes decrypted wire words
// to application fields (converting XDR ints back to host form), drops
// padding, and writes each destination byte exactly once.
//
// The loop moves units run by run (stream_units below): while a unit lies
// inside one source segment and one destination segment it is read and
// written by a loop specialised on the two segment ops.  The cursors'
// per-unit fill/drain now serve only units that straddle a segment
// boundary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "buffer/ring_buffer.h"
#include "memsim/mem_policy.h"
#include "util/contracts.h"
#include "util/endian.h"
#include "util/fixed_vector.h"

namespace ilp::core {

// How a segment's bytes are transformed between application form and wire
// form as they stream through the loop.
enum class segment_op : std::uint8_t {
    copy,       // opaque data / already-encoded bytes
    xdr_words,  // 32-bit host integers <-> XDR big-endian words
    zeros,      // generated alignment/padding bytes (no memory on this side)
};

struct gather_segment {
    const std::byte* data = nullptr;  // null for zeros
    std::size_t len = 0;
    segment_op op = segment_op::copy;
};

struct scatter_segment {
    std::byte* data = nullptr;  // null for discard (zeros on receive = drop)
    std::size_t len = 0;
    segment_op op = segment_op::copy;
};

inline constexpr std::size_t max_segments = 8;

class gather_source {
public:
    gather_source() = default;

    gather_source& add(std::span<const std::byte> data,
                       segment_op op = segment_op::copy) {
        ILP_EXPECT(op != segment_op::zeros);
        ILP_EXPECT(op != segment_op::xdr_words || data.size() % 4 == 0);
        segments_.push_back({data.data(), data.size(), op});
        return *this;
    }

    gather_source& add_zeros(std::size_t len) {
        segments_.push_back({nullptr, len, segment_op::zeros});
        return *this;
    }

    std::size_t total_size() const noexcept {
        std::size_t n = 0;
        for (const auto& s : segments_) n += s.len;
        return n;
    }

    // Sub-range [offset, offset+len).  Cuts inside xdr_words segments must
    // fall on word boundaries or the word transform would tear.
    gather_source slice(std::size_t offset, std::size_t len) const;

    std::span<const gather_segment> segments() const noexcept {
        return {segments_.data(), segments_.size()};
    }

    // Internal: append a pre-validated segment (slice() uses it).
    void append_raw(const gather_segment& s) { segments_.push_back(s); }

private:
    fixed_vector<gather_segment, max_segments> segments_;
};

class scatter_dest {
public:
    scatter_dest() = default;

    scatter_dest& add(std::span<std::byte> data,
                      segment_op op = segment_op::copy) {
        ILP_EXPECT(op != segment_op::zeros);
        ILP_EXPECT(op != segment_op::xdr_words || data.size() % 4 == 0);
        segments_.push_back({data.data(), data.size(), op});
        return *this;
    }

    // Bytes to drop (padding, already-consumed header space).
    scatter_dest& add_discard(std::size_t len) {
        segments_.push_back({nullptr, len, segment_op::zeros});
        return *this;
    }

    std::size_t total_size() const noexcept {
        std::size_t n = 0;
        for (const auto& s : segments_) n += s.len;
        return n;
    }

    scatter_dest slice(std::size_t offset, std::size_t len) const;

    std::span<const scatter_segment> segments() const noexcept {
        return {segments_.data(), segments_.size()};
    }

    // Internal: append a pre-validated segment (slice() uses it).
    void append_raw(const scatter_segment& s) { segments_.push_back(s); }

private:
    fixed_vector<scatter_segment, max_segments> segments_;
};

// ---------------------------------------------------------------------------
// Segment transforms: the accesses that read (write) n bytes lying inside
// one segment into (out of) loop scratch.  The cursors' fill/drain and the
// run-wise loop below share them, so a unit issues the same access stream
// whichever of the two moves it.

template <segment_op Op, memsim::memory_policy Mem>
ILP_ALWAYS_INLINE void read_segment_bytes(const Mem& mem, const std::byte* p,
                                          std::byte* scratch, std::size_t n) {
    if constexpr (Op == segment_op::zeros) {
        std::memset(scratch, 0, n);
    } else if constexpr (Op == segment_op::copy) {
        // Read in the widest units available — the loop's single read of
        // each datum should use the full memory path.
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            const std::uint64_t v = mem.load_u64(p + i);
            std::memcpy(scratch + i, &v, 8);
        }
        for (; i + 4 <= n; i += 4) {
            const std::uint32_t v = mem.load_u32(p + i);
            std::memcpy(scratch + i, &v, 4);
        }
        for (; i < n; ++i) {
            scratch[i] = static_cast<std::byte>(mem.load_u8(p + i));
        }
    } else {
        for (std::size_t i = 0; i < n; i += 4) {
            const std::uint32_t v = host_to_be32(mem.load_u32(p + i));
            std::memcpy(scratch + i, &v, 4);
        }
    }
}

template <segment_op Op, memsim::memory_policy Mem>
ILP_ALWAYS_INLINE void write_segment_bytes(const Mem& mem, std::byte* p,
                                           const std::byte* scratch,
                                           std::size_t n) {
    if constexpr (Op == segment_op::zeros) {
        // Discarded (receive-side padding): nothing is written.
    } else if constexpr (Op == segment_op::copy) {
        // Write in the widest units available (paper §2.2: one 8-byte store
        // per cipher block instead of two 4-byte ones is the point of
        // exchanging LCM-sized units).
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            std::uint64_t v;
            std::memcpy(&v, scratch + i, 8);
            mem.store_u64(p + i, v);
        }
        for (; i + 4 <= n; i += 4) {
            std::uint32_t v;
            std::memcpy(&v, scratch + i, 4);
            mem.store_u32(p + i, v);
        }
        for (; i < n; ++i) {
            mem.store_u8(p + i, std::to_integer<std::uint8_t>(scratch[i]));
        }
    } else {
        for (std::size_t i = 0; i < n; i += 4) {
            std::uint32_t v;
            std::memcpy(&v, scratch + i, 4);
            mem.store_u32(p + i, be32_to_host(v));
        }
    }
}

// Calls f.template operator()<op>() with the segment_op as a constant, so
// a loop templated on it switches once, outside the loop.
template <typename F>
ILP_ALWAYS_INLINE void with_segment_op(segment_op op, F&& f) {
    switch (op) {
        case segment_op::copy:
            f.template operator()<segment_op::copy>();
            return;
        case segment_op::xdr_words:
            f.template operator()<segment_op::xdr_words>();
            return;
        case segment_op::zeros:
            f.template operator()<segment_op::zeros>();
            return;
    }
}

// ---------------------------------------------------------------------------
// Cursors.  run() is the contiguous remainder of the current segment (its
// data pointer, length and op) and skip(n) consumes n bytes of it; the
// fused loop moves whole units through such runs.  fill/drain assemble a
// unit that straddles a segment boundary piecewise, segment by segment.

class gather_cursor {
public:
    explicit gather_cursor(const gather_source& src) : src_(&src) {}

    std::size_t remaining() const noexcept {
        std::size_t n = 0;
        const auto segs = src_->segments();
        for (std::size_t i = seg_; i < segs.size(); ++i) n += segs[i].len;
        return n - seg_pos_;
    }

    // The rest of the current segment; empty once the source is exhausted.
    gather_segment run() const noexcept {
        const auto segs = src_->segments();
        if (seg_ == segs.size()) return {};
        const gather_segment& s = segs[seg_];
        return {s.data == nullptr ? nullptr : s.data + seg_pos_,
                s.len - seg_pos_, s.op};
    }

    // Consumes n bytes of run().
    void skip(std::size_t n) {
        const auto segs = src_->segments();
        ILP_EXPECT(seg_ < segs.size() && n <= segs[seg_].len - seg_pos_);
        seg_pos_ += n;
        if (seg_pos_ == segs[seg_].len) {
            ++seg_;
            seg_pos_ = 0;
        }
    }

    // Reads the next n bytes into `scratch` (direct stores: scratch is the
    // loop's register set), applying each segment's transform.  Reads from
    // segment memory go through `mem`.
    template <memsim::memory_policy Mem>
    void fill(const Mem& mem, std::byte* scratch, std::size_t n) {
        for (std::size_t out = 0; out < n;) {
            ILP_EXPECT(seg_ < src_->segments().size());
            const gather_segment s = run();
            const std::size_t take = std::min(n - out, s.len);
            ILP_EXPECT(s.op != segment_op::xdr_words ||
                       (seg_pos_ % 4 == 0 && take % 4 == 0));
            with_segment_op(s.op, [&]<segment_op Op>() {
                read_segment_bytes<Op>(mem, s.data, scratch + out, take);
            });
            out += take;
            skip(take);
        }
    }

private:
    const gather_source* src_;
    std::size_t seg_ = 0;
    std::size_t seg_pos_ = 0;
};

class scatter_cursor {
public:
    explicit scatter_cursor(const scatter_dest& dst) : dst_(&dst) {}

    // The rest of the current segment; empty once the destination is full.
    scatter_segment run() const noexcept {
        const auto segs = dst_->segments();
        if (seg_ == segs.size()) return {};
        const scatter_segment& s = segs[seg_];
        return {s.data == nullptr ? nullptr : s.data + seg_pos_,
                s.len - seg_pos_, s.op};
    }

    // Consumes n bytes of run().
    void skip(std::size_t n) {
        const auto segs = dst_->segments();
        ILP_EXPECT(seg_ < segs.size() && n <= segs[seg_].len - seg_pos_);
        seg_pos_ += n;
        if (seg_pos_ == segs[seg_].len) {
            ++seg_;
            seg_pos_ = 0;
        }
    }

    // Writes the next n bytes from `scratch` out to the destination
    // segments (stores through `mem`), applying each segment's transform.
    template <memsim::memory_policy Mem>
    void drain(const Mem& mem, const std::byte* scratch, std::size_t n) {
        for (std::size_t in = 0; in < n;) {
            ILP_EXPECT(seg_ < dst_->segments().size());
            const scatter_segment s = run();
            const std::size_t take = std::min(n - in, s.len);
            ILP_EXPECT(s.op != segment_op::xdr_words ||
                       (seg_pos_ % 4 == 0 && take % 4 == 0));
            with_segment_op(s.op, [&]<segment_op Op>() {
                write_segment_bytes<Op>(mem, s.data, scratch + in, take);
            });
            in += take;
            skip(take);
        }
    }

private:
    const scatter_dest* dst_;
    std::size_t seg_ = 0;
    std::size_t seg_pos_ = 0;
};

// ---------------------------------------------------------------------------
// The loop traversal (paper Fig. 1), shared by fused_pipeline and
// dynamic_pipeline: streams n bytes from src to dst in units of `unit`
// bytes, each read into scratch, handed to proc.process_unit(mem, scratch)
// and written out.  `Unit` is a std::integral_constant when the unit size
// is known at compile time, a std::size_t otherwise; MaxUnit bounds it.
//
// Units move run by run: while the current source and destination
// segments both hold k >= 1 whole units, a loop specialised on the two
// segment ops moves them with no per-unit segment bookkeeping.  Per unit it
// issues exactly what fill/stages/drain issue for a unit inside one segment
// — the unit's loads, then the stage's accesses, then its stores — so the
// memory simulator's access stream is the per-unit one.  Only a unit that
// straddles a segment boundary takes the cursors' fill/drain.

template <segment_op In, segment_op Out, std::size_t MaxUnit,
          memsim::memory_policy Mem, typename Unit, typename Proc>
void stream_run(const Mem& mem, const std::byte* in, std::byte* out,
                std::size_t k, Unit unit, Proc& proc) {
    alignas(8) std::byte scratch[MaxUnit];
    for (std::size_t u = 0; u < k; ++u) {
        read_segment_bytes<In>(mem, in, scratch, unit);
        proc.process_unit(mem, scratch);
        write_segment_bytes<Out>(mem, out, scratch, unit);
        if constexpr (In != segment_op::zeros) in += unit;
        if constexpr (Out != segment_op::zeros) out += unit;
    }
}

template <std::size_t MaxUnit, memsim::memory_policy Mem, typename Unit,
          typename Proc>
void stream_units(const Mem& mem, gather_cursor& src, scatter_cursor& dst,
                  std::size_t n, Unit unit, Proc& proc) {
    ILP_EXPECT(unit <= MaxUnit && n % unit == 0);
    for (std::size_t off = 0; off < n;) {
        const gather_segment in = src.run();
        const scatter_segment out = dst.run();
        const std::size_t k = std::min({in.len, out.len, n - off}) / unit;
        if (k == 0) {
            alignas(8) std::byte scratch[MaxUnit];
            src.fill(mem, scratch, unit);
            proc.process_unit(mem, scratch);
            dst.drain(mem, scratch, unit);
            off += unit;
            continue;
        }
        with_segment_op(in.op, [&]<segment_op InOp>() {
            with_segment_op(out.op, [&]<segment_op OutOp>() {
                stream_run<InOp, OutOp, MaxUnit>(mem, in.data, out.data, k,
                                                 unit, proc);
            });
        });
        src.skip(k * unit);
        dst.skip(k * unit);
        off += k * unit;
    }
}

}  // namespace ilp::core
