// Adversarial-input tests: the XDR reader and the RPC unmarshallers must
// survive arbitrary byte streams without crashing, reading out of bounds,
// or accepting structurally impossible messages; and whole mutated TCP
// segments must end in an explicit verdict on every data path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "app/receive_path.h"
#include "app/send_path.h"
#include "buffer/byte_buffer.h"
#include "crypto/aead.h"
#include "crypto/kdf.h"
#include "crypto/safer_simplified.h"
#include "net/datagram.h"
#include "rpc/messages.h"
#include "rpc/trailer.h"
#include "tcp/connection.h"
#include "tcp/header.h"
#include "util/endian.h"
#include "util/rng.h"
#include "xdr/xdr.h"

namespace ilp {
namespace {

TEST(XdrFuzz, RandomBytesNeverCrashTheReader) {
    rng r(1);
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<std::byte> junk(r.next_below(64));
        r.fill(junk);
        xdr::reader reader(junk);
        // Drive a representative decode sequence; whatever happens, the
        // reader must stay in bounds and report via ok().
        reader.get_u32();
        reader.get_string(32);
        reader.get_i32_array(16);
        reader.get_opaque(32);
        reader.get_bool();
        reader.get_u64();
        if (reader.ok()) {
            EXPECT_LE(reader.position(), junk.size());
        }
    }
}

TEST(XdrFuzz, TruncationAtEveryPointIsDetected) {
    // A valid encoded message, truncated at every possible length: decoding
    // must either succeed on the full prefix structure or set !ok, never
    // read past the end.
    std::vector<std::byte> buf(128);
    xdr::writer w(buf);
    w.put_u32(7).put_string("filename.bin").put_i32_array({{1, 2, 3}});
    ASSERT_TRUE(w.ok());
    const std::size_t full = w.position();

    for (std::size_t cut = 0; cut < full; ++cut) {
        xdr::reader r({buf.data(), cut});
        r.get_u32();
        r.get_string(64);
        r.get_i32_array(8);
        EXPECT_FALSE(r.ok()) << "cut at " << cut;
    }
    xdr::reader r({buf.data(), full});
    EXPECT_EQ(r.get_u32(), 7u);
    EXPECT_EQ(r.get_string(64), "filename.bin");
    EXPECT_EQ(r.get_i32_array(8), (std::vector<std::int32_t>{1, 2, 3}));
    EXPECT_TRUE(r.ok());
}

TEST(RpcFuzz, RandomWiresNeverParseAsRequests) {
    rng r(2);
    int accepted = 0;
    for (int trial = 0; trial < 1000; ++trial) {
        std::vector<std::byte> junk(8 * (1 + r.next_below(16)));
        r.fill(junk);
        if (rpc::unmarshal_request(junk).has_value()) ++accepted;
    }
    // A random wire must virtually never satisfy length + type + structure.
    EXPECT_EQ(accepted, 0);
}

TEST(RpcFuzz, BitflippedValidRequestIsMostlyRejected) {
    rpc::file_request request;
    request.request_id = 3;
    request.filename = "data.bin";
    request.copy_count = 2;
    request.max_reply_payload = 512;
    alignas(8) std::byte wire[128];
    const auto len = rpc::marshal_request(request, wire);
    ASSERT_TRUE(len.has_value());

    rng r(3);
    int structural_bytes_accepted = 0;
    // Flips in *structural* bytes — the encryption-header length word, the
    // msg_type word and the string length word — must always be rejected;
    // flips in free value fields (ids, counts, filename characters) are
    // legitimately still parseable.
    const auto is_structural = [](std::size_t offset) {
        return offset < 12 /* length + type + wire version */ ||
               (offset >= 16 && offset < 20) /* filename length word */;
    };
    constexpr int trials = 500;
    for (int t = 0; t < trials; ++t) {
        std::byte mutated[128];
        std::memcpy(mutated, wire, *len);
        const std::size_t at = r.next_below(*len);
        mutated[at] ^= static_cast<std::byte>(1u << r.next_below(8));
        const bool parsed =
            rpc::unmarshal_request({mutated, *len}).has_value();
        if (parsed && is_structural(at)) ++structural_bytes_accepted;
    }
    EXPECT_EQ(structural_bytes_accepted, 0);
}

TEST(RpcFuzz, HeaderDecodersRejectRandomBlocks) {
    rng r(4);
    int trailer_hits = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        std::byte block[8];
        r.fill(block);
        if (rpc::read_trailer(block, 64).has_value()) ++trailer_hits;
        (void)rpc::decode_reply_header(
            std::span<const std::byte>{block, 8});  // must not crash
    }
    // The trailer magic makes random acceptance ~2^-32.
    EXPECT_EQ(trailer_hits, 0);
}

// ---------------------------------------------------------------------------
// Whole-wire mutation fuzzer.
//
// A valid reply or request segment (TCP header + wire image, built by the
// real ILP fill) is mutated and delivered through
// tcp_receiver::on_segment as a two-piece loan, with the application's
// receive path installed the way file_transfer.h installs it: the chain
// processor in ILP mode, the staged span processor in layered mode.  Each
// mutated image runs twice, with the TCP checksum left stale and with it
// recomputed (an attacker's segment, not line noise).  Every run must end
// in exactly one explicit verdict.  Under wire v3 no run may deliver a
// changed wire image as `ok`: the tag must catch what a recomputed
// checksum no longer does.
//
// Not generated: permutations of whole 8-byte units.  The AEAD model's tag
// is a commutative sum over units by design (crypto/aead.h, DESIGN.md §5e),
// so a swap of two units passes the tag; that limit belongs to the cipher
// model, not to the data path under test.

using memsim::direct_memory;

enum class wire_kind { reply, request };
enum class mutation { bit_flip, overwrite, truncate, extend };

// What one delivered segment ended as.
enum class verdict {
    accepted,
    app_rejected,
    checksum_rejected,
    header_rejected,
    sequence_dropped,
    reset,
    bare_ack,
    none,
};

constexpr std::uint64_t fuzz_secret = 0xf022;
constexpr std::uint32_t fuzz_request_id = 5;
constexpr std::size_t fuzz_file_bytes = 203;

// Both ends' keys for one (framing, direction): v2 runs a bare block
// cipher; v3 the reply direction's keychain window or the request
// direction's control key.  Fresh per run, so no run sees another's
// adopted epoch.
struct fuzz_keys {
    crypto::safer_simplified v2_cipher{std::array<std::byte, 8>{
        std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4},
        std::byte{5}, std::byte{6}, std::byte{7}, std::byte{8}}};
    crypto::keychain<crypto::aead_cipher> window{fuzz_secret};
    crypto::aead_cipher control =
        crypto::derive_control_cipher<crypto::aead_cipher>(fuzz_secret);
    app::secure_rx_status status;

    app::aead_framing<crypto::aead_cipher> v3(wire_kind kind) {
        if (kind == wire_kind::reply) {
            return {&window.current(), window.current_epoch(), &window,
                    &status};
        }
        return {&control, 0, nullptr, &status};
    }
};

// Calls fn(keys) with the key argument of the chosen framing.
template <typename Fn>
auto with_framing(fuzz_keys& k, bool v3, wire_kind kind, Fn&& fn) {
    if (v3) return fn(k.v3(kind));
    return fn(k.v2_cipher);
}

std::vector<std::byte> file_bytes() {
    std::vector<std::byte> f(fuzz_file_bytes);
    rng(41).fill(f);
    return f;
}

// Rewrites the checksum field to match the segment as it now stands.
void recompute_checksum(const tcp::connection_config& cfg,
                        std::vector<std::byte>& seg) {
    if (seg.size() < tcp::header_bytes) return;
    store_be16(seg.data() + 16, 0);
    checksum::inet_accumulator acc;
    acc.add_bytes(direct_memory{},
                  std::span<const std::byte>(seg).subspan(tcp::header_bytes),
                  2);
    store_be16(seg.data() + 16,
               tcp::finish_segment_checksum(
                   cfg.remote_addr, cfg.local_addr,
                   std::span(seg).first(tcp::header_bytes), acc.folded(),
                   seg.size() - tcp::header_bytes));
}

// The valid segment: header + wire image from the real send fill.
std::vector<std::byte> valid_segment(const tcp::connection_config& cfg,
                                     bool v3, wire_kind kind) {
    fuzz_keys keys;
    std::vector<std::byte> wire;
    const auto fill = [&](const core::gather_source& src,
                          const core::message_plan& plan) {
        wire.resize(plan.total_bytes + (v3 ? rpc::secure_trailer_bytes : 0));
        with_framing(keys, v3, kind, [&](const auto& k) {
            return app::fill_message_ilp(direct_memory{}, k, src, plan,
                                         ring_span{wire, {}});
        });
    };
    const std::vector<std::byte> file = file_bytes();
    if (kind == wire_kind::reply) {
        rpc::reply_header h;
        h.request_id = fuzz_request_id;
        h.total_bytes = static_cast<std::uint32_t>(file.size());
        rpc::reply_staging staging;
        fill(rpc::make_reply_source(h, file, staging),
             rpc::layout_reply(file.size()).plan);
    } else {
        rpc::file_request request;
        request.request_id = fuzz_request_id;
        request.filename = "fuzz.bin";
        request.version =
            v3 ? rpc::wire_version_secure : rpc::wire_version;
        alignas(8) std::byte image[256];
        const std::size_t len = rpc::marshal_request(request, image).value();
        core::gather_source src;
        src.add({image, len});
        fill(src, core::plan_parts(
                      rpc::validate_enc_header(load_be32(image), len).value()));
    }

    tcp::header_fields h;
    h.src_port = cfg.remote_port;
    h.dst_port = cfg.local_port;
    h.seq = cfg.initial_seq;
    h.control = tcp::flags::psh;
    std::vector<std::byte> seg(tcp::header_bytes + wire.size());
    tcp::serialize_header(h, std::span(seg).first(tcp::header_bytes));
    std::copy(wire.begin(), wire.end(), seg.begin() + tcp::header_bytes);
    recompute_checksum(cfg, seg);
    return seg;
}

void mutate(rng& r, mutation m, std::vector<std::byte>& seg) {
    switch (m) {
        case mutation::bit_flip:
            for (std::size_t i = 0, n = 1 + r.next_below(3); i < n; ++i) {
                seg[r.next_below(seg.size())] ^=
                    static_cast<std::byte>(1u << r.next_below(8));
            }
            break;
        case mutation::overwrite: {
            const std::size_t at = r.next_below(seg.size());
            const std::size_t n =
                std::min<std::size_t>(1 + r.next_below(4), seg.size() - at);
            r.fill(std::span(seg).subspan(at, n));
            break;
        }
        case mutation::truncate:
            seg.resize(r.next_below(seg.size()));
            break;
        case mutation::extend: {
            const std::size_t old = seg.size();
            seg.resize(old + 1 + r.next_below(24));
            r.fill(std::span(seg).subspan(old));
            break;
        }
    }
}

// Whether a mutation changed what the receiver decrypts: any wire byte
// after the TCP header, except the v3 request trailer's epoch word.  Requests
// run under the epoch-free control key and carry their epoch inside the
// tag-covered body, so the trailer copy is informational and rewriting it
// changes no plaintext.  (A reply's trailer epoch selects the key, so there
// every byte counts.)
bool plaintext_changed(bool v3, wire_kind kind,
                       std::span<const std::byte> valid,
                       std::span<const std::byte> seg) {
    if (seg.size() != valid.size()) return true;
    const std::size_t epoch_at = valid.size() - rpc::secure_trailer_bytes;
    for (std::size_t i = tcp::header_bytes; i < seg.size(); ++i) {
        const bool informational = v3 && kind == wire_kind::request &&
                                   i >= epoch_at && i < epoch_at + 4;
        if (seg[i] != valid[i] && !informational) return true;
    }
    return false;
}

// Delivers `seg` as a loan split at `split` to a fresh receiver running the
// chosen data path and reports the verdict.
verdict deliver(const tcp::connection_config& cfg, app::path_mode mode,
                bool v3, wire_kind kind, std::span<const std::byte> seg,
                std::size_t split) {
    virtual_clock clock;
    net::datagram_pipe ack_pipe(clock, 100);
    tcp::tcp_receiver<direct_memory> rx(direct_memory{}, clock, ack_pipe,
                                        cfg);
    fuzz_keys keys;
    app::path_counters counters;
    std::vector<std::byte> dest(fuzz_file_bytes);
    byte_buffer staging(net::datagram_pipe::max_packet_bytes);
    const auto process = [&](const auto& payload) {
        return with_framing(keys, v3, kind, [&](const auto& k) {
            if (kind == wire_kind::request) {
                return app::receive_request(mode, direct_memory{}, k, payload,
                                            staging.span(), counters);
            }
            const auto resolve = [&](const rpc::reply_header& h,
                                     std::size_t n) -> std::span<std::byte> {
                if (h.request_id != fuzz_request_id ||
                    h.total_bytes != dest.size() ||
                    h.offset > dest.size() || n > dest.size() - h.offset) {
                    return {};
                }
                return std::span(dest).subspan(h.offset, n);
            };
            rpc::reply_header header;
            return app::receive_reply(mode, direct_memory{}, k, payload,
                                      resolve, &header, counters);
        });
    };
    rx.set_processor([&](std::span<std::byte> p) { return process(p); });
    if (mode == app::path_mode::ilp) {
        rx.set_chain_processor(
            [&](const const_ring_span& p) { return process(p); });
    }
    bool accepted = false;
    rx.set_accept_handler([&](std::size_t len) {
        accepted = true;
        if (kind == wire_kind::request) {
            const std::size_t trailer = v3 ? rpc::secure_trailer_bytes : 0;
            (void)rpc::unmarshal_request(staging.subspan(0, len - trailer));
        }
    });

    byte_buffer arena(seg.size() + 16);
    std::byte* a = arena.data() + arena.size() - split;
    if (split > 0) std::memcpy(a, seg.data(), split);
    if (seg.size() > split) {
        std::memcpy(arena.data(), seg.data() + split, seg.size() - split);
    }
    rx.on_segment(const_ring_span{{a, split},
                                  {arena.data(), seg.size() - split}});

    const tcp::receiver_stats& s = rx.stats();
    const std::uint64_t decided =
        s.header_failures + s.rsts_received + s.bad_rsts + s.duplicate_drops +
        s.out_of_order_drops + s.checksum_failures + s.messages_accepted;
    if (decided > 1) return verdict::none;
    if (s.header_failures != 0) return verdict::header_rejected;
    if (s.rsts_received + s.bad_rsts != 0) return verdict::reset;
    if (s.duplicate_drops + s.out_of_order_drops != 0) {
        return verdict::sequence_dropped;
    }
    if (s.checksum_failures != 0) return verdict::checksum_rejected;
    if (s.messages_accepted != 0) {
        return accepted ? verdict::accepted : verdict::app_rejected;
    }
    if (s.acks_sent == 1 && seg.size() == tcp::header_bytes) {
        return verdict::bare_ack;
    }
    return verdict::none;
}

TEST(WireFuzz, MutatedSegmentsEndInExplicitVerdictsAndV3NeverAcceptsChanges) {
    const tcp::connection_config cfg;
    constexpr int trials_per_cell = 200;
    // Counters that keep the fuzzer honest: the v3 property must be
    // exercised (changed wires reaching the data path and rejected), and
    // the same check must bite where there is no tag (v2).
    std::size_t v3_changed_rejected_by_app = 0;
    std::size_t v2_changed_accepted = 0;
    std::size_t stale_checksum_rejected = 0;
    rng r(0xf022);
    for (const bool v3 : {false, true}) {
        for (const wire_kind kind : {wire_kind::reply, wire_kind::request}) {
            const std::vector<std::byte> valid = valid_segment(cfg, v3, kind);
            for (const app::path_mode mode :
                 {app::path_mode::ilp, app::path_mode::layered}) {
                SCOPED_TRACE(std::string(v3 ? "v3 " : "v2 ") +
                             (kind == wire_kind::reply ? "reply " : "request ") +
                             (mode == app::path_mode::ilp ? "ilp" : "layered"));
                ASSERT_EQ(deliver(cfg, mode, v3, kind, valid, 7),
                          verdict::accepted);
                for (const mutation m :
                     {mutation::bit_flip, mutation::overwrite,
                      mutation::truncate, mutation::extend}) {
                    for (int t = 0; t < trials_per_cell; ++t) {
                        std::vector<std::byte> seg = valid;
                        mutate(r, m, seg);
                        const bool changed =
                            plaintext_changed(v3, kind, valid, seg);
                        for (const bool recomputed : {false, true}) {
                            if (recomputed) recompute_checksum(cfg, seg);
                            const std::size_t split =
                                r.next_below(seg.size() + 1);
                            const verdict v =
                                deliver(cfg, mode, v3, kind, seg, split);
                            ASSERT_NE(v, verdict::none)
                                << "mutation " << static_cast<int>(m)
                                << " trial " << t;
                            if (v3) {
                                EXPECT_FALSE(changed && v == verdict::accepted)
                                    << "v3 accepted a changed wire image, "
                                       "mutation "
                                    << static_cast<int>(m) << " trial " << t;
                                if (changed && v == verdict::app_rejected) {
                                    ++v3_changed_rejected_by_app;
                                }
                            } else if (changed && v == verdict::accepted) {
                                ++v2_changed_accepted;
                            }
                            if (!recomputed &&
                                v == verdict::checksum_rejected) {
                                ++stale_checksum_rejected;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(v3_changed_rejected_by_app, 0u);
    EXPECT_GT(v2_changed_accepted, 0u);
    EXPECT_GT(stale_checksum_rejected, 0u);
}

}  // namespace
}  // namespace ilp
