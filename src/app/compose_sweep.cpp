#include "app/compose_sweep.h"

#include <array>
#include <cstring>
#include <functional>
#include <optional>
#include <span>

#include "analysis/compose.h"
#include "app/compose_models.h"
#include "app/early_send.h"
#include "core/dynamic_pipeline.h"
#include "core/fused_pipeline.h"
#include "core/layered_path.h"
#include "core/word_filter.h"
#include "memsim/mem_policy.h"

namespace ilp::app {

namespace {

using mem_t = memsim::direct_memory;

// Deterministic pseudo-random bytes (xorshift) — no global entropy, so the
// sweep is reproducible run to run.
std::vector<std::byte> make_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull;
    for (std::byte& b : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<std::byte>(x & 0xffu);
    }
    return v;
}

template <typename Cipher>
Cipher make_cipher() {
    if constexpr (std::is_same_v<Cipher, crypto::null_cipher>) {
        return crypto::null_cipher{};
    } else {
        const std::vector<std::byte> key =
            make_bytes(Cipher::key_bytes, 0xC0FFEEull);
        return Cipher{std::span<const std::byte>(key)};
    }
}

// Every observable the two executions must agree on.
struct tap_values {
    std::uint16_t inet8 = 0;  // always-on TCP checksum tap
    std::uint16_t inet2 = 0;  // optional 2-byte-unit tap
    std::uint32_t crc = 0;    // optional CRC-32 tap
    std::uint32_t tag = 0;    // AEAD tag (secure v3 runs)
};

struct exec_result {
    bool outputs_match = false;
    bool taps_match = false;
};

// Holds AEAD stage slots only when the cipher supports them — naming
// aead_*_stage<Cipher> for a non-AEAD cipher would violate its constraint.
template <typename Cipher, bool = crypto::aead_capable<Cipher>>
struct aead_stage_slots {
    std::optional<core::aead_encrypt_stage<Cipher>> enc;
    std::optional<core::aead_decrypt_stage<Cipher>> dec;
};
template <typename Cipher>
struct aead_stage_slots<Cipher, false> {};

bool taps_agree(const tap_values& f, const tap_values& l, compose_tap tap,
                bool aead) {
    bool t = f.inet8 == l.inet8;
    if (tap == compose_tap::inet2) t = t && f.inet2 == l.inet2;
    if (tap == compose_tap::crc32) t = t && f.crc == l.crc;
    if (aead) t = t && f.tag == l.tag;
    return t;
}

// One differential run of a block-stage composition.  The fused side drives
// a dynamic_pipeline (the runtime-assembled analogue of the fused loop) over
// the message parts in the composed schedule; the layered side applies each
// stage as a full linear pass over its own copy — the reference a correct
// fusion must be bit-identical to.
template <crypto::block_cipher Cipher>
exec_result execute_block_case(const Cipher& cipher, bool secure,
                               compose_tap tap, compose_schedule sched) {
    mem_t mem;
    const core::message_plan plan = core::plan_parts(compose_marshalled_bytes);
    const std::vector<std::byte> input = make_bytes(plan.total_bytes, 7);
    std::vector<std::byte> fused_out(plan.total_bytes);
    std::vector<std::byte> layered_out(plan.total_bytes);
    const bool decrypting = sched == compose_schedule::receive;
    tap_values f;
    tap_values l;

    {
        checksum::inet_accumulator acc8;
        checksum::inet_accumulator acc2;
        checksum::crc32 crc;
        crypto::aead_tag_accumulator tag;
        core::checksum_tap8 tap8(acc8);
        core::checksum_tap2 tap2(acc2);
        core::crc32_tap crct(crc);
        core::encrypt_stage<Cipher> enc(cipher);
        core::decrypt_stage<Cipher> dec(cipher);
        aead_stage_slots<Cipher> aead;
        core::dynamic_pipeline<mem_t> pipe;
        const auto add_cipher_stage = [&] {
            if constexpr (crypto::aead_capable<Cipher>) {
                if (secure) {
                    if (decrypting) {
                        aead.dec.emplace(cipher, tag);
                        pipe.add_stage(*aead.dec);
                    } else {
                        aead.enc.emplace(cipher, tag);
                        pipe.add_stage(*aead.enc);
                    }
                    return;
                }
            }
            if (decrypting) {
                pipe.add_stage(dec);
            } else {
                pipe.add_stage(enc);
            }
        };
        if (decrypting) {
            pipe.add_stage(tap8);
            add_cipher_stage();
        } else {
            add_cipher_stage();
            pipe.add_stage(tap8);
        }
        if (tap == compose_tap::inet2) pipe.add_stage(tap2);
        if (tap == compose_tap::crc32) pipe.add_stage(crct);

        const auto parts = sched == compose_schedule::send_bca
                               ? plan.ilp_order()
                               : plan.linear_order();
        for (const core::message_part& p : parts) {
            if (p.empty()) continue;
            pipe.run(mem,
                     core::span_source(std::span<const std::byte>(input)
                                           .subspan(p.offset, p.len)),
                     core::span_dest(std::span<std::byte>(fused_out)
                                         .subspan(p.offset, p.len)));
        }
        f = {acc8.folded(), acc2.folded(), crc.value(), tag.fold()};
    }

    {
        std::memcpy(layered_out.data(), input.data(), input.size());
        const std::span<std::byte> buf(layered_out);
        checksum::inet_accumulator acc8;
        checksum::inet_accumulator acc2;
        checksum::crc32 crc;
        crypto::aead_tag_accumulator tag;
        const auto tap8_pass = [&] {
            core::checksum_tap8 t(acc8);
            core::apply_stage_in_place(mem, t, buf);
        };
        const auto cipher_pass = [&] {
            if constexpr (crypto::aead_capable<Cipher>) {
                if (secure) {
                    if (decrypting) {
                        core::aead_decrypt_stage<Cipher> s(cipher, tag);
                        core::apply_stage_in_place(mem, s, buf);
                    } else {
                        core::aead_encrypt_stage<Cipher> s(cipher, tag);
                        core::apply_stage_in_place(mem, s, buf);
                    }
                    return;
                }
            }
            if (decrypting) {
                core::decrypt_stage<Cipher> s(cipher);
                core::apply_stage_in_place(mem, s, buf);
            } else {
                core::encrypt_stage<Cipher> s(cipher);
                core::apply_stage_in_place(mem, s, buf);
            }
        };
        if (decrypting) {
            tap8_pass();
            cipher_pass();
        } else {
            cipher_pass();
            tap8_pass();
        }
        if (tap == compose_tap::inet2) {
            core::checksum_tap2 t(acc2);
            core::apply_stage_in_place(mem, t, buf);
        }
        if (tap == compose_tap::crc32) {
            core::crc32_tap t(crc);
            core::apply_stage_in_place(mem, t, buf);
        }
        l = {acc8.folded(), acc2.folded(), crc.value(), tag.fold()};
    }

    exec_result r;
    r.outputs_match = fused_out == layered_out;
    r.taps_match =
        taps_agree(f, l, tap,
                   secure && crypto::aead_capable<Cipher>);
    return r;
}

// rc4 is stateful (keystream position), so each execution gets its own
// instance keyed identically; the fused side consumes keystream in part
// order, the layered side strictly linearly — which is exactly the R1
// divergence on the B,C,A schedule.
exec_result execute_rc4_case(compose_tap tap, compose_schedule sched) {
    mem_t mem;
    const core::message_plan plan = core::plan_parts(compose_marshalled_bytes);
    const std::vector<std::byte> input = make_bytes(plan.total_bytes, 7);
    const std::vector<std::byte> key = make_bytes(16, 0xC0FFEEull);
    std::vector<std::byte> fused_out(plan.total_bytes);
    std::vector<std::byte> layered_out(plan.total_bytes);
    const bool decrypting = sched == compose_schedule::receive;
    tap_values f;
    tap_values l;

    {
        checksum::inet_accumulator acc8;
        checksum::inet_accumulator acc2;
        checksum::crc32 crc;
        crypto::rc4 stream{std::span<const std::byte>(key)};
        crypto::rc4_stage rcs(stream);
        core::checksum_tap8 tap8(acc8);
        core::checksum_tap2 tap2(acc2);
        core::crc32_tap crct(crc);
        core::dynamic_pipeline<mem_t> pipe;
        if (decrypting) {
            pipe.add_stage(tap8);
            pipe.add_stage(rcs);
        } else {
            pipe.add_stage(rcs);
            pipe.add_stage(tap8);
        }
        if (tap == compose_tap::inet2) pipe.add_stage(tap2);
        if (tap == compose_tap::crc32) pipe.add_stage(crct);
        const auto parts = sched == compose_schedule::send_bca
                               ? plan.ilp_order()
                               : plan.linear_order();
        for (const core::message_part& p : parts) {
            if (p.empty()) continue;
            pipe.run(mem,
                     core::span_source(std::span<const std::byte>(input)
                                           .subspan(p.offset, p.len)),
                     core::span_dest(std::span<std::byte>(fused_out)
                                         .subspan(p.offset, p.len)));
        }
        f = {acc8.folded(), acc2.folded(), crc.value(), 0};
    }

    {
        std::memcpy(layered_out.data(), input.data(), input.size());
        const std::span<std::byte> buf(layered_out);
        checksum::inet_accumulator acc8;
        checksum::inet_accumulator acc2;
        checksum::crc32 crc;
        crypto::rc4 stream{std::span<const std::byte>(key)};
        crypto::rc4_stage rcs(stream);
        core::checksum_tap8 tap8(acc8);
        if (decrypting) {
            core::apply_stage_in_place(mem, tap8, buf);
            core::apply_stage_in_place(mem, rcs, buf);
        } else {
            core::apply_stage_in_place(mem, rcs, buf);
            core::apply_stage_in_place(mem, tap8, buf);
        }
        if (tap == compose_tap::inet2) {
            core::checksum_tap2 t(acc2);
            core::apply_stage_in_place(mem, t, buf);
        }
        if (tap == compose_tap::crc32) {
            core::crc32_tap t(crc);
            core::apply_stage_in_place(mem, t, buf);
        }
        l = {acc8.folded(), acc2.folded(), crc.value(), 0};
    }

    exec_result r;
    r.outputs_match = fused_out == layered_out;
    r.taps_match = taps_agree(f, l, tap, false);
    return r;
}

// ---------------------------------------------------------------------------
// Word-filter chains (Abbott & Peterson shape)

constexpr std::size_t word_case_bytes = 1024;

template <crypto::block_cipher Cipher>
analysis::stage_graph word_chain_graph(const Cipher& cipher, bool with_xdr,
                                       bool encrypting) {
    // Throwaway chain, assembled only so the graph carries the *live*
    // footprint declarations (the word-filter footprints are virtual).
    checksum::inet_accumulator acc;
    std::vector<std::byte> dummy(word_case_bytes);
    core::xdr_word_filter<mem_t> xdr;
    core::cipher_word_filter<mem_t, Cipher, true> enc(cipher);
    core::cipher_word_filter<mem_t, Cipher, false> dec(cipher);
    core::checksum_word_filter<mem_t> ck(acc);
    core::sink_word_filter<mem_t> sink(dummy);
    core::word_filter<mem_t>* cipher_f =
        encrypting ? static_cast<core::word_filter<mem_t>*>(&enc) : &dec;
    core::word_filter<mem_t>* head = cipher_f;
    if (with_xdr) {
        xdr.set_next(cipher_f);
        head = &xdr;
    }
    cipher_f->set_next(&ck);
    ck.set_next(&sink);

    analysis::stage_graph g;
    g.name = std::string("word/") + cipher_label<Cipher>() +
             (with_xdr ? "/xdr" : "") + (encrypting ? "/encrypt" : "/decrypt");
    g.site = "app/compose_sweep.cpp:word_chain_graph";
    g.side = encrypting ? analysis::graph_side::send
                        : analysis::graph_side::receive;
    g.kind = analysis::pipeline_kind::word_chain;
    g.parts = {{0, word_case_bytes}};
    for (const analysis::footprint& fp : core::chain_footprints(*head)) {
        g.nodes.push_back({fp});
    }
    return g;
}

template <crypto::block_cipher Cipher>
exec_result execute_word_case(const Cipher& cipher, bool with_xdr,
                              bool encrypting) {
    mem_t mem;
    const std::vector<std::byte> input = make_bytes(word_case_bytes, 11);
    std::vector<std::byte> chain_out(word_case_bytes);
    std::vector<std::byte> layered_out(word_case_bytes);
    tap_values f;
    tap_values l;

    {
        checksum::inet_accumulator acc;
        core::xdr_word_filter<mem_t> xdr;
        core::cipher_word_filter<mem_t, Cipher, true> enc(cipher);
        core::cipher_word_filter<mem_t, Cipher, false> dec(cipher);
        core::checksum_word_filter<mem_t> ck(acc);
        core::sink_word_filter<mem_t> sink(chain_out);
        core::word_filter<mem_t>* cipher_f =
            encrypting ? static_cast<core::word_filter<mem_t>*>(&enc) : &dec;
        core::word_filter<mem_t>* head = cipher_f;
        if (with_xdr) {
            xdr.set_next(cipher_f);
            head = &xdr;
        }
        cipher_f->set_next(&ck);
        ck.set_next(&sink);
        core::feed_words(mem, *head, input);
        if (sink.bytes_written() != word_case_bytes) {
            return {};  // chain lost words: unconditional mismatch
        }
        f.inet8 = acc.folded();
    }

    {
        std::memcpy(layered_out.data(), input.data(), input.size());
        const std::span<std::byte> buf(layered_out);
        checksum::inet_accumulator acc;
        if (with_xdr) {
            core::xdr_encode_stage x;
            core::apply_stage_in_place(mem, x, buf);
        }
        if (encrypting) {
            core::encrypt_stage<Cipher> s(cipher);
            core::apply_stage_in_place(mem, s, buf);
        } else {
            core::decrypt_stage<Cipher> s(cipher);
            core::apply_stage_in_place(mem, s, buf);
        }
        core::checksum_pass(mem, acc, buf, 8);
        l.inet8 = acc.folded();
    }

    exec_result r;
    r.outputs_match = chain_out == layered_out;
    r.taps_match = f.inet8 == l.inet8;
    return r;
}

// ---------------------------------------------------------------------------
// Classification: hold each verdict to the differential truth.

void record_case(compose_sweep_report& rep, const analysis::stage_graph& g,
                 bool expect_r1, bool expect_r2,
                 const std::function<exec_result()>& exec) {
    const analysis::verdict v = analysis::compose_and_check(g);
    compose_case c;
    c.name = g.name;
    c.hash = v.hash;
    c.legal = v.legal;
    c.rule = v.rule;
    c.offender = v.offender;
    const bool expected_legal = !expect_r1 && !expect_r2;
    c.mismatch_expected = expect_r1;

    if (v.legal != expected_legal) {
        if (v.legal) {
            ++rep.accepted;
            ++rep.miscomputations;
            c.status = std::string("accepted, but the sweep model expects ") +
                       (expect_r1 ? "R1-ordering" : "R2-header-size");
        } else {
            ++rep.rejected;
            ++rep.unexplained_rejections;
            c.status = "rejected (" + v.rule +
                       ") but the sweep model expects this graph to be legal";
        }
    } else if (!v.legal) {
        ++rep.rejected;
        const char* want = expect_r1 ? "R1-ordering" : "R2-header-size";
        if (v.rule != want) {
            ++rep.unexplained_rejections;
            c.status = "rejected under '" + v.rule + "' where '" + want +
                       "' was expected";
        } else if (expect_r1) {
            // R1 graphs are executable — run them and require the predicted
            // out-of-order divergence to actually appear.
            const exec_result r = exec();
            c.executed = true;
            ++rep.executed;
            c.outputs_match = r.outputs_match;
            c.taps_match = r.taps_match;
            if (r.outputs_match && r.taps_match) {
                ++rep.unexplained_rejections;
                c.status =
                    "rejected (R1-ordering) but the differential run did "
                    "not diverge";
            } else {
                c.ok = true;
                c.status = "rejected (R1-ordering: " + v.offender +
                           "); divergence confirmed by execution";
            }
        } else {
            // R2 trailer mismatches are not executable (there is no stage
            // to fill — or consume — the reservation); the named rule and
            // offender are the explanation.
            c.ok = true;
            c.status = "rejected (R2-header-size: " + v.offender +
                       "); unexecutable by construction";
        }
    } else {
        ++rep.accepted;
        const exec_result r = exec();
        c.executed = true;
        ++rep.executed;
        c.outputs_match = r.outputs_match;
        c.taps_match = r.taps_match;
        if (r.outputs_match && r.taps_match) {
            c.ok = true;
            c.status = "accepted; fused == layered, bit-identical";
        } else {
            ++rep.miscomputations;
            c.status = std::string("accepted but the differential run "
                                   "diverged (outputs ") +
                       (r.outputs_match ? "match" : "differ") + ", taps " +
                       (r.taps_match ? "match" : "differ") + ")";
        }
    }
    rep.cases.push_back(std::move(c));
}

constexpr std::array<compose_schedule, 3> all_schedules = {
    compose_schedule::send_bca, compose_schedule::send_linear,
    compose_schedule::receive};
constexpr std::array<compose_tap, 3> all_taps = {
    compose_tap::none, compose_tap::inet2, compose_tap::crc32};

template <typename Cipher>
void sweep_block_family(compose_sweep_report& rep) {
    const Cipher cipher = make_cipher<Cipher>();
    for (int framing = 0; framing < 2; ++framing) {
        const bool v3 = framing == 1;
        secure_params params;
        params.enabled = v3;
        params.flow_secret = 0x5ec0u;
        for (const compose_schedule sched : all_schedules) {
            for (const compose_tap tap : all_taps) {
                const analysis::stage_graph g =
                    flow_graph<Cipher>(params, tap, sched);
                const bool r1 = sched == compose_schedule::send_bca &&
                                tap == compose_tap::crc32;
                const bool r2 = v3 && !crypto::aead_capable<Cipher>;
                const bool secure_exec = v3 && crypto::aead_capable<Cipher>;
                record_case(rep, g, r1, r2, [&] {
                    return execute_block_case(cipher, secure_exec, tap,
                                              sched);
                });
            }
        }
    }
}

void sweep_rc4_family(compose_sweep_report& rep) {
    for (int framing = 0; framing < 2; ++framing) {
        const bool v3 = framing == 1;
        secure_params params;
        params.enabled = v3;
        params.flow_secret = 0x5ec0u;
        for (const compose_schedule sched : all_schedules) {
            for (const compose_tap tap : all_taps) {
                const analysis::stage_graph g =
                    flow_graph<crypto::rc4>(params, tap, sched);
                // rc4 itself is ordering-constrained, so *any* B,C,A
                // schedule is an R1 rejection regardless of tap.
                const bool r1 = sched == compose_schedule::send_bca;
                const bool r2 = v3;  // stream cipher fills no trailer
                record_case(rep, g, r1, r2,
                            [&] { return execute_rc4_case(tap, sched); });
            }
        }
    }
}

template <typename Cipher>
void sweep_word_family(compose_sweep_report& rep) {
    const Cipher cipher = make_cipher<Cipher>();
    struct variant {
        bool with_xdr;
        bool encrypting;
    };
    constexpr std::array<variant, 3> variants = {
        variant{false, true}, variant{true, true}, variant{false, false}};
    for (const variant& var : variants) {
        const analysis::stage_graph g =
            word_chain_graph(cipher, var.with_xdr, var.encrypting);
        record_case(rep, g, false, false, [&] {
            return execute_word_case(cipher, var.with_xdr, var.encrypting);
        });
    }
}

// ---------------------------------------------------------------------------
// The stack's own graphs: the loops the data paths run, outside the flow
// graphs the engine gates.

// One linear part over the whole representative message.
std::vector<analysis::part_info> whole_message() {
    return {{0, core::plan_parts(compose_marshalled_bytes).total_bytes}};
}

template <typename Framing>
constexpr const char* wire_label() {
    return Framing::trailer_bytes != 0 ? "/v3" : "/v2";
}

// receive_request: one linear fused pass over the whole body.
template <typename Cipher, typename Framing>
analysis::stage_graph request_graph() {
    analysis::stage_graph g;
    g.name = std::string("request/") + cipher_label<Cipher>() +
             wire_label<Framing>();
    g.site = "app/receive_path.h:receive_request";
    g.side = analysis::graph_side::receive;
    g.trailer_reserved_bytes = Framing::trailer_bytes;
    g.parts = whole_message();
    add_loop_nodes<typename Framing::receive_loop>(g);
    return g;
}

// The layered baselines: one node per separate pass over the message
// (send: marshal, cipher, tcp_send copy, tcp_output checksum; receive:
// checksum, cipher, unmarshal).  The fused-only rules do not apply.
template <typename Cipher, typename Framing>
analysis::stage_graph layered_graph(bool receive) {
    using analysis::footprint_of;
    analysis::stage_graph g;
    g.name = std::string("layered/") + cipher_label<Cipher>() +
             wire_label<Framing>() + (receive ? "/receive" : "/send");
    g.site = receive ? "app/receive_path.h:receive_reply_layered"
                     : "app/send_path.h:send_message_layered";
    g.side = receive ? analysis::graph_side::receive
                     : analysis::graph_side::send;
    g.kind = analysis::pipeline_kind::layered;
    g.trailer_reserved_bytes = Framing::trailer_bytes;
    if (receive) {
        g.nodes = {{footprint_of<core::checksum_tap8>()},
                   {footprint_of<typename Framing::open_stage>()},
                   {footprint_of<core::xdr_decode_stage>()}};
    } else {
        g.nodes = {{footprint_of<core::xdr_encode_stage>()},
                   {footprint_of<typename Framing::seal_stage>()},
                   {footprint_of<core::opaque_stage>()},
                   {footprint_of<core::checksum_tap8>()}};
    }
    return g;
}

}  // namespace

std::vector<analysis::stage_graph> stack_graphs() {
    using plain = plain_framing<crypto::safer_k64>;
    using aead = aead_framing<crypto::aead_cipher>;
    using early = early_sender<mem_t, crypto::safer_simplified>;
    const secure_params classic{};
    secure_params secure;
    secure.enabled = true;

    // early_sender::prepare runs the send plan's B,C,A parts into staging;
    // try_flush copies the staged image into the ring front to back.
    analysis::stage_graph prepare;
    prepare.name = "early/safer-simplified/prepare";
    prepare.site = "app/early_send.h:early_sender::prepare";
    prepare.out_of_order_parts = true;
    prepare.parts = compose_parts(true);
    add_loop_nodes<early::prepare_loop>(prepare);
    analysis::stage_graph flush;
    flush.name = "early/safer-simplified/flush";
    flush.site = "app/early_send.h:early_sender::try_flush";
    flush.parts = whole_message();
    add_loop_nodes<early::flush_loop>(flush);

    return {
        flow_send_graph<crypto::safer_k64>(classic),
        flow_receive_graph<crypto::safer_k64>(classic),
        flow_send_graph<crypto::aead_cipher>(secure),
        flow_receive_graph<crypto::aead_cipher>(secure),
        request_graph<crypto::safer_k64, plain>(),
        request_graph<crypto::aead_cipher, aead>(),
        std::move(prepare),
        std::move(flush),
        layered_graph<crypto::safer_k64, plain>(false),
        layered_graph<crypto::safer_k64, plain>(true),
        layered_graph<crypto::aead_cipher, aead>(false),
        layered_graph<crypto::aead_cipher, aead>(true),
        // The word-filter baseline bench_ablation_unit_size runs.
        word_chain_graph(make_cipher<crypto::safer_simplified>(), false, true),
    };
}

compose_sweep_report run_compose_sweep() {
    compose_sweep_report rep;
    sweep_block_family<crypto::null_cipher>(rep);
    sweep_block_family<crypto::simple_cipher>(rep);
    sweep_block_family<crypto::safer_simplified>(rep);
    sweep_block_family<crypto::safer_k64>(rep);
    sweep_block_family<crypto::des>(rep);
    sweep_block_family<crypto::aead_cipher>(rep);
    sweep_rc4_family(rep);
    sweep_word_family<crypto::null_cipher>(rep);
    sweep_word_family<crypto::simple_cipher>(rep);
    sweep_word_family<crypto::safer_simplified>(rep);
    sweep_word_family<crypto::safer_k64>(rep);
    sweep_word_family<crypto::des>(rep);
    return rep;
}

}  // namespace ilp::app
