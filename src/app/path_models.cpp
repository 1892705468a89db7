#include "app/path_models.h"

#include <array>

#include "analysis/compose.h"
#include "app/compose_models.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/message_plan.h"
#include "core/stage.h"
#include "core/word_filter.h"
#include "crypto/aead.h"
#include "crypto/safer_k64.h"
#include "crypto/safer_simplified.h"
#include "memsim/mem_policy.h"
#include "rpc/messages.h"

namespace ilp::app {

namespace {

using enc = core::encrypt_stage<crypto::safer_k64>;
using dec = core::decrypt_stage<crypto::safer_k64>;
using aead_enc = core::aead_encrypt_stage<crypto::aead_cipher>;
using aead_dec = core::aead_decrypt_stage<crypto::aead_cipher>;

// Representative message geometry: a 1 KiB payload behind the RPC reply
// header.  The analyzer's geometry rules are invariant in the payload size
// as long as marshalling pads to the cipher unit, so one exemplar plan
// stands in for the whole family the harness sends.
constexpr std::size_t representative_payload = 1024;
constexpr std::size_t representative_marshalled =
    rpc::reply_payload_offset + representative_payload;

std::vector<analysis::part_info> ilp_parts() {
    const core::message_plan plan =
        core::plan_parts(representative_marshalled);
    std::vector<analysis::part_info> parts;
    for (const core::message_part& p : plan.ilp_order()) {
        if (!p.empty()) parts.push_back({p.offset, p.len});
    }
    return parts;
}

analysis::pipeline_model model(const char* name, const char* site,
                               analysis::pipeline_kind kind,
                               std::vector<analysis::footprint> stages,
                               std::size_t exchange_unit) {
    analysis::pipeline_model m;
    m.name = name;
    m.site = site;
    m.kind = kind;
    m.stages = std::move(stages);
    m.exchange_unit_bytes = exchange_unit;
    return m;
}

}  // namespace

std::vector<analysis::finding> register_app_pipelines(
    analysis::pipeline_registry& registry) {
    using namespace analysis;
    std::vector<finding> all;
    const auto take = [&all](std::vector<finding> f) {
        all.insert(all.end(), f.begin(), f.end());
    };

    // The ILP send path: marshal+encrypt+checksum in one loop, parts
    // processed B, C, A (send_path.h, §3.2.2).
    using send_loop = core::fused_pipeline<enc, core::checksum_tap8>;
    {
        pipeline_model m =
            model("app-send-ilp", "src/app/send_path.h:fill_message_ilp",
                  pipeline_kind::fused, send_loop::footprints(),
                  send_loop::unit_bytes);
        m.out_of_order_parts = true;
        m.parts = ilp_parts();
        take(registry.add(std::move(m)));
    }

    // Early send: same composition, but part B streams into the ring while
    // the application is still producing; flush() finishes C then A.
    {
        pipeline_model m = model(
            "app-send-early", "src/app/early_send.h:early_send_state::prepare",
            pipeline_kind::fused, send_loop::footprints(),
            send_loop::unit_bytes);
        m.out_of_order_parts = true;
        m.parts = ilp_parts();
        take(registry.add(std::move(m)));
    }

    // The ILP reply receive path: checksum+decrypt+unmarshal fused, run in
    // two linear phases split at the 24-byte header region.  The split is a
    // part cut and must clear the same geometry rules as the send plan.
    using recv_loop = core::fused_pipeline<core::checksum_tap8, dec>;
    {
        const std::size_t total =
            core::plan_parts(representative_marshalled).total_bytes;
        pipeline_model m = model(
            "app-recv-reply-ilp", "src/app/receive_path.h:receive_reply_ilp",
            pipeline_kind::fused, recv_loop::footprints(),
            recv_loop::unit_bytes);
        m.parts = {{0, 24}, {24, total - 24}};
        take(registry.add(std::move(m)));
    }

    // Request receive: one linear fused pass over the whole wire image.
    {
        pipeline_model m = model(
            "app-recv-request-ilp", "src/app/receive_path.h:receive_request",
            pipeline_kind::fused, recv_loop::footprints(),
            recv_loop::unit_bytes);
        m.parts = {
            {0, core::plan_parts(representative_marshalled).total_bytes}};
        take(registry.add(std::move(m)));
    }

    // The word-filter baseline (bench_ablation_unit_size): an actual chain
    // is built and walked so the registered stages are exactly what the
    // bench runs, footprint virtuals included.  Expect the W1 word-handoff
    // warning on the 8-byte cipher filter — that warning *is* the paper's
    // §2.2 critique of the scheme.
    {
        const std::array<std::byte, crypto::safer_simplified::key_bytes>
            key{};
        const crypto::safer_simplified cipher(key);
        checksum::inet_accumulator acc;
        std::array<std::byte, 4> sink_buf{};
        core::cipher_word_filter<memsim::direct_memory,
                                 crypto::safer_simplified, true>
            enc_filter(cipher);
        core::checksum_word_filter<memsim::direct_memory> sum_filter(acc);
        core::sink_word_filter<memsim::direct_memory> sink(sink_buf);
        enc_filter.set_next(&sum_filter);
        sum_filter.set_next(&sink);
        pipeline_model m = model(
            "app-wordchain-baseline",
            "bench/bench_ablation_unit_size.cpp:run_word_filter_chain",
            pipeline_kind::word_chain, core::chain_footprints(enc_filter), 4);
        take(registry.add(std::move(m)));
    }

    // Secure (AEAD) paths: the same functions under the aead framing.  The
    // keystream+tag cipher replaces the block cipher inside the same fused
    // compositions, so the B,C,A send order and the two-phase receive split
    // must clear the same geometry rules.  The 8-byte clear trailer is
    // outside these loops (the aead framing's mini-pass, secure_path.h), so
    // the body geometry is unchanged.
    using aead_send_loop = core::fused_pipeline<aead_enc, core::checksum_tap8>;
    {
        pipeline_model m = model(
            "app-send-secure-ilp",
            "src/app/send_path.h:fill_message_ilp",
            pipeline_kind::fused, aead_send_loop::footprints(),
            aead_send_loop::unit_bytes);
        m.out_of_order_parts = true;
        m.parts = ilp_parts();
        take(registry.add(std::move(m)));
    }
    using aead_recv_loop = core::fused_pipeline<core::checksum_tap8, aead_dec>;
    {
        const std::size_t total =
            core::plan_parts(representative_marshalled).total_bytes;
        pipeline_model m = model(
            "app-recv-secure-ilp",
            "src/app/receive_path.h:receive_reply_ilp",
            pipeline_kind::fused, aead_recv_loop::footprints(),
            aead_recv_loop::unit_bytes);
        m.parts = {{0, 24}, {24, total - 24}};
        take(registry.add(std::move(m)));
    }
    {
        pipeline_model m = model(
            "app-send-secure-layered",
            "src/app/send_path.h:send_message_layered",
            pipeline_kind::layered,
            {analysis::footprint_of<core::xdr_encode_stage>(),
             analysis::footprint_of<aead_enc>(),
             analysis::footprint_of<core::opaque_stage>(),
             analysis::footprint_of<core::checksum_tap8>()},
            8);
        take(registry.add(std::move(m)));
    }
    {
        pipeline_model m = model(
            "app-recv-secure-layered",
            "src/app/receive_path.h:receive_reply_layered",
            pipeline_kind::layered,
            {analysis::footprint_of<core::checksum_tap8>(),
             analysis::footprint_of<aead_dec>(),
             analysis::footprint_of<core::xdr_decode_stage>()},
            8);
        take(registry.add(std::move(m)));
    }

    // Runtime-assembled flow graphs, folded through the composition engine
    // and registered under their graph names.  These are the exact graphs
    // the engine's legality gate admits at flow setup (compose_models.h
    // builds both), so the lint inventory covers the runtime composition
    // space's legal exemplars, not just the hand-audited static paths.
    {
        const secure_params classic{};
        secure_params secure;
        secure.enabled = true;
        secure.flow_secret = 1;
        const auto composed = [&take, &registry](analysis::stage_graph g) {
            take(registry.add(analysis::compose_and_check(g).composed));
        };
        composed(flow_send_graph<crypto::safer_k64>(classic,
                                                    compose_tap::none, 0));
        composed(flow_receive_graph<crypto::safer_k64>(classic,
                                                       compose_tap::none, 0));
        composed(flow_send_graph<crypto::aead_cipher>(secure,
                                                      compose_tap::none, 0));
        composed(flow_receive_graph<crypto::aead_cipher>(secure,
                                                         compose_tap::none,
                                                         0));
        composed(flow_send_graph<crypto::safer_k64>(classic,
                                                    compose_tap::inet2, 0));
    }

    // Layered baselines: each pass touches the full message once; the
    // analyzer records them for inventory and table-pressure accounting but
    // the fused-only rules (R1/R3 geometry, W3) do not apply.
    {
        pipeline_model m = model(
            "app-send-layered", "src/app/send_path.h:send_message_layered",
            pipeline_kind::layered,
            {analysis::footprint_of<core::xdr_encode_stage>(),
             analysis::footprint_of<enc>(),
             analysis::footprint_of<core::opaque_stage>(),
             analysis::footprint_of<core::checksum_tap8>()},
            8);
        take(registry.add(std::move(m)));
    }
    {
        pipeline_model m = model(
            "app-recv-reply-layered",
            "src/app/receive_path.h:receive_reply_layered",
            pipeline_kind::layered,
            {analysis::footprint_of<core::checksum_tap8>(),
             analysis::footprint_of<dec>(),
             analysis::footprint_of<core::xdr_decode_stage>()},
            8);
        take(registry.add(std::move(m)));
    }

    return all;
}

}  // namespace ilp::app
