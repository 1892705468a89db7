// Tests for the fusion-legality analyzer: the footprint IR, the paper's
// applicability rules, and the runtime word-touch auditor (positive on the
// real fused paths, negative on a seeded double-reading stage).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <string>

#include "analysis/check.h"
#include "analysis/diagnostics.h"
#include "analysis/touch_audit.h"
#include "app/compose_sweep.h"
#include "app/touch_audits.h"
#include "buffer/byte_buffer.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/message_plan.h"
#include "core/stage.h"
#include "crypto/aead.h"
#include "crypto/kdf.h"
#include "crypto/safer_k64.h"
#include "memsim/configs.h"
#include "memsim/mem_policy.h"
#include "memsim/touch_map.h"
#include "util/rng.h"
#include "xdr/xdr.h"

namespace ilp {
namespace {

using analysis::finding;
using analysis::footprint;
using analysis::pipeline_kind;
using analysis::pipeline_model;
using analysis::severity;

bool has_rule(const std::vector<finding>& findings, const char* rule,
              severity sev = severity::error) {
    for (const finding& f : findings) {
        if (f.sev == sev && std::strcmp(f.rule, rule) == 0) return true;
    }
    return false;
}

std::size_t error_count(const std::vector<finding>& findings) {
    std::size_t n = 0;
    for (const finding& f : findings) {
        if (f.sev == severity::error) ++n;
    }
    return n;
}

pipeline_model fused(const char* name, std::vector<footprint> stages,
                     std::size_t le) {
    pipeline_model m;
    m.name = name;
    m.site = "tests/analysis_test.cpp";
    m.kind = pipeline_kind::fused;
    m.stages = std::move(stages);
    m.exchange_unit_bytes = le;
    return m;
}

crypto::safer_k64 test_cipher() {
    std::array<std::byte, crypto::safer_k64::key_bytes> key{};
    rng(5).fill(key);
    return crypto::safer_k64(key);
}

// ---------------------------------------------------------------------------
// Footprint IR

TEST(Footprint, DeclaredStagesReportTheirRealGeometry) {
    constexpr footprint enc =
        analysis::footprint_of<core::encrypt_stage<crypto::safer_k64>>();
    EXPECT_STREQ(enc.name, "encrypt");
    EXPECT_EQ(enc.unit_bytes, crypto::safer_k64::block_bytes);
    EXPECT_EQ(enc.aux_table_bytes, crypto::safer_k64::table_bytes);
    EXPECT_FALSE(enc.ordering_constrained);

    constexpr footprint crc = analysis::footprint_of<core::crc32_tap>();
    EXPECT_TRUE(crc.ordering_constrained);
    EXPECT_EQ(crc.writes_per_unit, 0u);  // taps do not write the stream
}

// Local classes cannot carry static members, so the undeclared-stage probe
// lives at namespace scope.
struct bare_stage {
    static constexpr std::size_t unit_bytes = 4;
    static constexpr bool ordering_constrained = true;
};

TEST(Footprint, UndeclaredStageGetsConservativeDefaults) {
    constexpr footprint fp = analysis::footprint_of<bare_stage>();
    EXPECT_STREQ(fp.name, "undeclared");
    EXPECT_EQ(fp.unit_bytes, 4u);
    EXPECT_TRUE(fp.ordering_constrained);
    EXPECT_EQ(fp.reads_per_unit, 4u);
    EXPECT_EQ(fp.writes_per_unit, 4u);
}

TEST(Footprint, XdrVariableLengthCodecsAreMarkedMidLoop) {
    EXPECT_TRUE(xdr::int_codec.length_known_before_loop);
    EXPECT_FALSE(xdr::opaque_varlen_codec.length_known_before_loop);
    EXPECT_FALSE(xdr::string_codec.length_known_before_loop);
}

// ---------------------------------------------------------------------------
// Rule R1: ordering-constrained stages vs out-of-order parts

TEST(Checker, RejectsOrderingConstrainedStageUnderOutOfOrderParts) {
    using bad = core::fused_pipeline<
        core::encrypt_stage<crypto::safer_k64>, core::crc32_tap>;
    pipeline_model m = fused("crc-under-bca", bad::footprints(),
                             bad::unit_bytes);
    m.out_of_order_parts = true;

    const std::vector<finding> findings = analysis::check_pipeline(m);
    EXPECT_TRUE(has_rule(findings, "R1-ordering"));
    EXPECT_FALSE(analysis::passes(findings));

    // The diagnostic must be actionable: name the stage and the fix.
    bool found = false;
    for (const finding& f : findings) {
        if (std::strcmp(f.rule, "R1-ordering") != 0) continue;
        found = true;
        EXPECT_NE(f.message.find("crc32_tap"), std::string::npos);
        EXPECT_NE(f.message.find("trailer"), std::string::npos);
    }
    EXPECT_TRUE(found);
}

TEST(Checker, SameStagesAreLegalUnderLinearOrder) {
    using same = core::fused_pipeline<
        core::encrypt_stage<crypto::safer_k64>, core::crc32_tap>;
    pipeline_model m = fused("crc-linear", same::footprints(),
                             same::unit_bytes);
    m.out_of_order_parts = false;  // trailer framing: strictly front-to-back
    EXPECT_TRUE(analysis::passes(analysis::check_pipeline(m)));
}

// ---------------------------------------------------------------------------
// Rule R2: header sizes must be known before the loop

TEST(Checker, RejectsMidLoopLengthDiscovery) {
    footprint varlen{.name = "xdr_string_decode",
                     .unit_bytes = 4,
                     .reads_per_unit = 4,
                     .writes_per_unit = 4,
                     .ordering_constrained = false,
                     .length_known_before_loop = false,
                     .alignment = 4,
                     .aux_table_bytes = 0};
    pipeline_model m = fused("varlen-fusion", {varlen}, 4);
    const std::vector<finding> findings = analysis::check_pipeline(m);
    EXPECT_TRUE(has_rule(findings, "R2-header-size"));
    bool names_stage = false;
    for (const finding& f : findings) {
        if (f.message.find("xdr_string_decode") != std::string::npos) {
            names_stage = true;
        }
    }
    EXPECT_TRUE(names_stage);
}

TEST(Checker, RejectsPlanEnteredBeforeHeaderSizesFixed) {
    using loop = core::fused_pipeline<core::checksum_tap8>;
    pipeline_model m = fused("premature", loop::footprints(),
                             loop::unit_bytes);
    m.header_sizes_known = false;
    EXPECT_TRUE(has_rule(analysis::check_pipeline(m), "R2-header-size"));
}

// ---------------------------------------------------------------------------
// Rule R3: part geometry vs stage granularity

TEST(Checker, RejectsPartCutThatStraddlesACipherBlock) {
    using loop = core::fused_pipeline<
        core::encrypt_stage<crypto::safer_k64>, core::checksum_tap8>;
    pipeline_model m =
        fused("straddle", loop::footprints(), loop::unit_bytes);
    // Part cut at offset 4: inside the first 8-byte cipher block.
    m.parts = {{4, 32}, {36, 8}, {0, 4}};
    const std::vector<finding> findings = analysis::check_pipeline(m);
    EXPECT_TRUE(has_rule(findings, "R3-granularity"));
    bool names_alignment = false;
    for (const finding& f : findings) {
        if (std::strcmp(f.rule, "R3-granularity") == 0 &&
            f.message.find("straddle") != std::string::npos) {
            names_alignment = true;
        }
    }
    EXPECT_TRUE(names_alignment);
}

TEST(Checker, RejectsTornUnitPartLength) {
    using loop = core::fused_pipeline<core::checksum_tap8>;
    pipeline_model m = fused("torn", loop::footprints(), loop::unit_bytes);
    m.parts = {{0, 12}};  // 12 % 8 != 0: the loop would process a torn unit
    EXPECT_TRUE(has_rule(analysis::check_pipeline(m), "R3-granularity"));
}

TEST(Checker, AcceptsThePaperPartSchedule) {
    const core::message_plan plan = core::plan_parts(1052);
    ASSERT_TRUE(plan.well_formed());
    using loop = core::fused_pipeline<
        core::encrypt_stage<crypto::safer_k64>, core::checksum_tap8>;
    pipeline_model m = fused("bca", loop::footprints(), loop::unit_bytes);
    m.out_of_order_parts = true;
    for (const core::message_part& p : plan.ilp_order()) {
        if (!p.empty()) m.parts.push_back({p.offset, p.len});
    }
    EXPECT_TRUE(analysis::passes(analysis::check_pipeline(m)));
}

// ---------------------------------------------------------------------------
// Rule R4 and cost warnings

TEST(Checker, RejectsIncoherentFootprint) {
    footprint bogus{.name = "bogus",
                    .unit_bytes = 8,
                    .reads_per_unit = 16,  // touches more than its unit holds
                    .writes_per_unit = 8,
                    .ordering_constrained = false,
                    .length_known_before_loop = true,
                    .alignment = 3,  // does not divide 8 either
                    .aux_table_bytes = 0};
    const std::vector<finding> findings =
        analysis::check_pipeline(fused("bogus", {bogus}, 8));
    EXPECT_TRUE(has_rule(findings, "R4-footprint"));
    EXPECT_GE(error_count(findings), 2u);
}

TEST(Checker, WarnsOnCachePressureFromLargeTables) {
    footprint fat{.name = "fat_cipher",
                  .unit_bytes = 8,
                  .reads_per_unit = 8,
                  .writes_per_unit = 8,
                  .ordering_constrained = false,
                  .length_known_before_loop = true,
                  .alignment = 8,
                  .aux_table_bytes = 8192};
    const std::vector<finding> findings =
        analysis::check_pipeline(fused("fat", {fat}, 8));
    EXPECT_TRUE(has_rule(findings, "W2-cache-pressure", severity::warning));
    EXPECT_TRUE(analysis::passes(findings));  // warnings never fail the lint
}

TEST(Checker, WarnsOnWordChainHandoffMismatch) {
    footprint block{.name = "block8",
                    .unit_bytes = 8,
                    .reads_per_unit = 8,
                    .writes_per_unit = 8,
                    .ordering_constrained = false,
                    .length_known_before_loop = true,
                    .alignment = 8,
                    .aux_table_bytes = 0};
    pipeline_model m = fused("chain", {block}, 4);
    m.kind = pipeline_kind::word_chain;
    EXPECT_TRUE(
        has_rule(analysis::check_pipeline(m), "W1-word-handoff",
                 severity::warning));
}

// ---------------------------------------------------------------------------
// Word-touch auditor

TEST(TouchAudit, FusedSendPathTouchesEveryPayloadWordExactlyOnce) {
    const crypto::safer_k64 cipher = test_cipher();
    const app::audit_outcome out = app::audit_fused_send(cipher, 1024);
    EXPECT_TRUE(out.round_trip_ok);
    for (const finding& f : out.findings) {
        ADD_FAILURE() << analysis::render_text(f);
    }
}

TEST(TouchAudit, FusedReceivePathTouchesEveryPayloadWordExactlyOnce) {
    const crypto::safer_k64 cipher = test_cipher();
    const app::audit_outcome out = app::audit_fused_receive(cipher, 1024);
    EXPECT_TRUE(out.round_trip_ok);
    for (const finding& f : out.findings) {
        ADD_FAILURE() << analysis::render_text(f);
    }
}

TEST(TouchAudit, OddPayloadSizesStillAuditClean) {
    const crypto::safer_k64 cipher = test_cipher();
    for (const std::size_t payload : {0u, 4u, 52u, 1000u}) {
        const app::audit_outcome s = app::audit_fused_send(cipher, payload);
        EXPECT_TRUE(s.round_trip_ok) << payload;
        EXPECT_EQ(s.findings.size(), 0u) << payload;
        const app::audit_outcome r = app::audit_fused_receive(cipher, payload);
        EXPECT_TRUE(r.round_trip_ok) << payload;
        EXPECT_EQ(r.findings.size(), 0u) << payload;
    }
}

// Wire v3: the fill writes body *and* clear trailer exactly once; the
// chain receive reads every wire byte, trailer included, exactly once, and
// writes only the payload.  Sent and received through one keychain window,
// the way a flow's reply direction runs.
TEST(TouchAudit, SecurePathsTouchBodyAndTrailerExactlyOnce) {
    crypto::keychain<crypto::aead_cipher> window(7);
    window.advance();  // a nonzero epoch on the wire
    const app::aead_framing<crypto::aead_cipher> v3{
        &window.current(), window.current_epoch(), &window, nullptr};
    for (const std::size_t payload : {0u, 52u, 1024u}) {
        const app::audit_outcome s = app::audit_fused_send(v3, payload);
        EXPECT_TRUE(s.round_trip_ok) << payload;
        const app::audit_outcome r = app::audit_fused_receive(v3, payload);
        EXPECT_TRUE(r.round_trip_ok) << payload;
        for (const finding& f : s.findings) {
            ADD_FAILURE() << analysis::render_text(f);
        }
        for (const finding& f : r.findings) {
            ADD_FAILURE() << analysis::render_text(f);
        }
    }
    const app::audit_outcome zc = app::audit_zero_copy_receive(v3);
    EXPECT_TRUE(zc.round_trip_ok);
    for (const finding& f : zc.findings) {
        ADD_FAILURE() << analysis::render_text(f);
    }
}

// Every audit driver, under either framing, labels its findings with the
// stack graph `ilp-lint --list` shows for the loop it drove.
TEST(TouchAudit, EveryAuditLabelNamesAStackGraph) {
    std::set<std::string> graphs;
    for (const analysis::stage_graph& g : app::stack_graphs()) {
        graphs.insert(g.name);
    }
    const crypto::safer_k64 cipher = test_cipher();
    crypto::keychain<crypto::aead_cipher> window(7);
    const app::aead_framing<crypto::aead_cipher> v3{
        &window.current(), window.current_epoch(), &window, nullptr};
    const app::audit_outcome audits[] = {
        app::audit_fused_send(cipher), app::audit_fused_receive(cipher),
        app::audit_zero_copy_receive(cipher), app::audit_fused_send(v3),
        app::audit_fused_receive(v3), app::audit_zero_copy_receive(v3)};
    for (const app::audit_outcome& a : audits) {
        EXPECT_TRUE(graphs.contains(a.loop)) << a.loop;
    }
    EXPECT_EQ(audits[0].loop, "flow/safer-k64/v2/tap-none/send-bca");
    EXPECT_EQ(audits[5].loop, "flow/aead/v3/tap-none/receive");
}

// A deliberately broken stage: processes its unit normally but re-reads the
// source bytes through the memory policy a second time — the redundant
// access the fused loop exists to eliminate.  The auditor must catch it.
TEST(TouchAudit, CatchesADoubleReadingStage) {
    constexpr std::size_t n = 64;
    byte_buffer src(n), dst(n);
    rng(17).fill(src.span());

    memsim::memory_system sys(memsim::test_tiny());
    memsim::touch_map map;
    map.watch("src", src.data(), n);
    map.watch("dst", dst.data(), n);
    sys.set_touch_map(&map);
    const memsim::sim_memory mem(sys);

    // The fused copy itself reads src once and writes dst once...
    core::opaque_stage move_only;
    auto loop = core::make_pipeline(move_only);
    loop.run(mem, core::span_source(src.span()),
             core::span_dest(dst.span()));
    // ...then the "double-reading stage" goes back over the source.
    for (std::size_t i = 0; i < n; i += 4) {
        (void)mem.load_u32(src.data() + i);
    }
    sys.set_touch_map(nullptr);

    const std::vector<finding> findings = analysis::audit_touches(
        map, {{"src", 1, 0}, {"dst", 0, 1}}, "tests/analysis_test.cpp",
        "double-read-demo");
    ASSERT_FALSE(findings.empty());
    EXPECT_TRUE(has_rule(findings, "A1-redundant-touch"));
    // One collapsed finding for the whole re-read run, not 64 of them.
    EXPECT_LE(findings.size(), 2u);
    EXPECT_NE(findings[0].message.find("src"), std::string::npos);
}

TEST(TouchAudit, CatchesAMissedRange) {
    constexpr std::size_t n = 32;
    byte_buffer src(n);
    memsim::memory_system sys(memsim::test_tiny());
    memsim::touch_map map;
    map.watch("src", src.data(), n);
    sys.set_touch_map(&map);
    const memsim::sim_memory mem(sys);
    // Touch only the first half; the second half goes unprocessed.
    for (std::size_t i = 0; i < n / 2; i += 4) {
        (void)mem.load_u32(src.data() + i);
    }
    sys.set_touch_map(nullptr);

    const std::vector<finding> findings = analysis::audit_touches(
        map, {{"src", 1, 0}}, "tests/analysis_test.cpp", "missed-demo");
    EXPECT_TRUE(has_rule(findings, "A2-missed-touch"));
}

}  // namespace
}  // namespace ilp
