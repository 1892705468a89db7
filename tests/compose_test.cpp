// Composition-legality engine tests: graph hashing, the symbolic composer's
// verdicts (rules, offenders, trailer obligations, boundary geometry), the
// verdict-caching gate, the stack-graph list ilp-lint checks, and the full
// `--compose` sweep the CI job runs.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/compose.h"
#include "analysis/diagnostics.h"
#include "analysis/gate.h"
#include "analysis/graph.h"
#include "app/compose_models.h"
#include "app/compose_sweep.h"
#include "app/early_send.h"
#include "core/stage.h"
#include "crypto/aead.h"
#include "crypto/safer_k64.h"
#include "crypto/safer_simplified.h"
#include "memsim/mem_policy.h"
#include "util/json.h"

namespace {

using namespace ilp;

using enc = core::encrypt_stage<crypto::safer_k64>;
using aead_enc = core::aead_encrypt_stage<crypto::aead_cipher>;

// A linear send-side graph: encrypt then checksum-tap, one 1 KiB part.
analysis::stage_graph linear_graph() {
    analysis::stage_graph g;
    g.name = "test/linear";
    g.site = "tests/compose_test.cpp";
    g.side = analysis::graph_side::send;
    g.kind = analysis::pipeline_kind::fused;
    g.nodes.push_back({enc::footprint_decl});
    g.nodes.push_back({core::checksum_tap8::footprint_decl});
    g.parts = {{0, 1024}};
    return g;
}

bool has_rule(const analysis::verdict& v, const char* rule) {
    for (const analysis::finding& f : v.findings) {
        if (std::string(f.rule) == rule) return true;
    }
    return false;
}

TEST(GraphHash, DeterministicAndSensitiveToEveryVerdictInput) {
    const analysis::stage_graph a = linear_graph();
    const analysis::stage_graph b = linear_graph();
    EXPECT_EQ(analysis::graph_hash(a), analysis::graph_hash(b));

    // The node footprints are part of the hash, and so are the framing
    // facts and the geometry.
    analysis::stage_graph retyped = linear_graph();
    retyped.nodes[0] = {aead_enc::footprint_decl};
    EXPECT_NE(analysis::graph_hash(a), analysis::graph_hash(retyped));
    analysis::stage_graph framed = linear_graph();
    framed.trailer_reserved_bytes = 8;
    EXPECT_NE(analysis::graph_hash(a), analysis::graph_hash(framed));
    analysis::stage_graph recut = linear_graph();
    recut.parts = {{0, 512}, {512, 512}};
    EXPECT_NE(analysis::graph_hash(a), analysis::graph_hash(recut));
    analysis::stage_graph flipped = linear_graph();
    flipped.side = analysis::graph_side::receive;
    EXPECT_NE(analysis::graph_hash(a), analysis::graph_hash(flipped));
}

TEST(Composer, CyclicGraphIsRejectedUnderR4) {
    analysis::stage_graph g = linear_graph();
    g.edges = {{0, 1}, {1, 0}};
    EXPECT_FALSE(analysis::topo_order(g).has_value());

    const analysis::verdict v = analysis::compose_and_check(g);
    EXPECT_FALSE(v.legal);
    EXPECT_EQ(v.rule, "R4-footprint");
    EXPECT_EQ(v.offender, "graph cycle");
}

TEST(Composer, ExplicitDagFoldsInTopologicalOrder) {
    // Diamond declared in scrambled node order: tap8 first, encrypt last,
    // with edges forcing encrypt -> {tap8, tap2} -> opaque.
    analysis::stage_graph g;
    g.name = "test/diamond";
    g.site = "tests/compose_test.cpp";
    g.nodes.push_back({core::checksum_tap8::footprint_decl});  // 0
    g.nodes.push_back({core::checksum_tap2::footprint_decl});  // 1
    g.nodes.push_back({core::opaque_stage::footprint_decl});   // 2
    g.nodes.push_back({enc::footprint_decl});                  // 3
    g.edges = {{3, 0}, {3, 1}, {0, 2}, {1, 2}};
    g.parts = {{0, 1024}};

    const analysis::verdict v = analysis::compose_and_check(g);
    EXPECT_TRUE(v.legal) << v.rule << " on " << v.offender;
    ASSERT_EQ(v.composed.stages.size(), 4u);
    EXPECT_STREQ(v.composed.stages[0].name, "encrypt");
    EXPECT_STREQ(v.composed.stages[3].name, "opaque");
    // Le folds every unit: lcm(8, 8, 2, 1) over the base 8.
    EXPECT_EQ(v.composed.exchange_unit_bytes, 8u);
}

TEST(Composer, TrailerObligationMustMatchReservationExactly) {
    // AEAD obliges 8 trailer bytes; the v3 framing reserves 8: legal.
    analysis::stage_graph g = linear_graph();
    g.nodes[0] = {aead_enc::footprint_decl};
    g.trailer_reserved_bytes = 8;
    EXPECT_TRUE(analysis::compose_and_check(g).legal);

    // Obligation without a reservation: the tag has nowhere to go.
    g.trailer_reserved_bytes = 0;
    analysis::verdict v = analysis::compose_and_check(g);
    EXPECT_FALSE(v.legal);
    EXPECT_EQ(v.rule, "R2-header-size");
    EXPECT_EQ(v.offender, "aead_encrypt × framing");

    // Reservation without an obliger: uninitialized bytes on the wire.
    analysis::stage_graph plain = linear_graph();
    plain.trailer_reserved_bytes = 8;
    v = analysis::compose_and_check(plain);
    EXPECT_FALSE(v.legal);
    EXPECT_EQ(v.rule, "R2-header-size");
    EXPECT_EQ(v.offender, "framing × (no trailer-emitting stage)");

    // Zero-length trailer on both sides is a match, not a degenerate case:
    // no R2 finding at all.
    const analysis::verdict zero = analysis::compose_and_check(linear_graph());
    EXPECT_TRUE(zero.legal);
    EXPECT_FALSE(has_rule(zero, "R2-header-size"));
}

TEST(Composer, PartCutExactlyOnGranularityBoundaryIsLegal) {
    // Le = 8 for encrypt+tap8.  A cut exactly on the unit boundary passes;
    // moving the same cut one byte off straddles a cipher block and fails
    // both R3 clauses (torn length, misaligned offset).
    analysis::stage_graph g = linear_graph();
    g.parts = {{0, 8}, {8, 1016}};
    EXPECT_TRUE(analysis::compose_and_check(g).legal);

    g.parts = {{0, 7}, {7, 1017}};
    const analysis::verdict v = analysis::compose_and_check(g);
    EXPECT_FALSE(v.legal);
    EXPECT_EQ(v.rule, "R3-granularity");
    EXPECT_TRUE(has_rule(v, "R3-granularity"));
}

TEST(Gate, CachesVerdictsByGraphHash) {
    analysis::legality_gate gate;
    const analysis::stage_graph g = linear_graph();

    const analysis::verdict& first = gate.check(g);
    EXPECT_TRUE(first.legal);
    EXPECT_EQ(gate.stats().checks, 1u);
    EXPECT_EQ(gate.stats().cache_hits, 0u);
    EXPECT_EQ(gate.cached_verdicts(), 1u);

    const analysis::verdict& again = gate.check(g);
    EXPECT_EQ(&again, &first);  // served from the cache, same storage
    EXPECT_EQ(gate.stats().checks, 2u);
    EXPECT_EQ(gate.stats().cache_hits, 1u);
    EXPECT_EQ(gate.cached_verdicts(), 1u);

    // A different graph gets a fresh compose_and_check of its own.
    analysis::stage_graph recut = linear_graph();
    recut.parts = {{0, 512}, {512, 512}};
    const analysis::verdict& fresh = gate.check(recut);
    EXPECT_TRUE(fresh.legal);
    EXPECT_NE(fresh.hash, first.hash);
    EXPECT_EQ(gate.stats().checks, 3u);
    EXPECT_EQ(gate.stats().cache_hits, 1u);
    EXPECT_EQ(gate.cached_verdicts(), 2u);
}

// An ad-hoc stage with no footprint declaration: composing it still works,
// but the conservative default must be flagged so "legal" is not mistaken
// for "verified".
struct undeclared_test_stage {
    static constexpr std::size_t unit_bytes = 8;
    static constexpr bool ordering_constrained = false;
};

TEST(Composer, UndeclaredStageDrawsConservativeFootprintWarning) {
    const analysis::footprint fp =
        analysis::footprint_of<undeclared_test_stage>();
    EXPECT_FALSE(fp.declared);

    analysis::stage_graph g = linear_graph();
    g.nodes.push_back({fp});
    const analysis::verdict v = analysis::compose_and_check(g);
    EXPECT_TRUE(v.legal);  // warning, not error: the composition still runs
    EXPECT_TRUE(has_rule(v, "W4-conservative-footprint"));
}

TEST(FlowGraphs, EngineBuildersMatchTheGateContract) {
    const app::secure_params classic{};
    app::secure_params secure;
    secure.enabled = true;
    secure.flow_secret = 1;

    // The plain flow graphs are legal on both sides.
    EXPECT_TRUE(analysis::compose_and_check(
                    app::flow_send_graph<crypto::safer_k64>(classic))
                    .legal);
    EXPECT_TRUE(analysis::compose_and_check(
                    app::flow_receive_graph<crypto::safer_k64>(classic))
                    .legal);

    // The sweep's crc32 tap is ordering-constrained: illegal under the
    // B,C,A send schedule, legal on the linear receive side.
    const analysis::verdict send = analysis::compose_and_check(
        app::flow_graph<crypto::safer_k64>(classic, app::compose_tap::crc32,
                                           app::compose_schedule::send_bca));
    EXPECT_FALSE(send.legal);
    EXPECT_EQ(send.rule, "R1-ordering");
    EXPECT_EQ(send.offender, "crc32_tap × B,C,A schedule");
    EXPECT_TRUE(analysis::compose_and_check(
                    app::flow_graph<crypto::safer_k64>(
                        classic, app::compose_tap::crc32,
                        app::compose_schedule::receive))
                    .legal);

    // v3 framing requires the AEAD trailer obligation.
    EXPECT_TRUE(analysis::compose_and_check(
                    app::flow_send_graph<crypto::aead_cipher>(secure))
                    .legal);
    const analysis::verdict unfilled = analysis::compose_and_check(
        app::flow_send_graph<crypto::safer_k64>(secure));
    EXPECT_FALSE(unfilled.legal);
    EXPECT_EQ(unfilled.rule, "R2-header-size");
}

// The graph a loop type stands for: `g` with its nodes replaced by the
// loop's footprints.  graph_hash ignores name and site, so equal hashes
// mean equal footprints and geometry.
template <typename Loop>
std::uint64_t hash_with_loop(analysis::stage_graph g) {
    g.nodes.clear();
    for (const analysis::footprint& fp : Loop::footprints()) {
        g.nodes.push_back({fp});
    }
    return analysis::graph_hash(g);
}

const analysis::stage_graph& graph_named(
    const std::vector<analysis::stage_graph>& graphs, const std::string& name) {
    for (const analysis::stage_graph& g : graphs) {
        if (g.name == name) return g;
    }
    ADD_FAILURE() << "no stack graph named " << name;
    return graphs.front();
}

TEST(StackGraphs, EveryGraphIsLegalAndUniquelyNamed) {
    const std::vector<analysis::stage_graph> graphs = app::stack_graphs();
    ASSERT_GE(graphs.size(), 10u);
    std::set<std::string> names;
    for (const analysis::stage_graph& g : graphs) {
        EXPECT_TRUE(names.insert(g.name).second) << "duplicate " << g.name;
        const analysis::verdict v = analysis::compose_and_check(g);
        EXPECT_TRUE(v.legal) << g.name << ": " << v.rule << " on "
                             << v.offender;
    }
}

TEST(StackGraphs, JsonReportCountsMatch) {
    std::vector<analysis::pipeline_model> models;
    std::vector<analysis::finding> findings;
    for (const analysis::stage_graph& g : app::stack_graphs()) {
        analysis::verdict v = analysis::compose_and_check(g);
        findings.insert(findings.end(), v.findings.begin(), v.findings.end());
        models.push_back(std::move(v.composed));
    }
    std::size_t warnings = 0;
    for (const analysis::finding& f : findings) {
        if (f.sev == analysis::severity::warning) ++warnings;
    }
    // The word-chain baseline's W1 word-handoff warning is the paper's
    // critique of that scheme, so the report is never warning-free.
    EXPECT_GT(warnings, 0u);

    const std::optional<json::value> doc =
        json::parse(analysis::render_json(models, findings));
    ASSERT_TRUE(doc.has_value());
    ASSERT_NE(doc->find("pipelines"), nullptr);
    ASSERT_NE(doc->find("findings"), nullptr);
    EXPECT_EQ(doc->find("pipelines")->as_array()->size(), models.size());
    EXPECT_EQ(doc->find("findings")->as_array()->size(), findings.size());
    EXPECT_EQ(doc->number_at("errors", -1), 0.0);
    EXPECT_EQ(doc->number_at("warnings", -1),
              static_cast<double>(warnings));
}

TEST(StackGraphs, NodesAreTheLoopTypesThePathsRun) {
    const std::vector<analysis::stage_graph> graphs = app::stack_graphs();

    // Early send: the two loops early_sender instantiates.
    using early =
        app::early_sender<memsim::direct_memory, crypto::safer_simplified>;
    const analysis::stage_graph& prepare =
        graph_named(graphs, "early/safer-simplified/prepare");
    const analysis::stage_graph& flush =
        graph_named(graphs, "early/safer-simplified/flush");
    EXPECT_EQ(analysis::graph_hash(prepare),
              hash_with_loop<early::prepare_loop>(prepare));
    EXPECT_EQ(analysis::graph_hash(flush),
              hash_with_loop<early::flush_loop>(flush));

    // Flow graphs: the framing's loops, which fill_message_ilp and
    // receive_reply_ilp static_assert they run.
    using plain = app::plain_framing<crypto::safer_k64>;
    using aead = app::aead_framing<crypto::aead_cipher>;
    const analysis::stage_graph& v2_send =
        graph_named(graphs, "flow/safer-k64/v2/tap-none/send-bca");
    const analysis::stage_graph& v3_receive =
        graph_named(graphs, "flow/aead/v3/tap-none/receive");
    EXPECT_EQ(analysis::graph_hash(v2_send),
              hash_with_loop<plain::send_loop>(v2_send));
    EXPECT_EQ(analysis::graph_hash(v3_receive),
              hash_with_loop<aead::receive_loop>(v3_receive));
}

TEST(ComposeSweep, CoversTheSpaceWithZeroMiscomputations) {
    const app::compose_sweep_report rep = app::run_compose_sweep();
    EXPECT_GE(rep.cases.size(), 100u);
    EXPECT_EQ(rep.miscomputations, 0u);
    EXPECT_EQ(rep.unexplained_rejections, 0u);
    EXPECT_GT(rep.accepted, 0u);
    EXPECT_GT(rep.rejected, 0u);
    EXPECT_GT(rep.executed, 0u);
    EXPECT_TRUE(rep.ok());
    for (const app::compose_case& c : rep.cases) {
        EXPECT_TRUE(c.ok) << c.name << ": " << c.status;
    }
}

}  // namespace
