// ilp-lint — fusion-legality linter for every composition the stack runs.
//
// Composes and checks each graph of app::stack_graphs() — built from the
// fused-loop and stage types the data paths instantiate, with the same
// builders the engine's legality gate uses — runs the paper's applicability
// rules over each composition, and reports compiler-style diagnostics.
// Exit status is the CI contract: 0 when no error-severity finding exists,
// 1 otherwise.
//
//   ilp-lint             text diagnostics over every stack graph
//   ilp-lint --json      machine-readable report (findings + inventory)
//   ilp-lint --list      inventory only: every composed graph and its stages
//   ilp-lint --audit     additionally run the word-touch audits (the
//                        dynamic exactly-once check) on the fused
//                        send/receive paths under the memory simulator
//   ilp-lint --sweep=N   additionally check part geometry for every
//                        marshalled size up to N bytes against the composed
//                        flow send graph (plan_parts), catching torn-unit
//                        sizes; a sweep that checks no size is an error
//   ilp-lint --compose   additionally sweep the runtime composition space:
//                        every cipher × framing × tap × schedule graph is
//                        composed, checked, and (where executable) run both
//                        fused and layered — accepted graphs must be
//                        bit-identical, rejected ones must name their rule
//                        (with --json, output gains a "compose" section)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/compose.h"
#include "analysis/diagnostics.h"
#include "app/compose_models.h"
#include "app/compose_sweep.h"
#include "app/touch_audits.h"
#include "core/message_plan.h"
#include "crypto/aead.h"
#include "crypto/kdf.h"
#include "crypto/safer_k64.h"

// GCC 12 false-positives -Wrestrict on inlined std::string concatenation
// (gcc bug 105329), same as analysis/diagnostics.cpp.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace {

using namespace ilp;

void print_inventory(const std::vector<analysis::pipeline_model>& models) {
    const char* kind_names[] = {"fused", "word_chain", "layered"};
    for (const analysis::pipeline_model& m : models) {
        std::printf("%-36s %-10s Le=%-3zu %s\n", m.name.c_str(),
                    kind_names[static_cast<int>(m.kind)],
                    m.exchange_unit_bytes, m.site.c_str());
        for (const analysis::footprint& fp : m.stages) {
            std::printf("    %-24s unit=%zu r/w=%zu/%zu align=%zu%s%s%s\n",
                        fp.name, fp.unit_bytes, fp.reads_per_unit,
                        fp.writes_per_unit, fp.alignment,
                        fp.ordering_constrained ? " ordering-constrained" : "",
                        fp.length_known_before_loop ? "" : " mid-loop-length",
                        fp.aux_table_bytes != 0 ? " tables" : "");
        }
    }
    std::printf("%zu stack graphs\n", models.size());
}

// Geometry sweep: plan_parts() must produce a legal B,C,A plan for every
// message size the marshaller can emit.  A regression that breaks the
// padding math shows up here long before a runtime assertion does.
// `checked` counts the sizes swept; zero is itself an error finding,
// because an empty sweep proves nothing.
std::vector<analysis::finding> sweep_plans(
    const analysis::pipeline_model& send_model, std::size_t max_bytes,
    std::size_t& checked) {
    std::vector<analysis::finding> out;
    checked = 0;
    for (std::size_t marshalled = core::encryption_header_bytes;
         marshalled <= max_bytes; marshalled += 4) {
        ++checked;
        const core::message_plan plan = core::plan_parts(marshalled);
        std::vector<analysis::part_info> parts;
        for (const core::message_part& p : plan.ilp_order()) {
            if (!p.empty()) parts.push_back({p.offset, p.len});
        }
        std::vector<analysis::finding> f =
            analysis::check_part_geometry(send_model, parts);
        for (analysis::finding& one : f) {
            one.message += " (marshalled size " + std::to_string(marshalled) +
                           " in sweep)";
            out.push_back(std::move(one));
        }
        if (!plan.well_formed()) {
            out.push_back({analysis::severity::error, "R3-granularity",
                           send_model.site, send_model.name,
                           "plan_parts(" + std::to_string(marshalled) +
                               ") produced a malformed plan",
                           {}});
        }
    }
    if (checked == 0) {
        out.push_back({analysis::severity::error, "S0-empty-sweep",
                       send_model.site, send_model.name,
                       "--sweep=" + std::to_string(max_bytes) +
                           " checked no marshalled size (the smallest is " +
                           std::to_string(core::encryption_header_bytes) +
                           " bytes)",
                       {}});
    }
    return out;
}

std::vector<analysis::finding> run_audits() {
    std::array<std::byte, crypto::safer_k64::key_bytes> key{};
    rng(3).fill(key);
    const crypto::safer_k64 cipher(key);
    // Wire v3 audits run the reply direction's framing exactly as a flow
    // does: send under the window's current key, receive through the window.
    crypto::keychain<crypto::aead_cipher> window(3);
    const app::aead_framing<crypto::aead_cipher> v3{
        &window.current(), window.current_epoch(), &window, nullptr};

    struct audit_run {
        app::audit_outcome outcome;
        const char* site;
        const char* path;
    };
    const audit_run runs[] = {
        {app::audit_fused_send(cipher), "src/app/send_path.h:fill_message_ilp",
         "fused send"},
        {app::audit_fused_receive(cipher),
         "src/app/receive_path.h:receive_reply_ilp", "fused receive"},
        {app::audit_zero_copy_receive(cipher),
         "src/app/receive_path.h:receive_reply_ilp", "zero-copy fused receive"},
        {app::audit_fused_send(v3), "src/app/send_path.h:fill_message_ilp",
         "wire-v3 fused send"},
        {app::audit_zero_copy_receive(v3),
         "src/app/receive_path.h:receive_reply_ilp",
         "wire-v3 zero-copy fused receive"},
    };
    std::vector<analysis::finding> out;
    for (const audit_run& run : runs) {
        out.insert(out.end(), run.outcome.findings.begin(),
                   run.outcome.findings.end());
        if (!run.outcome.round_trip_ok) {
            out.push_back({analysis::severity::error, "A0-audit-fixture",
                           run.site, run.outcome.loop,
                           std::string("audit payload failed to round-trip "
                                       "through the ") +
                               run.path +
                               " path; the audit result is not trustworthy",
                           {}});
        }
    }
    return out;
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

// Machine-readable form of the composition sweep — the verdict schema CI
// checks (see README "Composition sweep").
std::string render_compose_json(const app::compose_sweep_report& rep) {
    char hashbuf[32];
    std::string out = "{\n";
    out += "    \"graphs\": " + std::to_string(rep.cases.size()) + ",\n";
    out += "    \"accepted\": " + std::to_string(rep.accepted) + ",\n";
    out += "    \"rejected\": " + std::to_string(rep.rejected) + ",\n";
    out += "    \"executed\": " + std::to_string(rep.executed) + ",\n";
    out += "    \"miscomputations\": " + std::to_string(rep.miscomputations) +
           ",\n";
    out += "    \"unexplained_rejections\": " +
           std::to_string(rep.unexplained_rejections) + ",\n";
    out += std::string("    \"ok\": ") + (rep.ok() ? "true" : "false") +
           ",\n    \"cases\": [\n";
    for (std::size_t i = 0; i < rep.cases.size(); ++i) {
        const app::compose_case& c = rep.cases[i];
        std::snprintf(hashbuf, sizeof hashbuf, "%016llx",
                      static_cast<unsigned long long>(c.hash));
        out += "      {\"name\": \"" + json_escape(c.name) + "\", ";
        out += std::string("\"hash\": \"") + hashbuf + "\", ";
        out += std::string("\"legal\": ") + (c.legal ? "true" : "false") +
               ", ";
        out += "\"rule\": \"" + json_escape(c.rule) + "\", ";
        out += "\"offender\": \"" + json_escape(c.offender) + "\", ";
        out += std::string("\"executed\": ") +
               (c.executed ? "true" : "false") + ", ";
        out += std::string("\"outputs_match\": ") +
               (c.outputs_match ? "true" : "false") + ", ";
        out += std::string("\"taps_match\": ") +
               (c.taps_match ? "true" : "false") + ", ";
        out += std::string("\"mismatch_expected\": ") +
               (c.mismatch_expected ? "true" : "false") + ", ";
        out += std::string("\"ok\": ") + (c.ok ? "true" : "false") + ", ";
        out += "\"status\": \"" + json_escape(c.status) + "\"}";
        if (i + 1 < rep.cases.size()) out += ",";
        out += "\n";
    }
    out += "    ]\n  }";
    return out;
}

void print_compose_text(const app::compose_sweep_report& rep) {
    for (const app::compose_case& c : rep.cases) {
        if (c.ok) continue;
        std::printf("compose: FAIL %-44s %s\n", c.name.c_str(),
                    c.status.c_str());
    }
    std::printf(
        "compose: %zu graphs, %zu accepted, %zu rejected, %zu differential "
        "run(s), %zu miscomputation(s), %zu unexplained rejection(s)\n",
        rep.cases.size(), rep.accepted, rep.rejected, rep.executed,
        rep.miscomputations, rep.unexplained_rejections);
}

}  // namespace

int main(int argc, char** argv) {
    bool json = false;
    bool list = false;
    bool audit = false;
    bool compose = false;
    std::size_t sweep_bytes = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--audit") {
            audit = true;
        } else if (arg == "--compose") {
            compose = true;
        } else if (arg.rfind("--sweep=", 0) == 0) {
            sweep_bytes = static_cast<std::size_t>(
                std::strtoull(arg.c_str() + 8, nullptr, 10));
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: ilp-lint [--json] [--list] [--audit] "
                        "[--compose] [--sweep=BYTES]\n");
            return 0;
        } else {
            std::fprintf(stderr, "ilp-lint: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    std::vector<analysis::pipeline_model> models;
    std::vector<analysis::finding> findings;
    for (const analysis::stage_graph& g : app::stack_graphs()) {
        analysis::verdict v = analysis::compose_and_check(g);
        findings.insert(findings.end(), v.findings.begin(), v.findings.end());
        models.push_back(std::move(v.composed));
    }

    if (list) {
        print_inventory(models);
        return 0;
    }

    if (sweep_bytes > 0) {
        const analysis::verdict send = analysis::compose_and_check(
            app::flow_send_graph<crypto::safer_k64>({}));
        std::size_t checked = 0;
        std::vector<analysis::finding> swept =
            sweep_plans(send.composed, sweep_bytes, checked);
        findings.insert(findings.end(), swept.begin(), swept.end());
        std::fprintf(json ? stderr : stdout,
                     "sweep: %zu marshalled size(s) checked against %s\n",
                     checked, send.composed.name.c_str());
    }
    if (audit) {
        std::vector<analysis::finding> audited = run_audits();
        findings.insert(findings.end(), audited.begin(), audited.end());
    }

    app::compose_sweep_report compose_report;
    if (compose) compose_report = app::run_compose_sweep();

    std::size_t errors = 0;
    if (json) {
        std::string doc = render_json(models, findings);
        if (compose) {
            // Wrap: {"lint": <lint doc>, "compose": <sweep doc>}.
            doc = "{\n  \"lint\": " + doc + ",\n  \"compose\": " +
                  render_compose_json(compose_report) + "\n}";
        }
        std::fputs(doc.c_str(), stdout);
        std::fputc('\n', stdout);
        for (const analysis::finding& f : findings) {
            if (f.sev == analysis::severity::error) ++errors;
        }
    } else {
        errors = analysis::print_report(stdout, findings);
        if (compose) print_compose_text(compose_report);
    }
    if (compose && !compose_report.ok()) return 1;
    return errors == 0 ? 0 : 1;
}
