// ilp-trace: offline companion for the src/obs instrumentation.
//
//   ilp-trace summarize <trace.json>         per-stage table from a Chrome
//       [--per-flow] [--top N] [--strict]    trace_event file, with self
//                                            cache-miss attribution by stage
//                                            (--per-flow splits by flow tag;
//                                            --top N keeps the N costliest
//                                            flows; --strict exits 1 if the
//                                            tracer ring dropped events)
//   ilp-trace summarize --fleet <fleet.json> fleet_report view: per-shard
//       [--top N] [--strict]                 rollups, latency sketches,
//                                            slowest flows, sampling
//                                            coverage and black boxes
//   ilp-trace validate  <file.json>          structural check of a Chrome
//                                            trace or a BENCH schema file
//   ilp-trace diff <old.json> <new.json>     compare two BENCH JSON reports
//       [--threshold=<pct>]                  (also accepted: --diff old new)
//
// Exit codes: 0 success / no regression, 1 regression beyond threshold (or
// dropped events under --strict), 2 usage, I/O, or parse error.  CI runs
// `diff` against a checked-in baseline so perf regressions fail the build
// without gating tier-1 tests.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "stats/table.h"
#include "util/json.h"

namespace {

using ilp::json::value;

int usage() {
    std::fprintf(stderr,
                 "usage: ilp-trace summarize <trace.json> [--per-flow]"
                 " [--top N] [--strict]\n"
                 "       ilp-trace summarize --fleet <fleet.json>"
                 " [--top N] [--strict]\n"
                 "       ilp-trace validate <file.json>\n"
                 "       ilp-trace diff <old.json> <new.json>"
                 " [--threshold=<pct>]\n");
    return 2;
}

// Chrome exports either a bare array or {"traceEvents": [...]}.
const ilp::json::array* trace_events(const value& doc) {
    if (doc.is_array()) return doc.as_array();
    const value* events = doc.find("traceEvents");
    return events == nullptr ? nullptr : events->as_array();
}

// ---------------------------------------------------------------- summarize

struct stage_sum {
    std::uint64_t count = 0;
    double dur_us = 0;
    std::uint64_t self_accesses = 0;
    std::uint64_t self_l1d_misses = 0;
    std::uint64_t self_cycles = 0;
    std::uint64_t l1d_misses = 0;  // inclusive
};

// Group key: (flow, side, stage).  Flow -1 means "not flow-scoped"; without
// --per-flow every event lands there, so the extra tuple slot is invisible.
using stage_group = std::tuple<long long, std::string, std::string>;

int cmd_summarize(const std::string& path, bool per_flow, long long top,
                  bool strict) {
    const std::optional<value> doc = ilp::json::parse_file(path);
    if (!doc.has_value()) {
        std::fprintf(stderr, "ilp-trace: cannot parse %s\n", path.c_str());
        return 2;
    }
    const ilp::json::array* events = trace_events(*doc);
    if (events == nullptr) {
        std::fprintf(stderr, "ilp-trace: %s is not a trace_event file\n",
                     path.c_str());
        return 2;
    }

    std::map<double, std::string> thread_names;
    std::map<stage_group, stage_sum> stages;
    std::uint64_t instants = 0;
    for (const value& ev : *events) {
        const std::string ph = ev.string_at("ph");
        if (ph == "M" && ev.string_at("name") == "thread_name") {
            const value* args = ev.find("args");
            if (args != nullptr) {
                thread_names[ev.number_at("tid")] = args->string_at("name");
            }
            continue;
        }
        if (ph == "i") {
            ++instants;
            continue;
        }
        if (ph != "X") continue;
        const double tid = ev.number_at("tid");
        const auto tn = thread_names.find(tid);
        const std::string side =
            tn == thread_names.end() ? "-" : tn->second;
        const value* args = ev.find("args");
        long long flow = -1;
        if (per_flow && args != nullptr && args->find("flow") != nullptr) {
            flow = static_cast<long long>(args->number_at("flow"));
        }
        stage_sum& s = stages[{flow, side, ev.string_at("name")}];
        ++s.count;
        s.dur_us += ev.number_at("dur");
        if (args != nullptr) {
            s.self_accesses +=
                static_cast<std::uint64_t>(args->number_at("self_accesses"));
            s.self_l1d_misses += static_cast<std::uint64_t>(
                args->number_at("self_l1d_misses"));
            s.self_cycles +=
                static_cast<std::uint64_t>(args->number_at("self_cycles"));
            s.l1d_misses +=
                static_cast<std::uint64_t>(args->number_at("l1d_misses"));
        }
    }

    std::uint64_t total_self_misses = 0;
    for (const auto& [key, s] : stages) total_self_misses += s.self_l1d_misses;

    // --top N: keep only the N costliest flows by total self cycles.  Rows
    // not scoped to a flow (flow -1) always stay, and the miss-% column
    // keeps the whole-trace denominator so shares still add up.
    if (per_flow && top > 0) {
        std::map<long long, std::uint64_t> flow_cycles;
        for (const auto& [key, s] : stages) {
            if (std::get<0>(key) >= 0) {
                flow_cycles[std::get<0>(key)] += s.self_cycles;
            }
        }
        std::vector<std::pair<std::uint64_t, long long>> ranked;
        ranked.reserve(flow_cycles.size());
        for (const auto& [flow, cycles] : flow_cycles) {
            ranked.emplace_back(cycles, flow);
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                               : a.second < b.second;
                  });
        if (ranked.size() > static_cast<std::size_t>(top)) {
            ranked.resize(static_cast<std::size_t>(top));
        }
        std::set<long long> keep;
        for (const auto& [cycles, flow] : ranked) keep.insert(flow);
        std::erase_if(stages, [&](const auto& kv) {
            const long long flow = std::get<0>(kv.first);
            return flow >= 0 && keep.find(flow) == keep.end();
        });
    }

    std::vector<std::string> headers;
    if (per_flow) headers.push_back("flow");
    for (const char* h : {"side", "stage", "count", "dur", "self accesses",
                          "self l1d miss", "miss %", "self cycles"}) {
        headers.emplace_back(h);
    }
    ilp::stats::table out(headers);
    for (const auto& [key, s] : stages) {
        const auto& [flow, side, stage] = key;
        const double share =
            total_self_misses == 0
                ? 0.0
                : 100.0 * static_cast<double>(s.self_l1d_misses) /
                      static_cast<double>(total_self_misses);
        auto& row = out.row();
        if (per_flow) {
            if (flow < 0) {
                row.cell("-");
            } else {
                row.cell(static_cast<std::uint64_t>(flow));
            }
        }
        row.cell(side)
            .cell(stage)
            .cell(s.count)
            .cell(s.dur_us, 0)
            .cell(s.self_accesses)
            .cell(s.self_l1d_misses)
            .cell(share, 1)
            .cell(s.self_cycles);
    }
    out.print();
    std::printf("%zu stage(s), %llu span event(s), %llu instant(s)\n",
                stages.size(),
                static_cast<unsigned long long>([&] {
                    std::uint64_t n = 0;
                    for (const auto& [k, s] : stages) n += s.count;
                    return n;
                }()),
                static_cast<unsigned long long>(instants));

    // Exporter telemetry: sampling is policy (quiet note), ring overwrites
    // are data loss (loud warning, and a failure under --strict).
    std::uint64_t dropped = 0;
    std::uint64_t sampled_out = 0;
    if (const value* other = doc->find("otherData")) {
        dropped =
            static_cast<std::uint64_t>(other->number_at("dropped_events"));
        sampled_out =
            static_cast<std::uint64_t>(other->number_at("sampled_out"));
    }
    if (sampled_out > 0) {
        std::printf("%llu event(s) withheld by the flow sampler (policy)\n",
                    static_cast<unsigned long long>(sampled_out));
    }
    if (dropped > 0) {
        std::fprintf(stderr,
                     "ilp-trace: WARNING: tracer ring dropped %llu event(s) "
                     "-- the table above is incomplete; grow the ring or "
                     "sample fewer flows\n",
                     static_cast<unsigned long long>(dropped));
        if (strict) return 1;
    }
    return 0;
}

// ---------------------------------------------------------- summarize fleet

void print_latency(const value& node, const char* label) {
    const value* lat = node.find("latency");
    if (lat == nullptr) return;
    std::printf(
        "%s: count %llu  min %llu us  p50 %.0f us  p90 %.0f us  "
        "p99 %.0f us  max %llu us\n",
        label,
        static_cast<unsigned long long>(lat->number_at("count")),
        static_cast<unsigned long long>(lat->number_at("min_us")),
        lat->number_at("p50_us"), lat->number_at("p90_us"),
        lat->number_at("p99_us"),
        static_cast<unsigned long long>(lat->number_at("max_us")));
}

int cmd_summarize_fleet(const std::string& path, long long top, bool strict) {
    const std::optional<value> doc = ilp::json::parse_file(path);
    if (!doc.has_value()) {
        std::fprintf(stderr, "ilp-trace: cannot parse %s\n", path.c_str());
        return 2;
    }
    if (doc->string_at("kind") != "fleet_report") {
        std::fprintf(stderr, "ilp-trace: %s is not a fleet_report file\n",
                     path.c_str());
        return 2;
    }

    const auto flows = static_cast<unsigned long long>(doc->number_at("flows"));
    std::printf(
        "fleet: %llu flow(s)  %llu completed  %llu verified  %llu failed  "
        "%llu deadline_exceeded  digest %s\n",
        flows, static_cast<unsigned long long>(doc->number_at("completed")),
        static_cast<unsigned long long>(doc->number_at("verified")),
        static_cast<unsigned long long>(doc->number_at("failed")),
        static_cast<unsigned long long>(doc->number_at("deadline_exceeded")),
        doc->string_at("digest").c_str());
    print_latency(*doc, "flow latency");

    std::uint64_t trace_dropped = 0;
    if (const value* sampling = doc->find("sampling")) {
        const auto sampled = static_cast<unsigned long long>(
            sampling->number_at("sampled_flows"));
        trace_dropped = static_cast<std::uint64_t>(
            sampling->number_at("trace_dropped"));
        std::printf(
            "sampling: %llu/%llu flow(s) span-traced (%.2f %%, rate %llu "
            "permyriad, seed %llu)\n",
            sampled, flows,
            flows == 0 ? 0.0
                       : 100.0 * static_cast<double>(sampled) /
                             static_cast<double>(flows),
            static_cast<unsigned long long>(
                sampling->number_at("rate_permyriad")),
            static_cast<unsigned long long>(sampling->number_at("seed")));
    }

    if (const value* shards_v = doc->find("shards")) {
        if (const ilp::json::array* shards = shards_v->as_array()) {
            ilp::stats::table out({"shard", "flows", "completed", "failed",
                                   "rekeys", "elapsed us", "p50 us",
                                   "p99 us"});
            for (const value& s : *shards) {
                const value* lat = s.find("latency");
                out.row()
                    .cell(static_cast<std::uint64_t>(s.number_at("shard")))
                    .cell(static_cast<std::uint64_t>(s.number_at("flows")))
                    .cell(static_cast<std::uint64_t>(s.number_at("completed")))
                    .cell(static_cast<std::uint64_t>(s.number_at("failed")))
                    .cell(static_cast<std::uint64_t>(s.number_at("rekeys")))
                    .cell(
                        static_cast<std::uint64_t>(s.number_at("elapsed_us")))
                    .cell(lat == nullptr ? 0.0 : lat->number_at("p50_us"), 0)
                    .cell(lat == nullptr ? 0.0 : lat->number_at("p99_us"), 0);
            }
            out.print();
        }
    }

    if (const value* slowest_v = doc->find("top_slowest")) {
        if (const ilp::json::array* slowest = slowest_v->as_array()) {
            std::printf("slowest flow(s):");
            std::size_t shown = 0;
            for (const value& s : *slowest) {
                if (top > 0 && shown >= static_cast<std::size_t>(top)) break;
                std::printf(" %llu (%llu us)",
                            static_cast<unsigned long long>(
                                s.number_at("flow")),
                            static_cast<unsigned long long>(
                                s.number_at("elapsed_us")));
                ++shown;
            }
            std::printf("\n");
        }
    }

    if (const value* boxes_v = doc->find("black_boxes")) {
        if (const ilp::json::array* boxes = boxes_v->as_array()) {
            std::printf("%zu black box(es)\n", boxes->size());
            for (const value& b : *boxes) {
                const ilp::json::array* events =
                    b.find("events") == nullptr
                        ? nullptr
                        : b.find("events")->as_array();
                std::printf(
                    "  flow %llu shard %llu: %s, %zu/%llu event(s)\n",
                    static_cast<unsigned long long>(b.number_at("flow")),
                    static_cast<unsigned long long>(b.number_at("shard")),
                    b.string_at("outcome").c_str(),
                    events == nullptr ? 0 : events->size(),
                    static_cast<unsigned long long>(b.number_at("recorded")));
            }
        }
    }

    if (trace_dropped > 0) {
        std::fprintf(stderr,
                     "ilp-trace: WARNING: tracer ring dropped %llu event(s) "
                     "during the fleet run\n",
                     static_cast<unsigned long long>(trace_dropped));
        if (strict) return 1;
    }
    return 0;
}

// ----------------------------------------------------------------- validate

bool validate_trace(const value& doc, std::string& why) {
    const ilp::json::array* events = trace_events(doc);
    if (events == nullptr) {
        why = "no trace event array";
        return false;
    }
    for (std::size_t i = 0; i < events->size(); ++i) {
        const value& ev = (*events)[i];
        if (!ev.is_object()) {
            why = "event " + std::to_string(i) + " is not an object";
            return false;
        }
        const std::string ph = ev.string_at("ph");
        if (ph.empty()) {
            why = "event " + std::to_string(i) + " missing ph";
            return false;
        }
        if (ph == "X" &&
            (ev.find("ts") == nullptr || ev.find("dur") == nullptr ||
             ev.find("name") == nullptr)) {
            why = "complete event " + std::to_string(i) +
                  " missing ts/dur/name";
            return false;
        }
    }
    return true;
}

bool validate_bench(const value& doc, std::string& why) {
    const double version = doc.number_at("schema_version", -1);
    if (version < 2) {
        why = "schema_version missing or < 2";
        return false;
    }
    if (doc.find("bench") == nullptr || doc.find("metrics") == nullptr) {
        why = "missing bench/metrics";
        return false;
    }
    const ilp::json::array* metrics = doc.find("metrics")->as_array();
    if (metrics == nullptr) {
        why = "metrics is not an array";
        return false;
    }
    for (std::size_t i = 0; i < metrics->size(); ++i) {
        const value& m = (*metrics)[i];
        if (m.find("name") == nullptr || m.find("value") == nullptr ||
            m.find("better") == nullptr) {
            why = "metric " + std::to_string(i) + " missing name/value/better";
            return false;
        }
        const std::string better = m.string_at("better");
        if (better != "higher" && better != "lower" && better != "info") {
            why = "metric " + std::to_string(i) + " bad better: " + better;
            return false;
        }
    }
    return true;
}

int cmd_validate(const std::string& path) {
    const std::optional<value> doc = ilp::json::parse_file(path);
    if (!doc.has_value()) {
        std::fprintf(stderr, "ilp-trace: cannot parse %s\n", path.c_str());
        return 2;
    }
    std::string why;
    const bool is_bench = doc->find("schema_version") != nullptr;
    const bool ok = is_bench ? validate_bench(*doc, why)
                             : validate_trace(*doc, why);
    if (!ok) {
        std::fprintf(stderr, "ilp-trace: %s invalid (%s): %s\n", path.c_str(),
                     is_bench ? "BENCH schema" : "trace_event", why.c_str());
        return 2;
    }
    std::printf("%s: valid %s\n", path.c_str(),
                is_bench ? "BENCH schema v2 file" : "Chrome trace_event file");
    return 0;
}

// --------------------------------------------------------------------- diff

struct metric_entry {
    double value = 0;
    std::string unit;
    std::string better;
};

std::map<std::string, metric_entry> load_metrics(const value& doc) {
    std::map<std::string, metric_entry> out;
    const value* metrics = doc.find("metrics");
    const ilp::json::array* arr =
        metrics == nullptr ? nullptr : metrics->as_array();
    if (arr == nullptr) return out;
    for (const value& m : *arr) {
        out[m.string_at("name")] = {m.number_at("value"), m.string_at("unit"),
                                    m.string_at("better")};
    }
    return out;
}

int cmd_diff(const std::string& old_path, const std::string& new_path,
             double threshold_pct) {
    const std::optional<value> old_doc = ilp::json::parse_file(old_path);
    const std::optional<value> new_doc = ilp::json::parse_file(new_path);
    if (!old_doc.has_value() || !new_doc.has_value()) {
        std::fprintf(stderr, "ilp-trace: cannot parse %s\n",
                     old_doc.has_value() ? new_path.c_str()
                                         : old_path.c_str());
        return 2;
    }
    std::string why;
    if (!validate_bench(*old_doc, why)) {
        std::fprintf(stderr, "ilp-trace: %s: %s\n", old_path.c_str(),
                     why.c_str());
        return 2;
    }
    if (!validate_bench(*new_doc, why)) {
        std::fprintf(stderr, "ilp-trace: %s: %s\n", new_path.c_str(),
                     why.c_str());
        return 2;
    }

    const auto old_metrics = load_metrics(*old_doc);
    const auto new_metrics = load_metrics(*new_doc);

    ilp::stats::table out(
        {"metric", "old", "new", "delta %", "better", "verdict"});
    int regressions = 0;
    for (const auto& [name, o] : old_metrics) {
        const auto it = new_metrics.find(name);
        if (it == new_metrics.end()) {
            out.row().cell(name).cell(o.value, 4).cell("-").cell("-")
                .cell(o.better).cell("MISSING");
            if (o.better != "info") ++regressions;
            continue;
        }
        const metric_entry& n = it->second;
        const double delta_pct =
            o.value == 0.0
                ? (n.value == 0.0 ? 0.0 : 100.0)
                : 100.0 * (n.value - o.value) / std::fabs(o.value);
        const char* verdict = "ok";
        if (o.better == "higher" && delta_pct < -threshold_pct) {
            verdict = "REGRESSION";
            ++regressions;
        } else if (o.better == "lower" && delta_pct > threshold_pct) {
            verdict = "REGRESSION";
            ++regressions;
        } else if (o.better != "info" &&
                   std::fabs(delta_pct) > threshold_pct) {
            verdict = "improved";
        }
        out.row()
            .cell(name)
            .cell(o.value, 4)
            .cell(n.value, 4)
            .cell(delta_pct, 2)
            .cell(o.better)
            .cell(verdict);
    }
    for (const auto& [name, n] : new_metrics) {
        if (old_metrics.find(name) != old_metrics.end()) continue;
        out.row().cell(name).cell("-").cell(n.value, 4).cell("-")
            .cell(n.better).cell("new");
    }
    out.print();
    std::printf("threshold %.2f %%: %d regression(s)\n", threshold_pct,
                regressions);
    return regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::string command;
    std::vector<std::string> paths;
    double threshold_pct = 5.0;
    bool per_flow = false;
    bool fleet = false;
    bool strict = false;
    long long top = 0;  // 0 = unlimited
    const auto parse_top = [&](const char* text) {
        char* end = nullptr;
        top = std::strtoll(text, &end, 10);
        if (end == nullptr || *end != '\0' || top <= 0) {
            std::fprintf(stderr, "ilp-trace: bad --top %s\n", text);
            return false;
        }
        return true;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--per-flow") {
            per_flow = true;
        } else if (arg == "--fleet") {
            fleet = true;
        } else if (arg == "--strict") {
            strict = true;
        } else if (arg.rfind("--top=", 0) == 0) {
            if (!parse_top(arg.c_str() + 6)) return 2;
        } else if (arg == "--top") {
            if (i + 1 >= argc || !parse_top(argv[++i])) return 2;
        } else if (arg.rfind("--threshold=", 0) == 0) {
            char* end = nullptr;
            threshold_pct = std::strtod(arg.c_str() + 12, &end);
            if (end == nullptr || *end != '\0' || threshold_pct < 0) {
                std::fprintf(stderr, "ilp-trace: bad threshold %s\n",
                             arg.c_str());
                return 2;
            }
        } else if (arg == "--diff") {
            command = "diff";  // `ilp-trace --diff old new` spelling
        } else if (command.empty()) {
            command = arg;
        } else {
            paths.push_back(arg);
        }
    }
    if (command == "summarize" && paths.size() == 1) {
        return fleet ? cmd_summarize_fleet(paths[0], top, strict)
                     : cmd_summarize(paths[0], per_flow, top, strict);
    }
    if (command == "validate" && paths.size() == 1) {
        return cmd_validate(paths[0]);
    }
    if (command == "diff" && paths.size() == 2) {
        return cmd_diff(paths[0], paths[1], threshold_pct);
    }
    return usage();
}
