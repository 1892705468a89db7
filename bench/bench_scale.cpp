// Throughput vs. concurrent flow count, ILP vs. layered, on the multi-flow
// engine (engine::run_fleet): the scaling companion to the single-flow
// figure benches.
//
// Sweeps fleet sizes on a 4-shard deficit-round-robin engine, re-runs the
// largest fleet to assert the determinism contract (same seed -> same
// fleet_report digest; a mismatch fails the bench), and reports per-shard
// cache contention from a simulated-memory fleet.  Emits the versioned
// BENCH JSON schema; the checked-in baseline (bench/baselines/
// BENCH_scale.json) records the `--smoke` sweep that CI diffs against.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "crypto/safer_simplified.h"
#include "engine/fleet.h"
#include "memsim/configs.h"
#include "obs/bench_json.h"
#include "obs/export_chrome.h"
#include "obs/tracer.h"

namespace {

using ilp::engine::fleet_config;
using ilp::engine::fleet_report;

fleet_config fleet_of(std::uint32_t flows, ilp::app::path_mode mode) {
    fleet_config cfg;
    cfg.flows = flows;
    cfg.shards = 4;
    cfg.policy = ilp::engine::sched_policy::deficit_round_robin;
    cfg.defaults.mode = mode;
    cfg.defaults.file_bytes = 15 * 1024;  // the paper's transfer unit
    cfg.defaults.packet_wire_bytes = 1024;
    return cfg;
}

void report_fleet(ilp::obs::bench_report& report, const std::string& key,
                  const fleet_report& r) {
    using ilp::obs::direction;
    report.metric(key + ".completed", static_cast<double>(r.completed),
                  "count", direction::higher_is_better);
    report.metric(key + ".verified", static_cast<double>(r.verified), "count",
                  direction::higher_is_better);
    report.metric(key + ".failed", static_cast<double>(r.failed), "count",
                  direction::lower_is_better);
    report.metric(key + ".aggregate_goodput_mbps",
                  r.aggregate_throughput_mbps(), "mbps",
                  direction::higher_is_better);
    report.metric(key + ".max_elapsed_ms",
                  static_cast<double>(r.max_elapsed_us) / 1000.0, "ms",
                  direction::lower_is_better);
    report.metric(key + ".rpc_retries",
                  static_cast<double>(r.metrics.counter("engine.rpc_retries")),
                  "count", direction::lower_is_better);
    report.metric(
        key + ".tcp_retransmissions",
        static_cast<double>(r.metrics.counter("engine.tcp_retransmissions")),
        "count", direction::lower_is_better);
    if (const ilp::obs::histogram* h =
            r.metrics.find_hist("engine.flow_elapsed_us")) {
        report.histogram_metric(key + ".flow_elapsed_us", *h, "us");
    }
}

// The 10k-flow smoke tier: small files so the fleet fits CI, a deterministic
// doomed minority so the flight-recorder black boxes have something to say,
// and a 1% trace-sampling policy whose selected set is a pure function of
// (seed, flow id).  499 is odd and coprime to the shard count, so each doom
// class (~21 flows) spreads across all four shards.
fleet_config fleet10k(std::uint32_t rate_permyriad) {
    fleet_config cfg = fleet_of(10'000, ilp::app::path_mode::ilp);
    cfg.defaults.file_bytes = 2048;
    cfg.trace_sampler.seed = 0x0b5eedull;
    cfg.trace_sampler.rate_permyriad = rate_permyriad;
    cfg.per_flow = [](std::uint32_t f, ilp::engine::flow_config& fc) {
        switch (f % 499) {
            case 3:  // total reply loss + tiny retry budget -> gave_up
                fc.forward_faults.drop_probability = 1.0;
                fc.retry.max_attempts = 2;
                fc.retry.response_timeout_us = 2'000;
                fc.retry.backoff_us = 1'000;
                fc.retry.max_backoff_us = 1'000;
                break;
            case 7:  // total reply loss + 10ms deadline -> deadline_exceeded
                fc.forward_faults.drop_probability = 1.0;
                fc.deadline_us = 10'000;
                break;
            default:
                break;
        }
    };
    return cfg;
}

double run_seconds(const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

// Wall-clock scaling leg: seconds to run `flows` 2 KB ILP flows to
// completion, or a negative value if any flow did not complete.
double fleet_wall_seconds(std::uint32_t flows) {
    fleet_config cfg = fleet_of(flows, ilp::app::path_mode::ilp);
    cfg.defaults.file_bytes = 2048;
    fleet_report r;
    const double s = run_seconds([&] {
        r = ilp::engine::run_fleet_native<ilp::crypto::safer_simplified>(cfg);
    });
    return r.completed == flows ? s : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace ilp;
    using cipher = crypto::safer_simplified;

    bool smoke = false;
    std::string json_path;
    std::string trace_path;
    std::string fleet_json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg.rfind("--trace=", 0) == 0) {
            trace_path = arg.substr(8);
        } else if (arg.rfind("--fleet-json=", 0) == 0) {
            fleet_json_path = arg.substr(13);
        } else {
            std::fprintf(stderr,
                         "usage: bench_scale [--smoke] [--json=PATH] "
                         "[--trace=PATH] [--fleet-json=PATH]\n");
            return 2;
        }
    }

    // The smoke sweep is a strict prefix of the full one, so the checked-in
    // smoke baseline stays diffable against full runs.
    const std::vector<std::uint32_t> counts =
        smoke ? std::vector<std::uint32_t>{4, 16}
              : std::vector<std::uint32_t>{4, 16, 64, 256};

    obs::bench_report report("scale");
    report.meta("file_kb", "15");
    report.meta("packet_bytes", "1024");
    report.meta("shards", "4");
    report.meta("policy", "deficit_round_robin");
    report.meta("cipher", "safer_simplified");

    for (const std::uint32_t n : counts) {
        for (const app::path_mode mode :
             {app::path_mode::ilp, app::path_mode::layered}) {
            const fleet_report r =
                engine::run_fleet_native<cipher>(fleet_of(n, mode));
            const std::string key =
                "f" + std::to_string(n) +
                (mode == app::path_mode::ilp ? ".ilp" : ".layered");
            report_fleet(report, key, r);
        }
    }

    // Determinism gate: the largest fleet, twice, must produce identical
    // per-flow outcomes.
    const std::uint32_t largest = counts.back();
    const fleet_report once =
        engine::run_fleet_native<cipher>(fleet_of(largest, app::path_mode::ilp));
    const fleet_report again =
        engine::run_fleet_native<cipher>(fleet_of(largest, app::path_mode::ilp));
    if (once.digest() != again.digest()) {
        std::fprintf(stderr,
                     "ERROR: fleet of %u flows is not deterministic "
                     "(digest %016llx vs %016llx)\n",
                     largest, static_cast<unsigned long long>(once.digest()),
                     static_cast<unsigned long long>(again.digest()));
        return 1;
    }
    report.metric("determinism.digest_stable", 1.0, "bool",
                  obs::direction::higher_is_better);

    // Per-shard cache contention, ILP vs. layered: a small fleet over
    // simulated memory, one client/server memory-system pair per shard.
    // Virtual-clock goodput is path-agnostic by construction, so this is
    // where the ILP-vs-layered difference shows: memory cycles per
    // delivered byte under concurrent flows.
    for (const app::path_mode mode :
         {app::path_mode::ilp, app::path_mode::layered}) {
        fleet_config sim_cfg = fleet_of(8, mode);
        sim_cfg.shards = 2;
        const fleet_report sim = engine::run_fleet_simulated<cipher>(
            sim_cfg, memsim::supersparc_no_l2());
        const std::string mode_key =
            mode == app::path_mode::ilp ? "sim.ilp" : "sim.layered";
        std::uint64_t total_cycles = 0;
        for (const engine::shard_summary& s : sim.shards) {
            const std::string key = mode_key + ".shard" + std::to_string(s.shard);
            total_cycles += s.client_mem.cycles + s.server_mem.cycles;
            report.metric(key + ".mem_cycles",
                          static_cast<double>(s.client_mem.cycles +
                                              s.server_mem.cycles),
                          "cycles", obs::direction::info);
            report.metric(key + ".l1d_misses",
                          static_cast<double>(s.client_mem.l1d_misses +
                                              s.server_mem.l1d_misses),
                          "count", obs::direction::info);
        }
        report.metric(mode_key + ".cycles_per_byte",
                      sim.payload_bytes == 0
                          ? 0.0
                          : static_cast<double>(total_cycles) /
                                static_cast<double>(sim.payload_bytes),
                      "cycles", obs::direction::lower_is_better);
    }

    // 10k-flow smoke tier: the fleet-observability workout.  One untraced
    // run is the behavioural reference; a tracer-installed 1%-sampled run
    // must match its digest exactly (observability can see the fleet but
    // never steer it) and stay within a bounded wall-clock overhead; 0% and
    // 100% sampling runs pin down that the sampling *rate* cannot perturb
    // outcomes either.
    {
        fleet_report plain;
        const double untraced_s = run_seconds([&] {
            plain = engine::run_fleet_native<cipher>(fleet10k(100));
        });

        // 1% of 10k flows span-trace ~100k events; size the ring so the
        // canonical run keeps them all (dropped == 0 is part of the gate).
        obs::tracer tracer(1 << 18);
        obs::tracer* prev = obs::tracer::install(&tracer);
        fleet_report traced;
        const double traced_s = run_seconds([&] {
            traced = engine::run_fleet_native<cipher>(fleet10k(100));
        });
        obs::tracer::install(prev);
        traced.metrics.add("obs.trace.dropped", tracer.dropped());

        if (traced.digest() != plain.digest()) {
            std::fprintf(stderr,
                         "ERROR: tracing perturbed the 10k fleet "
                         "(digest %016llx untraced vs %016llx traced)\n",
                         static_cast<unsigned long long>(plain.digest()),
                         static_cast<unsigned long long>(traced.digest()));
            return 1;
        }
        bool sampling_stable = true;
        for (const std::uint32_t rate : {0u, 10'000u}) {
            obs::tracer t(1 << 16);
            obs::tracer* p = obs::tracer::install(&t);
            const fleet_report r =
                engine::run_fleet_native<cipher>(fleet10k(rate));
            obs::tracer::install(p);
            if (r.digest() != plain.digest()) {
                std::fprintf(
                    stderr,
                    "ERROR: sampling rate %u permyriad perturbed the 10k "
                    "fleet (digest %016llx vs %016llx)\n",
                    rate, static_cast<unsigned long long>(plain.digest()),
                    static_cast<unsigned long long>(r.digest()));
                sampling_stable = false;
            }
        }
        if (!sampling_stable) return 1;

        // Wall-clock overhead of always-on observability (flight recorders,
        // latency sketches, aggregates) plus 1% span sampling.  Wall time is
        // machine-dependent, so the ratio is an info metric — but a blow-up
        // is a bug, so the bench itself enforces the bound.
        const double overhead =
            untraced_s > 0.0 ? traced_s / untraced_s : 1.0;
        if (overhead > 2.0) {
            std::fprintf(stderr,
                         "ERROR: observability overhead ratio %.2f exceeds "
                         "2.0 (untraced %.2fs, traced %.2fs)\n",
                         overhead, untraced_s, traced_s);
            return 1;
        }

        report.meta("fleet10k_flows", "10000");
        report.meta("fleet10k_file_bytes", "2048");
        report.meta("fleet10k_sampling_permyriad", "100");
        report.metric("fleet.completed", static_cast<double>(traced.completed),
                      "count", obs::direction::higher_is_better);
        report.metric("fleet.verified", static_cast<double>(traced.verified),
                      "count", obs::direction::higher_is_better);
        report.metric("fleet.failed", static_cast<double>(traced.failed),
                      "count", obs::direction::lower_is_better);
        report.metric("fleet.deadline_exceeded",
                      static_cast<double>(traced.deadline_exceeded), "count",
                      obs::direction::lower_is_better);
        report.histogram_metric("fleet.flow_latency", traced.flow_latency,
                                "us");
        report.metric("obs.trace.sampled_flows",
                      static_cast<double>(traced.trace_sampled), "count",
                      obs::direction::info);
        report.metric("obs.trace.dropped",
                      static_cast<double>(tracer.dropped()), "count",
                      obs::direction::lower_is_better);
        report.metric("fleet.sampling_digest_stable", 1.0, "bool",
                      obs::direction::higher_is_better);
        report.metric("fleet.obs_overhead_ratio", overhead, "ratio",
                      obs::direction::info);

        if (!fleet_json_path.empty() &&
            !engine::write_fleet_report_json(traced, fleet_json_path)) {
            std::fprintf(stderr, "ERROR: cannot write %s\n",
                         fleet_json_path.c_str());
            return 1;
        }
    }

    // Scaling gate: per-event engine work must not grow with the flow
    // count, so 4x the flows may take at most 6x the wall time (a linear
    // engine gives ~4x, a quadratic one ~16x).  Wall time is
    // machine-dependent, so the numbers are info metrics, but the exponent
    // is enforced here, like the observability overhead above.
    {
        // Three interleaved (N, 4N) pairs, gated on the median ratio, so one
        // loaded-host hiccup in a single run cannot fail a correct tree.
        constexpr std::uint32_t n = 2'000;
        std::array<double, 3> t_n{}, t_4n{}, ratios{};
        for (std::size_t i = 0; i < ratios.size(); ++i) {
            t_n[i] = fleet_wall_seconds(n);
            t_4n[i] = fleet_wall_seconds(4 * n);
            if (t_n[i] <= 0.0 || t_4n[i] <= 0.0) {
                std::fprintf(stderr, "ERROR: scaling-leg fleet failed\n");
                return 1;
            }
            ratios[i] = t_4n[i] / t_n[i];
        }
        const auto median = [](std::array<double, 3> v) {
            std::sort(v.begin(), v.end());
            return v[1];
        };
        const double ratio = median(ratios);
        if (ratio > 6.0) {
            std::fprintf(stderr,
                         "ERROR: median t(4N)/t(N) = %.2f exceeds 6.0 "
                         "(%u vs %u flows; pair ratios %.2f %.2f %.2f)\n",
                         ratio, n, 4 * n, ratios[0], ratios[1], ratios[2]);
            return 1;
        }
        const double med_t_n = median(t_n);
        const double med_t_4n = median(t_4n);
        report.meta("scale_wall_file_bytes", "2048");
        report.metric("scale.wall.flows_per_s.2k", n / med_t_n, "flows/s",
                      obs::direction::info);
        report.metric("scale.wall.flows_per_s.8k", 4 * n / med_t_4n, "flows/s",
                      obs::direction::info);
        report.metric("scale.wall.t4n_over_tn", ratio, "ratio",
                      obs::direction::info);
    }

    if (!trace_path.empty()) {
        // One extra instrumented fleet on a single serial shard (the tracer
        // is thread-local): every span carries its flow id, so
        // `ilp-trace summarize --per-flow` attributes stage costs per flow.
        obs::tracer tracer(1 << 16);
        obs::tracer* prev = obs::tracer::install(&tracer);
        fleet_config traced = fleet_of(4, app::path_mode::ilp);
        traced.shards = 1;
        const fleet_report r = engine::run_fleet_native<cipher>(traced);
        obs::tracer::install(prev);
        if (r.completed != traced.flows) {
            std::fprintf(stderr, "ERROR: traced fleet failed\n");
            return 1;
        }
        if (!obs::write_chrome_trace(tracer, trace_path,
                                     obs::trace_timebase::sim_us)) {
            std::fprintf(stderr, "ERROR: cannot write %s\n",
                         trace_path.c_str());
            return 1;
        }
    }

    std::fputs(report.render().c_str(), stdout);
    if (!json_path.empty() && !report.write(json_path)) {
        std::fprintf(stderr, "ERROR: cannot write %s\n", json_path.c_str());
        return 1;
    }
    return 0;
}
