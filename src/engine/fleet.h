// Fleet runner: shards a population of flows across workers and aggregates
// one fleet_report.
//
// Flow f runs on shard f % shards.  Shards share nothing — each owns its
// virtual clock, links, demuxes, ports, store and memory policies — so
// `threaded` mode (one OS thread per shard) produces bit-identical per-flow
// outcomes to the serial order; tests/engine_test.cpp pins that down with
// fleet_report::digest().  Per-flow determinism goes further: because every
// per-flow random stream (fault coins, cipher key) is seed-split by flow id,
// the digest is also invariant under the shard *count* — re-packing flows
// onto more workers changes which shared link a flow crosses but not what
// happens to it (as long as the shared kernel queue is unbounded; a finite
// shared queue couples co-located flows by design).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/gate.h"
#include "engine/shard.h"
#include "memsim/configs.h"
#include "obs/counters.h"
#include "obs/registry.h"
#include "util/rng.h"

namespace ilp::engine {

struct fleet_config {
    std::uint32_t flows = 1;
    std::uint32_t shards = 1;
    // Run each shard on its own OS thread (shards stay deterministic: they
    // share no state, and worker threads carry no tracer).
    bool threaded = false;
    sched_policy policy = sched_policy::round_robin;
    std::size_t drr_quantum_bytes = 4096;
    sim_time poll_step_us = 200;
    sim_time link_latency_us = 100;
    std::uint64_t key_seed = 0x22bb;
    // Per-flow fair-share cap inside each shared kernel queue (0 = off).
    std::size_t per_flow_queue_cap = 0;
    // Deterministic trace sampling (obs/sampler.h): which flows' spans the
    // installed tracer's ring keeps.  A pure function of (seed, flow id),
    // so the sampled set is invariant under shards/threads — and sampling
    // can never perturb protocol behaviour or the fleet digest.
    obs::flow_sampler trace_sampler{};
    flow_config defaults{};
    // Per-flow override hook, applied to a copy of `defaults` before the
    // flow opens (e.g. give 10% of flows a Gilbert–Elliott loss plan).
    std::function<void(std::uint32_t, flow_config&)> per_flow{};
};

// Per-shard rollup: what the shard's shared reply link and its two memory
// systems saw — the cache-contention view the per-flow outcomes can't give.
struct shard_summary {
    std::uint32_t shard = 0;
    std::uint32_t flows = 0;
    std::uint32_t completed = 0;
    std::uint32_t failed = 0;  // explicit-failure taxonomy outcomes
    std::uint64_t rekeys = 0;  // server epoch advances, all flows
    sim_time elapsed_us = 0;  // the shard clock's final reading
    net::pipe_stats reply_data;
    net::pipe_stats reply_ack;
    obs::mem_counters client_mem;  // zero under direct_memory
    obs::mem_counters server_mem;
    // Composition-legality gate activity on this shard (one setup check
    // per side of every ILP flow, verdict-cache hits).
    analysis::gate_stats gate;
    // Per-shard flow-latency sketch (log2 buckets over every finished
    // flow's elapsed_us) and the bounded slowest-flow identities: the O(1)
    // replacement for per-flow latency state.
    obs::histogram latency;
    std::vector<slow_flow> slowest;
    // Engine internals: the shard clock's timer population and the peak
    // packet count queued on any one of the shard's four pipes.
    clock_stats clock;
    std::uint64_t pipe_in_flight_max = 0;
};

struct fleet_report {
    std::vector<flow_outcome> flows;  // sorted by flow id
    std::vector<shard_summary> shards;
    std::uint32_t completed = 0;
    std::uint32_t verified = 0;
    std::uint32_t failed = 0;  // gave_up + request_rejected + ports_exhausted
    std::uint32_t deadline_exceeded = 0;
    std::uint32_t trace_sampled = 0;  // flows the sampler selected for spans
    std::uint64_t payload_bytes = 0;
    sim_time max_elapsed_us = 0;  // slowest shard's clock
    // The sampler the fleet ran under (echoed into the JSON export).
    obs::flow_sampler sampler;
    // Fleet-wide flow-latency sketch: the per-shard log2 sketches merged.
    // Its p99 is the BENCH_scale gating metric `fleet.flow_latency.p99`.
    obs::histogram flow_latency;
    // Fleet-wide slowest flows, merged from the per-shard bounded lists.
    std::vector<slow_flow> slowest;
    // Aggregates under engine.* names, ready to merge into a bench report.
    obs::registry metrics;

    // Payload bits over the slowest shard's virtual time.
    double aggregate_throughput_mbps() const;
    // Order-independent fingerprint of every flow's outcome, excluding
    // shard-dependent fields (shard index, scheduler grants, shared-queue
    // drops).  Equal digests mean equal per-flow behaviour; the determinism,
    // shard-invariance and threaded-parity tests all compare digests.
    std::uint64_t digest() const;
    // Sorts flows and computes the aggregate fields and metrics.
    void finalize();
};

// JSON export of the fleet's observability state: per-shard rollups with
// latency sketches, the fleet-wide top-k slowest flows, sampling coverage,
// and a flight-recorder "black box" dump for every flow that failed
// explicitly.  `ilp-trace summarize
// --fleet` renders it; CI validates and archives it.
std::string fleet_report_json(const fleet_report& report);
bool write_fleet_report_json(const fleet_report& report,
                             const std::string& path);

// Key size for the per-flow static cipher; ciphers without a declared
// key_bytes (rc4 takes any length) get the historical 8-byte key.
template <typename C>
constexpr std::size_t cipher_key_bytes() {
    if constexpr (requires { C::key_bytes; }) {
        return C::key_bytes;
    } else {
        return 8;
    }
}

// Runs `cfg.flows` transfers to completion.  `shard_mems(s)` supplies shard
// s's (client, server) memory-policy pair — the hook that gives every shard
// its own memsim::memory_system in simulated runs.
template <memsim::memory_policy Mem, crypto::block_cipher Cipher,
          typename MemFactory>
fleet_report run_fleet(const fleet_config& cfg, MemFactory&& shard_mems) {
    ILP_EXPECT(cfg.shards > 0);
    shard_options opts;
    opts.link_latency_us = cfg.link_latency_us;
    opts.poll_step_us = cfg.poll_step_us;
    opts.per_flow_queue_cap = cfg.per_flow_queue_cap;
    opts.policy = cfg.policy;
    opts.drr_quantum_bytes = cfg.drr_quantum_bytes;
    opts.trace_sampler = cfg.trace_sampler;

    std::vector<std::unique_ptr<shard<Mem, Cipher>>> workers;
    workers.reserve(cfg.shards);
    for (std::uint32_t s = 0; s < cfg.shards; ++s) {
        auto mems = shard_mems(s);
        workers.push_back(std::make_unique<shard<Mem, Cipher>>(
            s, opts, mems.first, mems.second));
    }

    for (std::uint32_t f = 0; f < cfg.flows; ++f) {
        flow_config fc = cfg.defaults;
        if (cfg.per_flow) cfg.per_flow(f, fc);
        // Per-flow secrets from a flow-split stream: flow f's key material
        // is the same whatever shard it lands on (the digest-invariance
        // contract extends to rekeying).
        if (fc.secure && fc.flow_secret == 0) {
            fc.flow_secret = derive_seed(cfg.key_seed, 0x5ec00000ull + f);
        }
        // Per-flow static cipher key, sized for the cipher in use.
        std::array<std::byte, cipher_key_bytes<Cipher>()> key{};
        rng key_rng(derive_seed(cfg.key_seed, f));
        key_rng.fill(key);
        const Cipher cipher{std::span<const std::byte>(key)};
        workers[f % cfg.shards]->open_flow(f, fc, cipher, cipher);
    }

    if (cfg.threaded && cfg.shards > 1) {
        std::vector<std::thread> threads;
        threads.reserve(workers.size());
        for (auto& w : workers) {
            threads.emplace_back([&w] { w->run(); });
        }
        for (auto& t : threads) t.join();
    } else {
        for (auto& w : workers) w->run();
    }

    fleet_report report;
    report.sampler = cfg.trace_sampler;
    report.shards.reserve(workers.size());
    for (auto& w : workers) {
        shard_summary s;
        s.shard = w->index();
        s.elapsed_us = w->clock().now();
        s.reply_data = w->reply_link().forward().stats();
        s.reply_ack = w->reply_link().reverse().stats();
        if (const memsim::memory_system* sys =
                obs::attribution_source(w->client_mem())) {
            s.client_mem = obs::sample_counters(*sys);
        }
        if (const memsim::memory_system* sys =
                obs::attribution_source(w->server_mem())) {
            s.server_mem = obs::sample_counters(*sys);
        }
        s.gate = w->gate().stats();
        s.clock = w->clock().stats();
        for (net::datagram_pipe* p :
             {&w->request_link().forward(), &w->request_link().reverse(),
              &w->reply_link().forward(), &w->reply_link().reverse()}) {
            s.pipe_in_flight_max =
                std::max(s.pipe_in_flight_max, p->stats().in_flight_max);
        }
        s.latency = w->latency_sketch();
        s.slowest = w->slowest_flows();
        std::sort(s.slowest.begin(), s.slowest.end(),
                  [](const slow_flow& a, const slow_flow& b) {
                      return a.elapsed_us != b.elapsed_us
                                 ? a.elapsed_us > b.elapsed_us
                                 : a.flow_id < b.flow_id;
                  });
        for (const flow_outcome& o : w->outcomes()) {
            ++s.flows;
            if (o.completed) ++s.completed;
            if (o.failed_explicitly()) ++s.failed;
            s.rekeys += o.rekeys;
            report.flows.push_back(o);
        }
        report.shards.push_back(s);
    }
    report.finalize();
    return report;
}

// Native fleet: every side of every shard uses raw memory.
template <crypto::block_cipher Cipher>
fleet_report run_fleet_native(const fleet_config& cfg) {
    return run_fleet<memsim::direct_memory, Cipher>(cfg, [](std::uint32_t) {
        return std::pair<memsim::direct_memory, memsim::direct_memory>{};
    });
}

// Simulated fleet: each shard gets its own pair of cache simulators (client
// side, server side), so shard_summary reports per-shard cache contention.
template <crypto::block_cipher Cipher>
fleet_report run_fleet_simulated(const fleet_config& cfg,
                                 const memsim::memory_system_config& mc) {
    std::vector<std::unique_ptr<memsim::memory_system>> systems;
    systems.reserve(static_cast<std::size_t>(cfg.shards) * 2);
    for (std::uint32_t s = 0; s < cfg.shards; ++s) {
        systems.push_back(std::make_unique<memsim::memory_system>(mc));
        systems.push_back(std::make_unique<memsim::memory_system>(mc));
    }
    return run_fleet<memsim::sim_memory, Cipher>(cfg, [&](std::uint32_t s) {
        return std::pair<memsim::sim_memory, memsim::sim_memory>(
            memsim::sim_memory(*systems[2 * s]),
            memsim::sim_memory(*systems[2 * s + 1]));
    });
}

}  // namespace ilp::engine
