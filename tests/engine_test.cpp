// Tests for the concurrent multi-flow engine: flow-table lifecycle and port
// recycling, DRR fairness bounds, backpressure under a pathological flow,
// chaos runs with bursty-lossy flows, and the determinism contract (same
// seed -> same fleet digest, invariant under shard count and under running
// shards on real threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "app/harness.h"
#include "crypto/aead.h"
#include "crypto/safer_simplified.h"
#include "engine/fleet.h"
#include "engine/shard.h"
#include "memsim/configs.h"
#include "memsim/mem_policy.h"
#include "obs/tracer.h"
#include "rpc/messages.h"
#include "util/rng.h"

namespace ilp::engine {
namespace {

using memsim::direct_memory;
using cipher = crypto::safer_simplified;
using test_shard = shard<direct_memory, cipher>;

cipher make_cipher(std::uint64_t seed) {
    std::array<std::byte, 8> key;
    rng key_rng(seed);
    key_rng.fill(key);
    return cipher{std::span<const std::byte>(key)};
}

flow_config small_flow(std::size_t file_bytes = 4 * 1024) {
    flow_config fc;
    fc.file_bytes = file_bytes;
    fc.packet_wire_bytes = 1024;
    return fc;
}

// --- flow table lifecycle --------------------------------------------------

TEST(EngineShard, SingleFlowCompletesAndRecyclesPorts) {
    shard_options opts;
    test_shard s(0, opts, direct_memory{}, direct_memory{});
    const cipher c = make_cipher(1);
    ASSERT_TRUE(s.open_flow(0, small_flow(), c, c));
    EXPECT_EQ(s.ports().allocated(), 4u);  // 4 pipe directions per flow
    EXPECT_EQ(s.active_flows(), 1u);
    s.run();
    const flow_outcome& o = s.outcome(0);
    EXPECT_TRUE(o.completed);
    EXPECT_TRUE(o.verified);
    EXPECT_GT(o.payload_bytes, 0u);
    // Teardown returned the flow's ports to the allocator.
    EXPECT_EQ(s.ports().allocated(), 0u);
    EXPECT_EQ(s.active_flows(), 0u);
}

TEST(EngineShard, PortExhaustionIsAnExplicitOutcome) {
    shard_options opts;
    opts.first_port = 100;
    opts.last_port = 107;  // room for exactly two flows (4 ports each)
    test_shard s(0, opts, direct_memory{}, direct_memory{});
    const cipher c = make_cipher(1);
    ASSERT_TRUE(s.open_flow(0, small_flow(), c, c));
    ASSERT_TRUE(s.open_flow(1, small_flow(), c, c));
    EXPECT_FALSE(s.open_flow(2, small_flow(), c, c));
    EXPECT_TRUE(s.outcome(2).ports_exhausted);
    EXPECT_EQ(s.active_flows(), 2u);  // the failed open holds no resources

    s.run();
    EXPECT_TRUE(s.outcome(0).completed && s.outcome(0).verified);
    EXPECT_TRUE(s.outcome(1).completed && s.outcome(1).verified);
    // With both flows torn down, a new flow can reuse the recycled ports.
    ASSERT_TRUE(s.open_flow(3, small_flow(), c, c));
    s.run();
    EXPECT_TRUE(s.outcome(3).completed && s.outcome(3).verified);
}

TEST(EngineShard, CloseFlowRecordsPartialOutcomeAndFreesResources) {
    shard_options opts;
    test_shard s(0, opts, direct_memory{}, direct_memory{});
    const cipher c = make_cipher(1);
    ASSERT_TRUE(s.open_flow(0, small_flow(64 * 1024), c, c));
    s.tick();  // a little progress, nowhere near completion
    s.close_flow(0);
    const flow_outcome& o = s.outcome(0);
    EXPECT_FALSE(o.completed);
    EXPECT_EQ(s.active_flows(), 0u);
    EXPECT_EQ(s.ports().allocated(), 0u);
    // The shard stays usable after an early close.
    ASSERT_TRUE(s.open_flow(1, small_flow(), c, c));
    s.run();
    EXPECT_TRUE(s.outcome(1).completed);
}

// --- DRR fairness ----------------------------------------------------------

// Two backlogged flows with very different segment sizes must be granted
// wire bytes at the same rate under deficit round-robin: over the whole
// contention period the cumulative grant difference stays bounded by one
// quantum plus one maximum segment (+ slack for TCP window stalls), instead
// of growing with the segment-size ratio.
TEST(EngineScheduler, DrrBoundsByteShareAcrossSegmentSizes) {
    shard_options opts;
    opts.policy = sched_policy::deficit_round_robin;
    opts.drr_quantum_bytes = 2048;
    test_shard s(0, opts, direct_memory{}, direct_memory{});
    const cipher c = make_cipher(1);
    flow_config small = small_flow(48 * 1024);
    small.packet_wire_bytes = 512;
    flow_config large = small_flow(48 * 1024);
    large.packet_wire_bytes = 1408;
    ASSERT_TRUE(s.open_flow(0, small, c, c));
    ASSERT_TRUE(s.open_flow(1, large, c, c));

    const std::uint64_t bound = opts.drr_quantum_bytes + 1408 + 2048;
    std::uint64_t max_diff = 0;
    while (s.active_flows() == 2) {
        s.tick();
        const std::uint64_t a = s.serviced_bytes(0);
        const std::uint64_t b = s.serviced_bytes(1);
        max_diff = std::max(max_diff, a > b ? a - b : b - a);
    }
    EXPECT_LE(max_diff, bound);
    s.run();
    EXPECT_TRUE(s.outcome(0).completed && s.outcome(0).verified);
    EXPECT_TRUE(s.outcome(1).completed && s.outcome(1).verified);
}

// Under plain round-robin the same pair diverges (each visit drains the TCP
// window, so per-visit grants track segment availability, not byte parity).
// This pins down that the DRR bound above is the policy's doing.
TEST(EngineScheduler, RoundRobinDoesNotMeterBytes) {
    shard_options opts;
    opts.policy = sched_policy::round_robin;
    test_shard s(0, opts, direct_memory{}, direct_memory{});
    const cipher c = make_cipher(1);
    flow_config small = small_flow(48 * 1024);
    small.packet_wire_bytes = 512;
    flow_config large = small_flow(48 * 1024);
    large.packet_wire_bytes = 1408;
    ASSERT_TRUE(s.open_flow(0, small, c, c));
    ASSERT_TRUE(s.open_flow(1, large, c, c));
    s.run();
    EXPECT_TRUE(s.outcome(0).completed && s.outcome(1).completed);
    // RR grants whole window bursts: the flows' serviced totals differ by
    // far more than the DRR bound at some point — weaker per-flow wire
    // efficiency for the small-segment flow means more wire bytes total.
    EXPECT_GT(s.serviced_bytes(0), s.serviced_bytes(1));
}

// --- backpressure ----------------------------------------------------------

// One pathological flow floods the shared kernel queue with tiny segments;
// the per-flow fair-share cap bounds its occupancy, so well-behaved flows
// keep completing and the flood's drops are charged to the flood alone.
TEST(EngineBackpressure, FairShareCapContainsAPathologicalFlow) {
    fleet_config cfg;
    cfg.flows = 5;
    cfg.shards = 1;
    cfg.per_flow_queue_cap = 8;
    cfg.defaults = small_flow();
    cfg.per_flow = [](std::uint32_t f, flow_config& fc) {
        if (f == 0) {
            fc.file_bytes = 24 * 1024;
            fc.packet_wire_bytes = 256;  // windowfuls of tiny segments
        }
    };
    const fleet_report report = run_fleet_native<cipher>(cfg);

    ASSERT_EQ(report.flows.size(), 5u);
    const flow_outcome& flood = report.flows[0];
    // The flood's window bursts exceeded its fair share and were dropped —
    // charged to the flood's own tag.
    EXPECT_GT(flood.queue_dropped, 0u);
    // Every flow still ends explicitly; the well-behaved ones complete
    // untouched by the flood's backpressure.
    for (std::uint32_t f = 1; f < 5; ++f) {
        EXPECT_TRUE(report.flows[f].completed) << "flow " << f;
        EXPECT_TRUE(report.flows[f].verified) << "flow " << f;
        EXPECT_EQ(report.flows[f].queue_dropped, 0u) << "flow " << f;
    }
    EXPECT_TRUE(flood.completed || flood.gave_up || flood.deadline_exceeded);
    EXPECT_GT(report.metrics.counter("engine.queue_dropped"), 0u);
}

// --- chaos -----------------------------------------------------------------

void burst_loss(flow_config& fc) {
    fc.forward_faults.burst.enabled = true;
    fc.forward_faults.burst.p_good_to_bad = 0.05;
    fc.forward_faults.burst.p_bad_to_good = 0.3;
    fc.forward_faults.burst.bad_loss = 1.0;
}

TEST(EngineChaos, LossyFlowsEndExplicitlyCleanFlowsComplete) {
    fleet_config cfg;
    cfg.flows = 40;
    cfg.shards = 4;
    cfg.defaults = small_flow();
    cfg.per_flow = [](std::uint32_t f, flow_config& fc) {
        if (f % 10 == 0) burst_loss(fc);  // 10% of flows on a bursty link
    };
    const fleet_report report = run_fleet_native<cipher>(cfg);

    ASSERT_EQ(report.flows.size(), 40u);
    for (const flow_outcome& o : report.flows) {
        // No silent outcome: exactly one terminal flag.
        const int flags = (o.completed ? 1 : 0) + (o.gave_up ? 1 : 0) +
                          (o.deadline_exceeded ? 1 : 0) +
                          (o.request_rejected ? 1 : 0) +
                          (o.ports_exhausted ? 1 : 0);
        EXPECT_EQ(flags, 1) << "flow " << o.flow_id;
        if (o.completed) {
            EXPECT_TRUE(o.verified) << "flow " << o.flow_id;
        }
        if (o.flow_id % 10 != 0) {
            EXPECT_TRUE(o.completed && o.verified) << "flow " << o.flow_id;
        }
    }
    // The lossy flows actually saw loss (their tags' own coin streams).
    EXPECT_GT(report.metrics.counter("engine.reply_packets_dropped"), 0u);
    EXPECT_EQ(report.shards.size(), 4u);
}

// --- composition-legality gate ---------------------------------------------

// The gate checks each side of an ILP flow once, at setup, on the graphs of
// the loops the flow runs.  A rekey swaps key material inside the same
// loop, so it neither re-checks nor adds a verdict: over flows of both
// framings — plain (unsecured, and secure negotiated down to wire v2) and
// AEAD wire v3 rekeying every 2 KB — the shard holds exactly one cached
// verdict per framing and side.
TEST(EngineGate, OneSetupCheckPerSideAndNoneOnRekey) {
    using aead_shard = shard<direct_memory, crypto::aead_cipher>;
    shard_options opts;
    aead_shard s(0, opts, direct_memory{}, direct_memory{});
    std::array<std::byte, crypto::aead_cipher::key_bytes> key{};
    rng key_rng(7);
    key_rng.fill(key);
    const crypto::aead_cipher c{std::span<const std::byte>(key)};

    constexpr std::uint32_t flows = 6;
    for (std::uint32_t f = 0; f < flows; ++f) {
        flow_config fc = small_flow(16 * 1024);
        fc.secure = f % 3 != 0;
        fc.secure_wire_version =
            f % 3 == 1 ? rpc::wire_version : rpc::wire_version_secure;
        fc.flow_secret = 0x5ec0 + f;
        fc.rekey_interval_bytes = 2 * 1024;
        ASSERT_TRUE(s.open_flow(f, fc, c, c));
    }
    s.run();

    for (std::uint32_t f = 0; f < flows; ++f) {
        const flow_outcome& o = s.outcome(f);
        EXPECT_TRUE(o.completed && o.verified) << "flow " << f;
        if (f % 3 == 2) {
            EXPECT_GT(o.rekeys, 1u) << "flow " << f;
        }
    }
    EXPECT_EQ(s.gate().stats().checks, 2u * flows);
    EXPECT_EQ(s.gate().cached_verdicts(), 4u);
}

// --- one wiring -------------------------------------------------------------

// run_transfer is an ordinary one-flow shard: it and a one-flow round_robin
// fleet with the same configuration agree on every outcome, clean and
// under burst loss.
TEST(EngineShard, RunTransferIsAOneFlowRoundRobinFleet) {
    for (const bool lossy : {false, true}) {
        app::transfer_config tc;
        tc.file_bytes = 64 * 1024;
        if (lossy) {
            tc.forward_faults.burst.enabled = true;
            tc.forward_faults.burst.p_good_to_bad = 0.05;
            tc.forward_faults.burst.p_bad_to_good = 0.25;
            tc.forward_faults.burst.bad_loss = 0.95;
            tc.forward_faults.seed = 11;
        }
        const app::transfer_result single =
            app::run_transfer_native<cipher>(tc);

        fleet_config cfg;
        cfg.policy = sched_policy::round_robin;
        cfg.key_seed = tc.key_seed;
        cfg.link_latency_us = tc.link_latency_us;
        cfg.poll_step_us = tc.poll_step_us;
        cfg.defaults.file_bytes = tc.file_bytes;
        cfg.defaults.packet_wire_bytes = tc.packet_wire_bytes;
        cfg.defaults.file_seed = tc.file_seed;
        cfg.defaults.deadline_us = tc.deadline_us;
        cfg.defaults.forward_faults = tc.forward_faults;
        const fleet_report fleet = run_fleet_native<cipher>(cfg);
        ASSERT_EQ(fleet.flows.size(), 1u);
        const flow_outcome& o = fleet.flows[0];

        EXPECT_TRUE(single.completed && single.verified) << lossy;
        EXPECT_EQ(single.verified, o.verified) << lossy;
        EXPECT_EQ(single.elapsed_us, o.elapsed_us) << lossy;
        EXPECT_EQ(single.payload_bytes_delivered, o.payload_bytes) << lossy;
        EXPECT_EQ(single.reply_tcp_sender.retransmissions,
                  o.tcp_retransmissions)
            << lossy;
        EXPECT_EQ(single.recovery.rpc_retries, o.rpc_retries) << lossy;
        // The lossy case really loses packets.
        EXPECT_EQ(o.tcp_retransmissions > 0, lossy);
    }
}

// Zero-copy is per flow, receive side included: on one shard, the
// zero_copy flow's client takes every reply segment as the pipe's loan and
// its TCP input stages only the header, while the copying flow beside it
// copies each whole packet through the memory policy.
TEST(EngineZeroCopy, LendingAndCopyingFlowsShareAShard) {
#if !ILP_OBS_ENABLED
    GTEST_SKIP() << "built with ILP_OBS=OFF";
#endif
    memsim::memory_system client_sys(memsim::supersparc_with_l2());
    memsim::memory_system server_sys(memsim::supersparc_with_l2());
    obs::tracer t(1 << 14);
    obs::tracer* prev = obs::tracer::install(&t);
    {
        shard<memsim::sim_memory, cipher> s(0, shard_options{},
                                            memsim::sim_memory(client_sys),
                                            memsim::sim_memory(server_sys));
        const cipher c = make_cipher(1);
        flow_config lending = small_flow(8 * 1024);
        lending.zero_copy = true;
        ASSERT_TRUE(s.open_flow(0, lending, c, c));
        ASSERT_TRUE(s.open_flow(1, small_flow(8 * 1024), c, c));
        s.run();
        EXPECT_TRUE(s.outcome(0).completed && s.outcome(0).verified);
        EXPECT_TRUE(s.outcome(1).completed && s.outcome(1).verified);
        t.set_clock(nullptr);
    }
    obs::tracer::install(prev);
    ASSERT_EQ(t.dropped(), 0u);

    // Per flow: client-side TCP input spans and the largest load count any
    // one of them did itself (nested app spans excluded).
    std::array<std::uint64_t, 2> inputs{};
    std::array<std::uint64_t, 2> max_reads{};
    for (const obs::span& e : t.events()) {
        if (e.side == nullptr || std::string_view(e.side) != "client" ||
            std::string_view(e.category) != "tcp" ||
            std::string_view(e.name) != "input" || e.flow < 0) {
            continue;
        }
        const auto f = static_cast<std::size_t>(e.flow);
        ++inputs[f];
        max_reads[f] = std::max(max_reads[f], e.self.reads);
    }
    // 8-byte loads of half a reply payload: a staged copy of any ~1 KB
    // segment exceeds it, the 20-byte header alone stays far below.
    const std::uint64_t half_payload_loads = 512 / 8;
    EXPECT_GT(inputs[0], 0u);
    EXPECT_GT(inputs[1], 0u);
    EXPECT_LT(max_reads[0], half_payload_loads);
    EXPECT_GT(max_reads[1], half_payload_loads);
}

// --- determinism contract --------------------------------------------------

fleet_config invariance_config(std::uint32_t shards, bool threaded = false) {
    fleet_config cfg;
    cfg.flows = 12;
    cfg.shards = shards;
    cfg.threaded = threaded;
    cfg.policy = sched_policy::deficit_round_robin;
    cfg.defaults = small_flow();
    cfg.per_flow = [](std::uint32_t f, flow_config& fc) {
        if (f % 4 == 0) burst_loss(fc);
    };
    return cfg;
}

TEST(EngineDeterminism, SameSeedSameDigest) {
    const fleet_report a = run_fleet_native<cipher>(invariance_config(2));
    const fleet_report b = run_fleet_native<cipher>(invariance_config(2));
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.payload_bytes, b.payload_bytes);
    EXPECT_EQ(a.completed, b.completed);
}

// Per-flow outcomes must not depend on how flows are packed onto shards:
// every per-flow random stream (fault coins, cipher key) is split by flow
// id, and the scheduler couples no two flows.  (Holds with the shared
// kernel queue unbounded; a finite shared queue couples co-located flows by
// design.)
TEST(EngineDeterminism, ShardCountDoesNotChangePerFlowOutcomes) {
    const fleet_report one = run_fleet_native<cipher>(invariance_config(1));
    const fleet_report four = run_fleet_native<cipher>(invariance_config(4));
    EXPECT_EQ(one.digest(), four.digest());
    ASSERT_EQ(one.flows.size(), four.flows.size());
    for (std::size_t i = 0; i < one.flows.size(); ++i) {
        EXPECT_EQ(one.flows[i].payload_bytes, four.flows[i].payload_bytes);
        EXPECT_EQ(one.flows[i].elapsed_us, four.flows[i].elapsed_us);
        EXPECT_EQ(one.flows[i].rpc_retries, four.flows[i].rpc_retries);
    }
}

// One OS thread per shard must be behaviourally identical to running the
// shards serially — shards share nothing.  (This test is the TSan target.)
TEST(EngineDeterminism, ThreadedShardsMatchSerialExecution) {
    const fleet_report serial =
        run_fleet_native<cipher>(invariance_config(4, false));
    const fleet_report threaded =
        run_fleet_native<cipher>(invariance_config(4, true));
    EXPECT_EQ(serial.digest(), threaded.digest());
    EXPECT_EQ(serial.completed, threaded.completed);
    EXPECT_EQ(serial.payload_bytes, threaded.payload_bytes);
}

// Engine-internal counters describe the work behind the same per-flow
// outcomes.  Timers fired is per-flow work summed, so it holds under any
// packing; the high-water marks are per-clock and per-pipe peaks, so they
// hold across threads but grow when more flows share one shard.
TEST(EngineDeterminism, EngineCountersInvariantUnderShardsAndThreads) {
    const fleet_report one = run_fleet_native<cipher>(invariance_config(1));
    const fleet_report serial =
        run_fleet_native<cipher>(invariance_config(4, false));
    const fleet_report threaded =
        run_fleet_native<cipher>(invariance_config(4, true));
    ASSERT_EQ(one.digest(), serial.digest());
    const char* fired = "engine.clock.timers_fired";
    EXPECT_GT(one.metrics.counter(fired), 0u);
    EXPECT_EQ(one.metrics.counter(fired), serial.metrics.counter(fired));
    EXPECT_EQ(serial.metrics.counter(fired), threaded.metrics.counter(fired));
    for (const char* name :
         {"engine.clock.pending_max", "engine.net.in_flight_max"}) {
        EXPECT_GT(serial.metrics.counter(name), 0u) << name;
        EXPECT_EQ(serial.metrics.counter(name),
                  threaded.metrics.counter(name))
            << name;
        EXPECT_GE(one.metrics.counter(name), serial.metrics.counter(name))
            << name;
    }
}

// The engine counters are observability only: a fleet's digest is blind to
// them (two reports that differ only there compare equal).
TEST(EngineDeterminism, EngineCountersStayOutOfTheDigest) {
    fleet_report r = run_fleet_native<cipher>(invariance_config(2));
    const std::uint64_t digest = r.digest();
    const std::uint64_t fired = r.metrics.counter("engine.clock.timers_fired");
    for (shard_summary& s : r.shards) {
        s.clock.timers_fired += 1000;
        s.clock.pending_max += 1000;
        s.pipe_in_flight_max += 1000;
    }
    r.finalize();
    EXPECT_EQ(r.metrics.counter("engine.clock.timers_fired"), fired + 2000);
    EXPECT_EQ(r.digest(), digest);
}

// Zero-copy and copying flows, ILP and layered, clean and lossy, on both
// policies: the demux's lending path keeps the digest invariant under the
// shard count and threading.  (Runs under the TSan CI leg via the
// EngineDeterminism filter.)
TEST(EngineDeterminism, MixedZeroCopyFleetDigestParity) {
    for (const sched_policy policy :
         {sched_policy::round_robin, sched_policy::deficit_round_robin}) {
        const auto run = [policy](std::uint32_t shards, bool threaded) {
            fleet_config cfg = invariance_config(shards, threaded);
            cfg.policy = policy;
            cfg.per_flow = [](std::uint32_t f, flow_config& fc) {
                fc.zero_copy = f % 2 == 0;
                if (f % 3 == 0) fc.mode = app::path_mode::layered;
                if (f % 4 == 1) burst_loss(fc);
            };
            return run_fleet_native<cipher>(cfg);
        };
        const fleet_report one = run(1, false);
        const fleet_report four = run(4, false);
        const fleet_report threaded = run(4, true);
        EXPECT_EQ(one.digest(), four.digest());
        EXPECT_EQ(four.digest(), threaded.digest());
        EXPECT_GT(one.verified, 0u);
    }
}

// --- trace-sampling determinism --------------------------------------------

fleet_config sampled_config(std::uint32_t shards, bool threaded = false,
                            std::uint32_t rate_permyriad = 5'000) {
    fleet_config cfg = invariance_config(shards, threaded);
    cfg.trace_sampler.seed = 0x0b5eed;
    cfg.trace_sampler.rate_permyriad = rate_permyriad;
    return cfg;
}

// Which flows get span-traced is a pure function of (sampler seed, flow
// id): re-packing the fleet onto a different shard count, or running the
// shards on real threads, must select exactly the same flows.  (Runs under
// the TSan CI leg via the EngineDeterminism filter.)
TEST(EngineDeterminism, SampledFlowSetInvariantUnderShardsAndThreads) {
    const fleet_report one = run_fleet_native<cipher>(sampled_config(1));
    const fleet_report four = run_fleet_native<cipher>(sampled_config(4));
    const fleet_report threaded =
        run_fleet_native<cipher>(sampled_config(4, true));
    ASSERT_EQ(one.flows.size(), four.flows.size());
    ASSERT_EQ(one.flows.size(), threaded.flows.size());
    const obs::flow_sampler reference{.seed = 0x0b5eed,
                                      .rate_permyriad = 5'000};
    for (std::size_t i = 0; i < one.flows.size(); ++i) {
        const bool expected = reference.sampled(one.flows[i].flow_id);
        EXPECT_EQ(one.flows[i].trace_sampled, expected);
        EXPECT_EQ(four.flows[i].trace_sampled, expected);
        EXPECT_EQ(threaded.flows[i].trace_sampled, expected);
    }
    EXPECT_EQ(one.trace_sampled, four.trace_sampled);
    EXPECT_EQ(one.trace_sampled, threaded.trace_sampled);
    // Non-vacuous at 50%: some but not all of the 12 flows selected.
    EXPECT_GT(one.trace_sampled, 0u);
    EXPECT_LT(one.trace_sampled, one.flows.size());
}

// Sampling gates only what the tracer ring keeps; the transfers themselves
// must be bit-identical whether the fleet samples nothing, everything, or
// some deterministic subset.
TEST(EngineDeterminism, SamplingRateCannotPerturbOutcomes) {
    const fleet_report none =
        run_fleet_native<cipher>(sampled_config(4, false, 0));
    const fleet_report half =
        run_fleet_native<cipher>(sampled_config(4, false, 5'000));
    const fleet_report all =
        run_fleet_native<cipher>(sampled_config(4, false, 10'000));
    EXPECT_EQ(none.digest(), half.digest());
    EXPECT_EQ(none.digest(), all.digest());
    EXPECT_EQ(none.trace_sampled, 0u);
    EXPECT_EQ(all.trace_sampled, all.flows.size());
}

}  // namespace
}  // namespace ilp::engine
