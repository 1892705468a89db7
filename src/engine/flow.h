// Multi-flow engine: per-flow configuration and outcome records.
//
// The engine (engine/shard.h, engine/fleet.h) runs many simultaneous ILP
// file transfers — each one the same client/server pair the single-flow
// harness drives — over *shared* datagram links.  A flow's id keys the
// shard's flow table and stamps every packet the flow emits
// (tcp::connection_config::net_tag = id + 1), so the shared pipes account
// each flow's queue occupancy separately and draw its fault coins from a
// per-flow RNG stream: a flow's loss pattern depends only on its own packet
// sequence, never on how other flows interleave on the link.  That is what
// makes per-flow outcomes invariant under re-sharding (tested in
// tests/engine_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "app/file_transfer.h"
#include "app/path_mode.h"
#include "net/datagram.h"
#include "obs/flight_recorder.h"
#include "util/virtual_clock.h"

namespace ilp::engine {

// Mirrors the single-flow transfer_config knobs that are per-flow by
// nature; link latency, poll cadence and the shared queue bound live in the
// shard/fleet options instead.
struct flow_config {
    app::path_mode mode = app::path_mode::ilp;
    std::size_t file_bytes = 15 * 1024;
    std::uint32_t copies = 1;
    std::size_t packet_wire_bytes = 1024;
    app::retry_policy retry{};
    std::uint64_t file_seed = 0x11aa;
    sim_time deadline_us = 120'000'000;  // per-flow, on the shard's clock
    bool zero_copy = false;
    // Per-flow fault plans, installed for this flow's tag on the shared
    // pipes (reply data / reply ACK / request data / request ACK).  Seeds
    // are stream-split by tag, so two flows with identical plans still draw
    // independent coins.
    net::fault_config forward_faults{};
    net::fault_config reverse_faults{};
    net::fault_config request_forward_faults{};
    net::fault_config request_reverse_faults{};
    // Transport security (requires an aead_capable cipher).  The flow secret
    // seeds the per-epoch KDF on both endpoints; 0 lets run_fleet derive one
    // from the fleet key_seed and the flow id.  wire_version 2 negotiates
    // the flow down to classic framing (no trailers, no rekey).
    bool secure = false;
    std::uint32_t secure_wire_version = rpc::wire_version_secure;
    std::uint64_t rekey_interval_bytes = 0;
    std::uint64_t flow_secret = 0;
    // Test knob: derive the *client* keychain from a different secret, so a
    // key mismatch surfaces as explicit tag failures (never silent).
    std::uint64_t client_secret_override = 0;
};

// Terminal record of one flow.  Exactly one of completed / gave_up /
// deadline_exceeded / request_rejected / ports_exhausted holds, so every
// flow either completes (and is verified against the served file) or fails
// *explicitly* — there is no silent outcome.
struct flow_outcome {
    std::uint32_t flow_id = 0;
    std::uint32_t shard = 0;  // excluded from fleet_report::digest()
    bool completed = false;
    bool verified = false;            // received copies byte-identical
    bool gave_up = false;             // client retry budget exhausted
    bool deadline_exceeded = false;   // per-flow deadline hit first
    bool request_rejected = false;    // request could not even be issued
    bool ports_exhausted = false;     // shard port range ran out
    std::uint64_t payload_bytes = 0;
    sim_time elapsed_us = 0;
    std::uint64_t rpc_retries = 0;
    std::uint64_t tcp_retransmissions = 0;
    std::uint64_t reply_packets_dropped = 0;  // this flow's tag, all causes
    // Shared-queue and fair-share-cap drops charged to this flow (its
    // backpressure footprint), both link directions.
    std::uint64_t queue_dropped = 0;
    // Wire bytes the shard's scheduler granted this flow (the quantity the
    // DRR fairness bound is stated over).
    std::uint64_t serviced_bytes = 0;
    // Transport-security counters (zero for non-secure flows): server key
    // advances, explicit client-side tag/epoch rejections, and acceptances
    // under the previous epoch (the retransmit window earning its keep).
    std::uint64_t rekeys = 0;
    std::uint64_t tag_failures = 0;
    std::uint64_t epoch_skews = 0;
    std::uint64_t epoch_window_hits = 0;
    // Did the deterministic trace sampler select this flow for span tracing?
    // Pure function of (sampler seed, flow id), so the sampled set is
    // invariant under shard count and threading.  Digest-excluded:
    // observability policy, not transfer outcome.
    bool trace_sampled = true;
    // Always-on flight recorder: the last obs::flight_recorder::capacity
    // protocol transitions, virtual-clock stamped.  Dumped as a JSON black
    // box by fleet_report_json() when the flow failed explicitly.
    // Digest-excluded.
    obs::flight_recorder black_box;

    double throughput_mbps() const {
        if (elapsed_us == 0) return 0.0;
        return static_cast<double>(payload_bytes) * 8.0 /
               static_cast<double>(elapsed_us);
    }

    // Did the flow end in one of the explicit failure outcomes (the PR 1/6
    // taxonomy)?  These are the flows whose black box the fleet report dumps.
    bool failed_explicitly() const {
        return gave_up || deadline_exceeded || request_rejected ||
               ports_exhausted;
    }
};

// One entry of a shard's bounded top-k slowest-flows list: the identity the
// latency sketch cannot keep (log2 buckets forget flow ids).
struct slow_flow {
    std::uint32_t flow_id = 0;
    sim_time elapsed_us = 0;
};

}  // namespace ilp::engine
