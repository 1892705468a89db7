#include "engine/fleet.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

namespace ilp::engine {
namespace {

// FNV-1a over the bytes of each mixed-in 64-bit word.
constexpr std::uint64_t fnv_offset = 14695981039346656037ull;
constexpr std::uint64_t fnv_prime = 1099511628211ull;

void mix(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= fnv_prime;
    }
}

void append_u64(std::string& out, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out += buf;
}

void append_double(std::string& out, double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    out += buf;
}

void append_latency(std::string& out, const obs::histogram& h) {
    out += "{\"count\":";
    append_u64(out, h.count());
    out += ",\"min_us\":";
    append_u64(out, h.min());
    out += ",\"max_us\":";
    append_u64(out, h.max());
    out += ",\"mean_us\":";
    append_double(out, h.mean());
    out += ",\"p50_us\":";
    append_double(out, h.percentile(50.0));
    out += ",\"p90_us\":";
    append_double(out, h.percentile(90.0));
    out += ",\"p99_us\":";
    append_double(out, h.percentile(99.0));
    out += "}";
}

void append_slowest(std::string& out, const std::vector<slow_flow>& slowest) {
    out += "[";
    for (std::size_t i = 0; i < slowest.size(); ++i) {
        if (i != 0) out += ",";
        out += "{\"flow\":";
        append_u64(out, slowest[i].flow_id);
        out += ",\"elapsed_us\":";
        append_u64(out, slowest[i].elapsed_us);
        out += "}";
    }
    out += "]";
}

const char* outcome_name(const flow_outcome& o) {
    if (o.completed) return "completed";
    if (o.gave_up) return "gave_up";
    if (o.deadline_exceeded) return "deadline_exceeded";
    if (o.request_rejected) return "request_rejected";
    if (o.ports_exhausted) return "ports_exhausted";
    return "open";
}

}  // namespace

double fleet_report::aggregate_throughput_mbps() const {
    if (max_elapsed_us == 0) return 0.0;
    return static_cast<double>(payload_bytes) * 8.0 /
           static_cast<double>(max_elapsed_us);
}

std::uint64_t fleet_report::digest() const {
    // `flows` is sorted by finalize(), so the digest is independent of the
    // shard iteration order that collected the outcomes.  Shard-dependent
    // fields (shard index, scheduler grants, shared-queue drops) stay out:
    // the digest states what happened *to* each flow, not where it ran.
    std::uint64_t h = fnv_offset;
    for (const flow_outcome& o : flows) {
        mix(h, o.flow_id);
        std::uint64_t flags = 0;
        flags |= o.completed ? 1u : 0u;
        flags |= o.verified ? 2u : 0u;
        flags |= o.gave_up ? 4u : 0u;
        flags |= o.deadline_exceeded ? 8u : 0u;
        flags |= o.request_rejected ? 16u : 0u;
        flags |= o.ports_exhausted ? 32u : 0u;
        mix(h, flags);
        mix(h, o.payload_bytes);
        mix(h, o.elapsed_us);
        mix(h, o.rpc_retries);
        mix(h, o.tcp_retransmissions);
        mix(h, o.rekeys);
        mix(h, o.tag_failures);
        mix(h, o.epoch_skews);
        mix(h, o.epoch_window_hits);
    }
    return h;
}

void fleet_report::finalize() {
    std::sort(flows.begin(), flows.end(),
              [](const flow_outcome& a, const flow_outcome& b) {
                  return a.flow_id < b.flow_id;
              });
    completed = verified = failed = deadline_exceeded = trace_sampled = 0;
    payload_bytes = 0;
    max_elapsed_us = 0;
    for (const flow_outcome& o : flows) {
        if (o.completed) ++completed;
        if (o.verified) ++verified;
        if (o.gave_up || o.request_rejected || o.ports_exhausted) ++failed;
        if (o.deadline_exceeded) ++deadline_exceeded;
        if (o.trace_sampled) ++trace_sampled;
        payload_bytes += o.payload_bytes;
    }
    // The fleet latency view is the per-shard sketches merged — no per-flow
    // latency state anywhere — plus the shard top-k lists folded into one.
    flow_latency = obs::histogram{};
    slowest.clear();
    for (const shard_summary& s : shards) {
        max_elapsed_us = std::max(max_elapsed_us, s.elapsed_us);
        flow_latency += s.latency;
        slowest.insert(slowest.end(), s.slowest.begin(), s.slowest.end());
    }
    std::sort(slowest.begin(), slowest.end(),
              [](const slow_flow& a, const slow_flow& b) {
                  return a.elapsed_us != b.elapsed_us
                             ? a.elapsed_us > b.elapsed_us
                             : a.flow_id < b.flow_id;
              });
    if (slowest.size() > 8) slowest.resize(8);

    metrics = obs::registry{};
    metrics.add("engine.flows", flows.size());
    metrics.add("engine.completed", completed);
    metrics.add("engine.verified", verified);
    metrics.add("engine.failed", failed);
    metrics.add("engine.deadline_exceeded", deadline_exceeded);
    metrics.add("engine.payload_bytes", payload_bytes);
    metrics.add("engine.max_elapsed_us", max_elapsed_us);
    metrics.set_gauge("engine.aggregate_throughput_mbps",
                      aggregate_throughput_mbps());
    // Fleet observability: sampling coverage and the merged latency sketch,
    // whose p99 is the BENCH_scale gating quantity.
    metrics.add("obs.trace.sampled_flows", trace_sampled);
    metrics.set_gauge("obs.trace.sampling_rate_permyriad",
                      sampler.rate_permyriad);
    metrics.hist("fleet.flow_latency_us") += flow_latency;
    metrics.set_gauge("fleet.flow_latency.p99", flow_latency.percentile(99.0));
    obs::histogram& elapsed = metrics.hist("engine.flow_elapsed_us");
    obs::histogram& bytes = metrics.hist("engine.flow_payload_bytes");
    for (const flow_outcome& o : flows) {
        metrics.add("engine.rpc_retries", o.rpc_retries);
        metrics.add("engine.tcp_retransmissions", o.tcp_retransmissions);
        metrics.add("engine.reply_packets_dropped", o.reply_packets_dropped);
        metrics.add("engine.queue_dropped", o.queue_dropped);
        metrics.add("engine.crypto.rekeys", o.rekeys);
        metrics.add("engine.crypto.tag_failures", o.tag_failures);
        metrics.add("engine.crypto.epoch_skews", o.epoch_skews);
        metrics.add("engine.crypto.epoch_window_hits", o.epoch_window_hits);
        elapsed.record(o.elapsed_us);
        bytes.record(o.payload_bytes);
    }
    // Engine internals (never part of digest(): they describe the shard
    // packing, not what happened to a flow).
    std::uint64_t pending_max = 0;
    std::uint64_t in_flight_max = 0;
    for (const shard_summary& s : shards) {
        metrics.add("engine.clock.timers_fired", s.clock.timers_fired);
        pending_max = std::max(pending_max, s.clock.pending_max);
        in_flight_max = std::max(in_flight_max, s.pipe_in_flight_max);
        metrics.add("analysis.gate.checks", s.gate.checks);
        metrics.add("analysis.gate.cache_hits", s.gate.cache_hits);
        metrics.add("analysis.gate.fallbacks", s.gate.fallbacks);
        metrics.add("engine.net.reply_packets_sent", s.reply_data.packets_sent);
        metrics.add("engine.net.reply_packets_delivered",
                    s.reply_data.packets_delivered);
        metrics.add("engine.net.reply_packets_dropped",
                    s.reply_data.packets_dropped);
        metrics.add("engine.net.reply_queue_dropped",
                    s.reply_data.packets_queue_dropped +
                        s.reply_ack.packets_queue_dropped);
        metrics.add("engine.mem.client.accesses", s.client_mem.accesses());
        metrics.add("engine.mem.client.l1d_misses", s.client_mem.l1d_misses);
        metrics.add("engine.mem.client.cycles", s.client_mem.cycles);
        metrics.add("engine.mem.server.accesses", s.server_mem.accesses());
        metrics.add("engine.mem.server.l1d_misses", s.server_mem.l1d_misses);
        metrics.add("engine.mem.server.cycles", s.server_mem.cycles);
        const std::string prefix =
            "engine.shard" + std::to_string(s.shard) + ".";
        metrics.add(prefix + "flows", s.flows);
        metrics.add(prefix + "completed", s.completed);
        metrics.add(prefix + "failed", s.failed);
        metrics.add(prefix + "fallbacks", s.fallbacks);
        metrics.add(prefix + "elapsed_us", s.elapsed_us);
        metrics.add(prefix + "mem_cycles",
                    s.client_mem.cycles + s.server_mem.cycles);
    }
    metrics.add("engine.clock.pending_max", pending_max);
    metrics.add("engine.net.in_flight_max", in_flight_max);
}

std::string fleet_report_json(const fleet_report& report) {
    std::string out;
    out.reserve(4096 + report.shards.size() * 512);
    out += "{\"schema_version\":1,\"kind\":\"fleet_report\",\"digest\":\"";
    char digest_buf[20];
    std::snprintf(digest_buf, sizeof digest_buf, "%016" PRIx64,
                  report.digest());
    out += digest_buf;
    out += "\",\"flows\":";
    append_u64(out, report.flows.size());
    out += ",\"completed\":";
    append_u64(out, report.completed);
    out += ",\"verified\":";
    append_u64(out, report.verified);
    out += ",\"failed\":";
    append_u64(out, report.failed);
    out += ",\"deadline_exceeded\":";
    append_u64(out, report.deadline_exceeded);
    out += ",\"payload_bytes\":";
    append_u64(out, report.payload_bytes);
    out += ",\"max_elapsed_us\":";
    append_u64(out, report.max_elapsed_us);

    out += ",\"sampling\":{\"seed\":";
    append_u64(out, report.sampler.seed);
    out += ",\"rate_permyriad\":";
    append_u64(out, report.sampler.rate_permyriad);
    out += ",\"sampled_flows\":";
    append_u64(out, report.trace_sampled);
    out += ",\"trace_dropped\":";
    append_u64(out, report.metrics.counter("obs.trace.dropped"));
    out += "}";

    out += ",\"latency\":";
    append_latency(out, report.flow_latency);
    out += ",\"top_slowest\":";
    append_slowest(out, report.slowest);

    out += ",\"shards\":[";
    for (std::size_t i = 0; i < report.shards.size(); ++i) {
        const shard_summary& s = report.shards[i];
        if (i != 0) out += ",";
        out += "{\"shard\":";
        append_u64(out, s.shard);
        out += ",\"flows\":";
        append_u64(out, s.flows);
        out += ",\"completed\":";
        append_u64(out, s.completed);
        out += ",\"failed\":";
        append_u64(out, s.failed);
        out += ",\"fallbacks\":";
        append_u64(out, s.fallbacks);
        out += ",\"rekeys\":";
        append_u64(out, s.rekeys);
        out += ",\"elapsed_us\":";
        append_u64(out, s.elapsed_us);
        out += ",\"latency\":";
        append_latency(out, s.latency);
        out += ",\"top_slowest\":";
        append_slowest(out, s.slowest);
        out += "}";
    }
    out += "]";

    // The black boxes: one flight-recorder dump per flow that failed
    // explicitly or was demoted by the legality gate.  Healthy flows keep
    // their recorders private — the dump is the failure-debugging artifact,
    // not a per-flow firehose.
    out += ",\"black_boxes\":[";
    bool first = true;
    for (const flow_outcome& o : report.flows) {
        if (!o.failed_explicitly() && !o.composed_fallback) continue;
        if (!first) out += ",";
        first = false;
        out += "{\"flow\":";
        append_u64(out, o.flow_id);
        out += ",\"shard\":";
        append_u64(out, o.shard);
        out += ",\"outcome\":\"";
        out += outcome_name(o);
        out += "\",\"composed_fallback\":";
        out += o.composed_fallback ? "true" : "false";
        out += ",\"recorded\":";
        append_u64(out, o.black_box.recorded());
        out += ",\"events\":[";
        const std::vector<obs::flight_entry> entries = o.black_box.entries();
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (i != 0) out += ",";
            out += "{\"t_us\":";
            append_u64(out, entries[i].at_us);
            out += ",\"ev\":\"";
            out += obs::flight_event_name(entries[i].event);
            out += "\",\"arg\":";
            append_u64(out, entries[i].arg);
            out += "}";
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

bool write_fleet_report_json(const fleet_report& report,
                             const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = fleet_report_json(report);
    const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = written == json.size() && std::fclose(f) == 0;
    if (written != json.size()) std::fclose(f);
    return ok;
}

}  // namespace ilp::engine
