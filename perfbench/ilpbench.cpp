// Native end-to-end benchmark program for the ILP stack.
//
//   ilpbench --workload bulk_ilp|bulk_layered|fleet_mixed --seed N
//            [--scale full|tiny] [--mode run|traced|reference]
//            [--trace-out PATH]
//
// Modes:
//   run        Builds the workload's shards, opens every flow (timed as
//              set-up), ticks every shard until its last flow ends (timed as
//              transfer), checks every received copy against the served file
//              and prints one JSON object: wall times, verified bytes, flow
//              failures, the fleet digest and the process's peak RSS.
//   traced     The same run with the benchmark's own spans on: one span per
//              shard::tick and per shard::open_flow, timer population and
//              pipe occupancy sampled before every tick.  After the transfer
//              it reads the counters the layers expose and runs one probe
//              per layer function at the workload's shape.  Spans stay in
//              memory and are written to --trace-out (Chrome trace format)
//              when the run ends.
//   reference  Runs the same configuration through engine::run_fleet_native
//              and prints its digest; perfbench/run.py requires every run's
//              digest to equal it.
//
// Everything runs on one thread.  Flows are in-process virtual connections
// over the shards' shared datagram links; no OS sockets are involved.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "app/receive_path.h"
#include "app/send_path.h"
#include "checksum/internet_checksum.h"
#include "core/layered_path.h"
#include "crypto/aead.h"
#include "crypto/safer_simplified.h"
#include "engine/fleet.h"
#include "rpc/messages.h"
#include "util/rng.h"

namespace {

using namespace ilp;
using mem_t = memsim::direct_memory;
using wall = std::chrono::steady_clock;

double seconds_between(wall::time_point a, wall::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double ns_between(wall::time_point a, wall::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workload inputs.  Every random input is derived from the seed argument:
// stream 1 seeds the files, stream 2 the keys, stream 3 the loss coins and
// stream 4 the bulk file-size jitter.

enum class scale_t { full, tiny };

// The bulk file is ~64 MB minus a seed-derived jitter of up to 4 KB.  The
// fleet digest sees payload sizes and virtual times but not file contents,
// so without the jitter two seeds of a clean single flow would share one
// digest.  The jitter is whole 8-byte units: the stack does not complete a
// transfer whose file size is not a multiple of 4 (see perfbench/NOTES.md).
engine::fleet_config bulk_config(app::path_mode mode, std::uint64_t seed,
                                 scale_t scale) {
    engine::fleet_config cfg;
    cfg.flows = 1;
    cfg.shards = 1;
    cfg.key_seed = derive_seed(seed, 2);
    const std::size_t base =
        scale == scale_t::full ? std::size_t{64} << 20 : std::size_t{256} << 10;
    cfg.defaults.mode = mode;
    cfg.defaults.file_bytes = base - 8 * (derive_seed(seed, 4) % 512);
    cfg.defaults.packet_wire_bytes = 1024;
    cfg.defaults.file_seed = derive_seed(seed, 1);
    // Far past the transfer's virtual duration: a clean bulk flow must
    // never end on its deadline.
    cfg.defaults.deadline_us = 3'600'000'000;
    return cfg;
}

// 2000 paper-sized (15 KB) transfers on 4 DRR shards.  Odd flows run wire
// v3 with a rekey every 4 KB; every 8th flow (f % 8 == 7, so a secure one:
// its retransmissions cross key epochs) sits behind Gilbert–Elliott burst
// loss on its reply data.
engine::fleet_config fleet_mixed_config(std::uint64_t seed, scale_t scale) {
    engine::fleet_config cfg;
    cfg.flows = scale == scale_t::full ? 2000 : 48;
    cfg.shards = 4;
    cfg.policy = engine::sched_policy::deficit_round_robin;
    cfg.key_seed = derive_seed(seed, 2);
    cfg.defaults.file_bytes = 15 * 1024;
    cfg.defaults.packet_wire_bytes = 512;
    const std::uint64_t file_base = derive_seed(seed, 1);
    const std::uint64_t fault_seed = derive_seed(seed, 3);
    cfg.per_flow = [file_base, fault_seed](std::uint32_t f,
                                           engine::flow_config& fc) {
        fc.file_seed = derive_seed(file_base, f);
        if (f % 2 == 1) {
            fc.secure = true;
            fc.secure_wire_version = rpc::wire_version_secure;
            fc.rekey_interval_bytes = 4096;
        }
        if (f % 8 == 7) {
            fc.forward_faults.burst.enabled = true;
            fc.forward_faults.burst.p_good_to_bad = 0.05;
            fc.forward_faults.burst.p_bad_to_good = 0.3;
            fc.forward_faults.burst.bad_loss = 1.0;
            fc.forward_faults.seed = fault_seed;
        }
    };
    return cfg;
}

// ---------------------------------------------------------------------------
// JSON output (one flat object per process).

class json_out {
public:
    void num(const char* key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        field(key, buf);
    }
    void u64(const char* key, std::uint64_t v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%" PRIu64, v);
        field(key, buf);
    }
    void str(const char* key, const std::string& v) {
        field(key, "\"" + v + "\"");
    }
    void print() const { std::printf("{%s}\n", body_.c_str()); }

private:
    void field(const char* key, const std::string& value) {
        if (!body_.empty()) body_ += ", ";
        body_ += "\"";
        body_ += key;
        body_ += "\": ";
        body_ += value;
    }
    std::string body_;
};

std::string hex64(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Benchmark-side spans and counters (traced mode only).

struct span_rec {
    const char* name;
    std::uint32_t shard;
    std::uint64_t id;  // tick index, or flow id for open_flow
    wall::time_point start;
    double dur_ns;
};

struct trace_data {
    std::vector<span_rec> spans;
    std::uint64_t active_visits = 0;  // sum of active_flows() before ticks
    std::uint64_t pending_timers_max = 0;
    std::uint64_t in_flight_max = 0;        // all four pipes of a shard
    std::uint64_t reply_in_flight_max = 0;  // the reply data pipe alone
    std::uint64_t timers_scheduled = 0;
};

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<double> span_ns(const trace_data& t, const std::string& name) {
    std::vector<double> out;
    for (const span_rec& s : t.spans) {
        if (name == s.name) out.push_back(s.dur_ns);
    }
    return out;
}

void write_chrome_trace(const trace_data& t, wall::time_point origin,
                        const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "ilpbench: cannot write %s\n", path.c_str());
        std::exit(2);
    }
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
        const span_rec& s = t.spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64 "}}",
                     i == 0 ? "" : ",", s.name, s.shard,
                     ns_between(origin, s.start) / 1000.0, s.dur_ns / 1000.0,
                     s.id);
    }
    std::fputs("\n]}\n", f);
    if (std::fclose(f) != 0) {
        std::fprintf(stderr, "ilpbench: short write to %s\n", path.c_str());
        std::exit(2);
    }
}

// ---------------------------------------------------------------------------
// The shard loop: run_fleet's set-up and run loop, driven step by step
// through the public engine::shard API so set-up and transfer are timed
// apart and every tick can be traced.

struct pass_bytes {
    std::uint64_t fused = 0, marshal = 0, cipher = 0, checksum = 0, copy = 0;
    void add(const obs::path_counters& c) {
        fused += c.fused_loop_bytes;
        marshal += c.marshal_pass_bytes;
        cipher += c.cipher_pass_bytes;
        checksum += c.checksum_pass_bytes;
        copy += c.copy_pass_bytes;
    }
};

struct run_result {
    double setup_s = 0;
    double transfer_s = 0;
    std::uint64_t flows = 0;
    std::uint64_t failed = 0;  // not completed, or a copy failed the check
    std::uint64_t verified_bytes = 0;
    std::uint64_t digest = 0;
    // Layer counters (read after the run, both modes).
    std::uint64_t ticks = 0;
    net::pipe_stats pipes;  // summed over every pipe of every shard
    std::uint64_t tcp_segments = 0, tcp_retransmissions = 0;
    std::uint64_t rpc_retries = 0, rekeys = 0, tag_failures = 0;
    analysis::gate_stats gate;
    pass_bytes send, receive;
};

void add_pipe(net::pipe_stats& sum, const net::pipe_stats& p) {
    sum.packets_sent += p.packets_sent;
    sum.packets_dropped += p.packets_dropped;
    sum.packets_duplicated += p.packets_duplicated;
    sum.packets_queue_dropped += p.packets_queue_dropped;
}

template <crypto::block_cipher Cipher>
run_result drive(const engine::fleet_config& cfg, trace_data* trace) {
    using shard_t = engine::shard<mem_t, Cipher>;
    run_result r;

    // Set-up: shards, then every flow (file-store fill, ports, legality
    // gate, endpoints, request issue) — exactly as run_fleet does it.
    const wall::time_point setup_start = wall::now();
    engine::shard_options opts;
    opts.link_latency_us = cfg.link_latency_us;
    opts.poll_step_us = cfg.poll_step_us;
    opts.per_flow_queue_cap = cfg.per_flow_queue_cap;
    opts.policy = cfg.policy;
    opts.drr_quantum_bytes = cfg.drr_quantum_bytes;
    std::vector<std::unique_ptr<shard_t>> shards;
    for (std::uint32_t s = 0; s < cfg.shards; ++s) {
        shards.push_back(
            std::make_unique<shard_t>(s, opts, mem_t{}, mem_t{}));
    }
    std::vector<engine::flow_config> flow_cfgs;
    flow_cfgs.reserve(cfg.flows);
    for (std::uint32_t f = 0; f < cfg.flows; ++f) {
        engine::flow_config fc = cfg.defaults;
        if (cfg.per_flow) cfg.per_flow(f, fc);
        if (fc.secure && fc.flow_secret == 0) {
            fc.flow_secret = derive_seed(cfg.key_seed, 0x5ec00000ull + f);
        }
        std::array<std::byte, engine::cipher_key_bytes<Cipher>()> key{};
        rng key_rng(derive_seed(cfg.key_seed, f));
        key_rng.fill(key);
        const Cipher cipher{std::span<const std::byte>(key)};
        shard_t& sh = *shards[f % cfg.shards];
        if (trace == nullptr) {
            sh.open_flow(f, fc, cipher, cipher);
        } else {
            const wall::time_point t0 = wall::now();
            sh.open_flow(f, fc, cipher, cipher);
            const wall::time_point t1 = wall::now();
            trace->spans.push_back(
                {"engine.open_flow", sh.index(), f, t0, ns_between(t0, t1)});
        }
        flow_cfgs.push_back(fc);
    }
    const wall::time_point transfer_start = wall::now();
    r.setup_s = seconds_between(setup_start, transfer_start);

    // Transfer: tick every shard (serially) until its last flow ends.
    for (auto& sh : shards) {
        if (trace == nullptr) {
            while (sh->active_flows() > 0) {
                sh->tick();
                ++r.ticks;
            }
            continue;
        }
        net::duplex_link& req = sh->request_link();
        net::duplex_link& rep = sh->reply_link();
        while (sh->active_flows() > 0) {
            trace->active_visits += sh->active_flows();
            trace->pending_timers_max =
                std::max<std::uint64_t>(trace->pending_timers_max,
                                        sh->clock().pending_timers());
            const std::uint64_t reply_q = rep.forward().in_flight();
            trace->reply_in_flight_max =
                std::max(trace->reply_in_flight_max, reply_q);
            trace->in_flight_max = std::max<std::uint64_t>(
                trace->in_flight_max, reply_q + rep.reverse().in_flight() +
                                          req.forward().in_flight() +
                                          req.reverse().in_flight());
            const wall::time_point t0 = wall::now();
            sh->tick();
            const wall::time_point t1 = wall::now();
            trace->spans.push_back({"engine.tick", sh->index(), r.ticks, t0,
                                    ns_between(t0, t1)});
            ++r.ticks;
        }
    }
    r.transfer_s = seconds_between(transfer_start, wall::now());

    // Correctness: every completed flow's copies must equal the served
    // file byte for byte (checked here, independently of the engine's own
    // verified flag, which must agree).
    engine::fleet_report report;
    for (auto& sh : shards) {
        for (const engine::flow_outcome& o : sh->outcomes()) {
            ++r.flows;
            bool ok = o.completed && o.verified;
            if (ok) {
                const std::vector<std::byte>* file =
                    sh->store().find("f" + std::to_string(o.flow_id));
                const auto& client = sh->client(o.flow_id);
                for (std::uint32_t c = 0; ok && c < flow_cfgs[o.flow_id].copies;
                     ++c) {
                    const std::span<const std::byte> got = client.copy_data(c);
                    ok = file != nullptr && got.size() == file->size() &&
                         std::equal(got.begin(), got.end(), file->begin());
                }
            }
            if (ok) {
                r.verified_bytes += o.payload_bytes;
            } else {
                ++r.failed;
                std::fprintf(stderr,
                             "ilpbench: flow %u failed: completed=%d "
                             "verified=%d gave_up=%d deadline=%d "
                             "rejected=%d no_ports=%d\n",
                             o.flow_id, o.completed, o.verified, o.gave_up,
                             o.deadline_exceeded, o.request_rejected,
                             o.ports_exhausted);
            }
            r.rpc_retries += o.rpc_retries;
            r.rekeys += o.rekeys;
            r.tag_failures += o.tag_failures;
            if (o.completed || o.gave_up || o.deadline_exceeded) {
                const auto& server = sh->server(o.flow_id);
                const tcp::sender_stats& tcp = server.reply_tcp_stats();
                r.tcp_segments += tcp.segments_transmitted;
                r.tcp_retransmissions += tcp.retransmissions;
                r.send.add(server.send_counters());
                r.receive.add(sh->client(o.flow_id).receive_counters());
            }
            report.flows.push_back(o);
        }
        add_pipe(r.pipes, sh->reply_link().forward().stats());
        add_pipe(r.pipes, sh->reply_link().reverse().stats());
        add_pipe(r.pipes, sh->request_link().forward().stats());
        add_pipe(r.pipes, sh->request_link().reverse().stats());
        const analysis::gate_stats g = sh->gate().stats();
        r.gate.checks += g.checks;
        r.gate.cache_hits += g.cache_hits;
        r.gate.fallbacks += g.fallbacks;
        if (trace != nullptr) {
            // Timer tokens are issued in sequence from 1, so the token of
            // one more (immediately cancelled) timer counts every timer the
            // shard's clock ever scheduled.  The run is over; nothing fires.
            virtual_clock& clk = sh->clock();
            const std::uint64_t token =
                clk.schedule_at(clk.now() + 1, [] {});
            clk.cancel(token);
            trace->timers_scheduled += token - 1;
        }
    }
    report.finalize();
    r.digest = report.digest();
    return r;
}

// ---------------------------------------------------------------------------
// Layer probes: one public layer function in a loop, at the workload's
// shape.  Each returns the median, over timed batches of at least ~10 ms,
// of ns per unit.

volatile std::uint64_t probe_sink = 0;

template <typename Body>
double probe(std::uint64_t units_per_call, Body&& body) {
    body();  // warm caches and lazy tables
    constexpr int batches = 7;
    std::vector<double> per_unit;
    for (int b = 0; b < batches; ++b) {
        std::uint64_t calls = 0;
        const wall::time_point t0 = wall::now();
        wall::time_point t1 = t0;
        do {
            body();
            ++calls;
            t1 = wall::now();
        } while (seconds_between(t0, t1) < 0.01);
        per_unit.push_back(ns_between(t0, t1) /
                           static_cast<double>(calls * units_per_call));
    }
    return percentile(per_unit, 50.0);
}

struct probe_results {
    double fused_send = 0, fused_recv = 0, layered_send = 0, layered_recv = 0;
    double xdr_marshal = 0, copy = 0, checksum = 0, safer = 0, aead = 0;
    double timer = 0, pipe = 0;
};

template <crypto::block_cipher Cipher>
double cipher_ns_per_byte(std::size_t bytes) {
    std::array<std::byte, Cipher::key_bytes> key{};
    rng(0x5eed).fill(key);
    const Cipher cipher{std::span<const std::byte>(key)};
    std::vector<std::byte> buf(bytes / Cipher::block_bytes *
                               Cipher::block_bytes);
    rng(0xb10c).fill(buf);
    const mem_t mem;
    return probe(buf.size(), [&] {
        for (std::size_t i = 0; i < buf.size(); i += Cipher::block_bytes) {
            cipher.encrypt_block(mem, buf.data() + i);
        }
        probe_sink = probe_sink + std::to_integer<std::uint64_t>(buf[0]);
    });
}

// Keeps the clock at `population` pending timers: each timer re-arms itself
// `population` µs later, so every 1 µs advance fires exactly one timer.
struct rearming_timer {
    virtual_clock* clock;
    sim_time period;
    void operator()() const {
        probe_sink = probe_sink + 1;
        clock->schedule_after(period, *this);
    }
};

double timer_ns(std::size_t population) {
    virtual_clock clock;
    const sim_time period = population;
    for (sim_time t = 1; t <= period; ++t) {
        clock.schedule_at(t, rearming_timer{&clock, period});
    }
    return probe(64, [&] {
        for (int i = 0; i < 64; ++i) clock.advance(1);
    });
}

// datagram_pipe::send of `population` packets of `packet_bytes` each on one
// tagged stream, then the delivery of all of them (each queued packet arms
// one delivery timer; its cost belongs to the pipe).
double pipe_ns(std::size_t packet_bytes, std::size_t population) {
    virtual_clock clock;
    constexpr sim_time latency = 100;
    net::datagram_pipe pipe(clock, latency);
    std::uint64_t delivered = 0;
    pipe.set_receiver(
        [&delivered](std::span<const std::byte> p) { delivered += p.size(); });
    std::vector<std::byte> packet(packet_bytes);
    rng(0xda7a).fill(packet);
    const mem_t mem;
    const double ns = probe(population, [&] {
        for (std::size_t i = 0; i < population; ++i) {
            pipe.send(mem, std::span<const std::byte>(packet), 1);
        }
        clock.advance(latency);
    });
    probe_sink = probe_sink + delivered;
    return ns;
}

template <crypto::block_cipher Cipher>
probe_results run_probes(std::size_t packet_wire_bytes,
                         std::size_t timer_population,
                         std::size_t pipe_population) {
    probe_results p;
    const mem_t mem;
    std::array<std::byte, Cipher::key_bytes> key{};
    rng(0x5eed).fill(key);
    const Cipher cipher{std::span<const std::byte>(key)};

    // One reply message of the workload's packet size.
    const std::size_t payload_len =
        rpc::max_payload_for_wire(packet_wire_bytes);
    std::vector<std::byte> payload(payload_len);
    rng(0xfeed).fill(payload);
    rpc::reply_header header;
    header.request_id = 7;
    header.total_bytes = static_cast<std::uint32_t>(payload_len);
    rpc::reply_staging staging;
    const core::gather_source src =
        rpc::make_reply_source(header, payload, staging);
    const rpc::reply_layout layout = rpc::layout_reply(payload_len);
    const std::size_t wire_len = layout.wire_bytes;
    std::vector<std::byte> wire(wire_len);
    const ring_span wire_dst{std::span<std::byte>(wire), {}};
    std::vector<std::byte> dest(payload_len);
    const auto resolve = [&dest](const rpc::reply_header&, std::size_t n) {
        return n == dest.size() ? std::span<std::byte>(dest)
                                : std::span<std::byte>{};
    };
    app::path_counters counters;

    p.fused_send = probe(wire_len, [&] {
        probe_sink = probe_sink +
                     app::fill_message_ilp(mem, cipher, src, layout.plan,
                                           wire_dst);
    });
    p.fused_recv = probe(wire_len, [&] {
        const tcp::rx_process_result res = app::receive_reply_ilp(
            mem, cipher, std::span<std::byte>(wire), resolve, nullptr,
            counters);
        probe_sink = probe_sink + res.payload_sum + (res.ok ? 0 : 1);
    });
    if (dest != payload) {
        std::fprintf(stderr, "ilpbench: fused probe round trip mismatch\n");
        std::exit(1);
    }

    // The layered send passes of core/layered_path.h: marshal, encrypt in
    // place, tcp_send copy, checksum.
    std::vector<std::byte> layered_staging(wire_len);
    std::vector<std::byte> ring(wire_len);
    p.layered_send = probe(wire_len, [&] {
        core::marshal_to_buffer(mem, src, layered_staging);
        core::encrypt_stage<Cipher> enc(cipher);
        core::apply_stage_in_place(mem, enc,
                                   std::span<std::byte>(layered_staging));
        core::copy_pass(mem, std::span<const std::byte>(layered_staging),
                        std::span<std::byte>(ring));
        checksum::inet_accumulator acc;
        core::checksum_pass(mem, acc, std::span<const std::byte>(ring), 8);
        probe_sink = probe_sink + acc.folded();
    });
    // The layered receive decrypts in place, so each call restores the
    // ciphertext from `wire` first; the restore is timed separately and
    // subtracted.
    const double restore = probe(wire_len, [&] {
        std::memcpy(ring.data(), wire.data(), wire_len);
        probe_sink = probe_sink + std::to_integer<std::uint64_t>(ring[0]);
    });
    p.layered_recv = probe(wire_len, [&] {
        std::memcpy(ring.data(), wire.data(), wire_len);
        const tcp::rx_process_result res = app::receive_reply_layered(
            mem, cipher, std::span<std::byte>(ring), resolve, nullptr,
            counters);
        probe_sink = probe_sink + res.payload_sum + (res.ok ? 0 : 1);
    }) - restore;
    if (dest != payload) {
        std::fprintf(stderr, "ilpbench: layered probe round trip mismatch\n");
        std::exit(1);
    }

    // The XDR marshalling and copy passes the layered paths count in
    // marshal_pass_bytes and copy_pass_bytes.
    p.xdr_marshal = probe(wire_len, [&] {
        core::marshal_to_buffer(mem, src, layered_staging);
        probe_sink =
            probe_sink + std::to_integer<std::uint64_t>(layered_staging[0]);
    });
    p.copy = probe(wire_len, [&] {
        core::copy_pass(mem, std::span<const std::byte>(layered_staging),
                        std::span<std::byte>(ring));
        probe_sink = probe_sink + std::to_integer<std::uint64_t>(ring[0]);
    });
    p.checksum = probe(wire_len, [&] {
        checksum::inet_accumulator acc;
        acc.add_bytes(mem, std::span<const std::byte>(wire), 8);
        probe_sink = probe_sink + acc.folded();
    });
    p.safer = cipher_ns_per_byte<crypto::safer_simplified>(wire_len);
    p.aead = cipher_ns_per_byte<crypto::aead_cipher>(wire_len);
    p.timer = timer_ns(std::max<std::size_t>(timer_population, 1));
    p.pipe = pipe_ns(packet_wire_bytes,
                     std::max<std::size_t>(pipe_population, 1));
    return p;
}

// ---------------------------------------------------------------------------

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    scale_t scale = scale_t::full;
    std::string mode = "run";
    std::string trace_out;
};

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: ilpbench --workload bulk_ilp|bulk_layered|fleet_mixed "
                 "--seed N [--scale full|tiny] [--mode run|traced|reference] "
                 "[--trace-out PATH]\n");
    std::exit(2);
}

options parse(int argc, char** argv) {
    options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) usage();
        const std::string val = argv[++i];
        if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--seed") {
            char* end = nullptr;
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (end == val.c_str() || *end != '\0') usage();
        } else if (arg == "--scale") {
            if (val != "full" && val != "tiny") usage();
            o.scale = val == "full" ? scale_t::full : scale_t::tiny;
        } else if (arg == "--mode") {
            if (val != "run" && val != "traced" && val != "reference") usage();
            o.mode = val;
        } else if (arg == "--trace-out") {
            o.trace_out = val;
        } else {
            usage();
        }
    }
    if (o.workload != "bulk_ilp" && o.workload != "bulk_layered" &&
        o.workload != "fleet_mixed") {
        usage();
    }
    return o;
}

template <crypto::block_cipher Cipher>
int execute(const options& o, const engine::fleet_config& cfg) {
    json_out out;
    out.str("workload", o.workload);
    out.u64("seed", o.seed);
    if (o.mode == "reference") {
        const engine::fleet_report rep = engine::run_fleet_native<Cipher>(cfg);
        out.str("digest", hex64(rep.digest()));
        out.u64("flows", rep.flows.size());
        out.u64("verified", rep.verified);
        out.print();
        return 0;
    }

    const bool traced = o.mode == "traced";
    trace_data trace;
    const wall::time_point origin = wall::now();
    const run_result r = drive<Cipher>(cfg, traced ? &trace : nullptr);
    out.str("digest", hex64(r.digest));
    out.u64("flows", r.flows);
    out.u64("failed", r.failed);
    out.u64("verified_bytes", r.verified_bytes);
    out.num("setup_s", r.setup_s);
    out.num("transfer_s", r.transfer_s);
    out.num("peak_rss_MB", peak_rss_mb());
    out.u64("ticks", r.ticks);
    if (traced) {
        if (!o.trace_out.empty()) {
            write_chrome_trace(trace, origin, o.trace_out);
        }
        const std::vector<double> tick_ns = span_ns(trace, "engine.tick");
        const std::vector<double> open_ns = span_ns(trace, "engine.open_flow");
        double tick_total = 0;
        for (const double ns : tick_ns) tick_total += ns;
        out.num("tick_us_p50", percentile(tick_ns, 50.0) / 1000.0);
        out.num("tick_us_p99", percentile(tick_ns, 99.0) / 1000.0);
        out.num("tick_s_total", tick_total / 1e9);
        out.u64("active_visits", trace.active_visits);
        out.num("open_flow_us_p50", percentile(open_ns, 50.0) / 1000.0);
        out.num("open_flow_us_p99", percentile(open_ns, 99.0) / 1000.0);
        out.u64("pending_timers_max", trace.pending_timers_max);
        out.u64("timers_scheduled", trace.timers_scheduled);
        out.u64("in_flight_max", trace.in_flight_max);
        out.u64("reply_in_flight_max", trace.reply_in_flight_max);
        out.u64("packets_sent", r.pipes.packets_sent);
        out.u64("packets_enqueued", r.pipes.packets_sent -
                                        r.pipes.packets_dropped +
                                        r.pipes.packets_duplicated);
        out.u64("packets_dropped", r.pipes.packets_dropped);
        out.u64("queue_dropped", r.pipes.packets_queue_dropped);
        out.u64("tcp_segments", r.tcp_segments);
        out.u64("tcp_retransmissions", r.tcp_retransmissions);
        out.u64("rpc_retries", r.rpc_retries);
        out.u64("rekeys", r.rekeys);
        out.u64("tag_failures", r.tag_failures);
        out.u64("gate_checks", r.gate.checks);
        out.u64("gate_cache_hits", r.gate.cache_hits);
        out.u64("gate_fallbacks", r.gate.fallbacks);
        out.u64("fused_loop_bytes", r.send.fused + r.receive.fused);
        out.u64("marshal_pass_bytes", r.send.marshal + r.receive.marshal);
        out.u64("cipher_pass_bytes", r.send.cipher + r.receive.cipher);
        out.u64("checksum_pass_bytes", r.send.checksum + r.receive.checksum);
        out.u64("copy_pass_bytes", r.send.copy + r.receive.copy);
        out.u64("send_fused_bytes", r.send.fused);
        out.u64("receive_fused_bytes", r.receive.fused);
        const probe_results p = run_probes<Cipher>(
            cfg.defaults.packet_wire_bytes, trace.pending_timers_max,
            trace.reply_in_flight_max);
        out.num("probe_fused_send", p.fused_send);
        out.num("probe_fused_recv", p.fused_recv);
        out.num("probe_layered_send", p.layered_send);
        out.num("probe_layered_recv", p.layered_recv);
        out.num("probe_xdr_marshal", p.xdr_marshal);
        out.num("probe_copy", p.copy);
        out.num("probe_checksum", p.checksum);
        out.num("probe_safer", p.safer);
        out.num("probe_aead", p.aead);
        out.num("probe_timer", p.timer);
        out.num("probe_pipe", p.pipe);
    }
    out.print();
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const options o = parse(argc, argv);
    if (o.workload == "fleet_mixed") {
        return execute<crypto::aead_cipher>(
            o, fleet_mixed_config(o.seed, o.scale));
    }
    const app::path_mode mode = o.workload == "bulk_ilp"
                                    ? app::path_mode::ilp
                                    : app::path_mode::layered;
    return execute<crypto::safer_simplified>(
        o, bulk_config(mode, o.seed, o.scale));
}
