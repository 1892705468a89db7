// One worker shard of the multi-flow engine.
//
// A shard owns everything its flows touch — a virtual clock, one request
// and one reply duplex link, four port demultiplexers (one per pipe
// direction), a port allocator, a file store and the flow table — so shards
// share *nothing* and can run serially on one thread or each on its own OS
// thread with identical results: flows are deterministic on their shard's
// virtual clock.
//
// Scheduler round (tick): visit every live flow in flow-id order, let the
// service policy (engine/scheduler.h) meter the server's segment
// transmissions, poll the client's retry machinery, advance the clock one
// poll step, then reap flows that completed, failed explicitly, or hit
// their per-flow deadline.  Reaped flows quiesce their TCP timers (armed
// timers capture endpoint pointers), unbind their demux routes and return
// their ports to the allocator; their endpoints and outcome stay readable
// until the shard dies.
//
// The shard alone decides when a server transmits.  Under round_robin a
// flow's server also drains from its request and reply-ACK routes — an
// accepted request or a freed window continues segmenting at once, through
// the same scheduler grant/charge as a service visit — while
// deficit_round_robin meters every segment in the service visit only.
// app::run_transfer is an ordinary one-flow shard.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/gate.h"
#include "app/compose_models.h"
#include "app/file_transfer.h"
#include "engine/flow.h"
#include "engine/scheduler.h"
#include "net/demux.h"
#include "obs/tracer.h"
#include "rpc/messages.h"
#include "util/contracts.h"

namespace ilp::engine {

struct shard_options {
    sim_time link_latency_us = 100;
    sim_time poll_step_us = 200;
    // Shared kernel-queue bound per pipe (request forward/reverse, reply
    // forward/reverse; 0 = unbounded).  Every other fault knob is per flow
    // (flow_config), installed on the flow's own tag.
    std::size_t request_forward_queue_packets = 0;
    std::size_t request_reverse_queue_packets = 0;
    std::size_t reply_forward_queue_packets = 0;
    std::size_t reply_reverse_queue_packets = 0;
    // Fair-share bound per flow inside the shared kernel queue (0 = off).
    std::size_t per_flow_queue_cap = 0;
    sched_policy policy = sched_policy::round_robin;
    std::size_t drr_quantum_bytes = 4096;
    // Local-port range the allocator hands flows (4 ports per flow).
    std::uint16_t first_port = 10'000;
    std::uint16_t last_port = 59'999;
    // Deterministic per-flow trace sampling (obs/sampler.h): installed on
    // the shard's tracer and stamped into every outcome.  The default
    // samples every flow — the pre-sampling behaviour.
    obs::flow_sampler trace_sampler{};
};

template <memsim::memory_policy Mem, crypto::block_cipher Cipher>
class shard {
public:
    shard(std::uint32_t index, const shard_options& opts,
          const Mem& client_mem, const Mem& server_mem)
        : index_(index),
          opts_(opts),
          client_mem_(client_mem),
          server_mem_(server_mem),
          scheduler_(opts.policy, opts.drr_quantum_bytes),
          request_link_(clock_, opts.link_latency_us,
                        queue_bound(opts.request_forward_queue_packets),
                        queue_bound(opts.request_reverse_queue_packets)),
          reply_link_(clock_, opts.link_latency_us,
                      queue_bound(opts.reply_forward_queue_packets),
                      queue_bound(opts.reply_reverse_queue_packets)),
          ports_(opts.first_port, opts.last_port) {
        // An installed tracer timestamps this shard's spans on this shard's
        // clock (worker threads carry no tracer; the macros no-op there)
        // and applies this shard's flow sampler to its event ring.
        if (obs::tracer* t = obs::tracer::current()) {
            t->set_clock(&clock_);
            t->set_sampler(opts_.trace_sampler);
        }
        // Data pipes lend each packet to their demux, which passes the
        // loan on to zero-copy routes; ACKs are never lent.
        request_link_.forward().set_segment_receiver(
            request_fwd_demux_.segment_receiver());
        request_link_.reverse().set_receiver(request_rev_demux_.receiver());
        reply_link_.forward().set_segment_receiver(
            reply_fwd_demux_.segment_receiver());
        reply_link_.reverse().set_receiver(reply_rev_demux_.receiver());
        if (opts_.per_flow_queue_cap != 0) {
            request_link_.forward().set_per_tag_queue_cap(
                opts_.per_flow_queue_cap);
            request_link_.reverse().set_per_tag_queue_cap(
                opts_.per_flow_queue_cap);
            reply_link_.forward().set_per_tag_queue_cap(
                opts_.per_flow_queue_cap);
            reply_link_.reverse().set_per_tag_queue_cap(
                opts_.per_flow_queue_cap);
        }
    }

    shard(const shard&) = delete;
    shard& operator=(const shard&) = delete;

    // Opens flow `id`: allocates its four local ports, binds its demux
    // routes, installs its per-flow fault plans, constructs the endpoint
    // pair and issues the file request.  Returns false — with an explicit
    // outcome recorded — when the port range is exhausted or the request
    // cannot be issued.
    bool open_flow(std::uint32_t id, const flow_config& cfg,
                   const Cipher& client_cipher, const Cipher& server_cipher) {
        ILP_EXPECT(table_.find(id) == table_.end());
        auto holder =
            std::make_unique<flow_entry>(client_cipher, server_cipher);
        flow_entry& e = *holder;
        e.id = id;
        e.tag = id + 1;
        e.cfg = cfg;
        e.outcome.flow_id = id;
        e.outcome.shard = index_;
        e.outcome.trace_sampled = opts_.trace_sampler.sampled(id);
        // (push_back, not `= "f"`: dodges a GCC 12 -Wrestrict false
        // positive in the string assignment fast path.)
        e.file.push_back('f');
        e.file += std::to_string(id);
        store_.add_random(e.file, cfg.file_bytes, cfg.file_seed);

        tcp::connection_config request_cfg;
        tcp::connection_config reply_cfg;
        reply_cfg.local_addr = 0x0a000002;  // server
        reply_cfg.remote_addr = 0x0a000001;
        request_cfg.zero_copy = reply_cfg.zero_copy = cfg.zero_copy;
        request_cfg.net_tag = reply_cfg.net_tag = e.tag;
        if (!allocate_ports(e)) {
            e.finished = true;
            e.outcome.ports_exhausted = true;
            e.outcome.black_box.record(clock_.now(),
                                       obs::flight_event::ports_exhausted);
            table_.emplace(id, std::move(holder));
            return false;
        }
        request_cfg.local_port = e.ports[port_client_request];
        request_cfg.remote_port = e.ports[port_server_request];
        reply_cfg.local_port = e.ports[port_server_reply];
        reply_cfg.remote_port = e.ports[port_client_reply];
        // Per-flow fault plans on the flow's own tag stream.
        request_link_.forward().configure_tag(e.tag,
                                              cfg.request_forward_faults);
        request_link_.reverse().configure_tag(e.tag,
                                              cfg.request_reverse_faults);
        reply_link_.forward().configure_tag(e.tag, cfg.forward_faults);
        reply_link_.reverse().configure_tag(e.tag, cfg.reverse_faults);

        // Both endpoints share the flow's security parameters — the
        // deterministic KDF stands in for the key exchange.  The client-side
        // secret override is the key-mismatch test knob.
        app::secure_params server_sec = secure_params_for(cfg);
        app::secure_params client_sec = server_sec;
        if (cfg.client_secret_override != 0) {
            client_sec.flow_secret = cfg.client_secret_override;
        }

        // Composition-legality gate: the stage graphs of the fused loops an
        // ILP flow runs (send and receive side) are verified once, at
        // setup, before any of them runs.  Every flow the engine can build
        // composes a legal graph; an illegal verdict is a broken contract.
        if (cfg.mode == app::path_mode::ilp) {
            const bool tx =
                gate_.check(app::flow_send_graph<Cipher>(server_sec)).legal;
            const bool rx =
                gate_.check(app::flow_receive_graph<Cipher>(client_sec)).legal;
            ILP_ENSURE(tx && rx);
        }

        e.server = std::make_unique<app::file_server<Mem, Cipher>>(
            server_mem_, e.server_cipher, clock_, request_link_.reverse(),
            reply_link_.forward(), tcp::mirrored(request_cfg), reply_cfg,
            cfg.mode, store_, server_sec);
        e.client = std::make_unique<app::file_client<Mem, Cipher>>(
            client_mem_, e.client_cipher, clock_, request_link_.forward(),
            reply_link_.reverse(), request_cfg, tcp::mirrored(reply_cfg),
            cfg.mode, cfg.retry, client_sec);
        bind_routes(e);

        rpc::file_request request;
        request.request_id = 7 + id;
        request.filename = e.file;
        request.copy_count = cfg.copies;
        // Secure framing spends 8 of the per-packet wire budget on the
        // trailer; the payload shrinks so segments still fit the budget.
        const bool secure_framing =
            cfg.secure && cfg.secure_wire_version == rpc::wire_version_secure;
        request.max_reply_payload = static_cast<std::uint32_t>(
            secure_framing
                ? rpc::max_payload_for_secure_wire(cfg.packet_wire_bytes)
                : rpc::max_payload_for_wire(cfg.packet_wire_bytes));
        e.started_at = clock_.now();
        bool issued = false;
        if (request.max_reply_payload != 0) {
            obs::scoped_flow flow_scope(static_cast<std::int64_t>(id));
            issued = e.client->request_file(request);
        }
        if (!issued) {
            e.finished = true;
            e.outcome.request_rejected = true;
            e.outcome.black_box.record(clock_.now(),
                                       obs::flight_event::request_rejected);
            teardown(e);
        } else {
            e.outcome.black_box.record(e.started_at,
                                       obs::flight_event::connect, id);
            ++active_;
            active_insert(e);
        }
        table_.emplace(id, std::move(holder));
        return issued;
    }

    // Finishes a flow early (lifecycle teardown).  The outcome records
    // whatever state the flow reached; ports and routes are recycled.
    void close_flow(std::uint32_t id) {
        const auto it = table_.find(id);
        ILP_EXPECT(it != table_.end());
        if (!it->second->finished) finish(*it->second, false);
    }

    // Runs every open flow to its terminal outcome.
    void run() {
        if (obs::tracer* t = obs::tracer::current()) {
            t->set_clock(&clock_);
            t->set_sampler(opts_.trace_sampler);
        }
        while (active_ > 0) tick();
    }

    // One scheduler round; exposed so tests can single-step.  Both sweeps
    // walk the intrusive active list (live flows in id order) rather than
    // the whole table, so finished flows cost nothing per round.
    void tick() {
        for (flow_entry* e = active_head_; e != nullptr; e = e->active_next) {
            service(*e);
        }
        clock_.advance(opts_.poll_step_us);
        for (flow_entry* e = active_head_; e != nullptr;) {
            flow_entry* next = e->active_next;  // finish() unlinks e
            const bool deadline =
                clock_.now() - e->started_at >= e->cfg.deadline_us;
            if (e->client->done() || e->client->failed() || deadline) {
                finish(*e, deadline);
            }
            e = next;
        }
    }

    // --- introspection ---------------------------------------------------
    std::uint32_t index() const noexcept { return index_; }
    virtual_clock& clock() noexcept { return clock_; }
    net::duplex_link& request_link() noexcept { return request_link_; }
    net::duplex_link& reply_link() noexcept { return reply_link_; }
    const app::file_store& store() const noexcept { return store_; }
    std::size_t flows() const noexcept { return table_.size(); }
    std::size_t active_flows() const noexcept { return active_; }
    const net::port_allocator& ports() const noexcept { return ports_; }
    const net::port_demux& reply_data_demux() const noexcept {
        return reply_fwd_demux_;
    }
    const net::port_demux& request_data_demux() const noexcept {
        return request_fwd_demux_;
    }

    app::file_client<Mem, Cipher>& client(std::uint32_t id) {
        return *entry(id).client;
    }
    app::file_server<Mem, Cipher>& server(std::uint32_t id) {
        return *entry(id).server;
    }
    const flow_outcome& outcome(std::uint32_t id) const {
        const auto it = table_.find(id);
        ILP_EXPECT(it != table_.end());
        return it->second->outcome;
    }
    std::uint64_t serviced_bytes(std::uint32_t id) const {
        const auto it = table_.find(id);
        ILP_EXPECT(it != table_.end());
        return it->second->serviced_bytes;
    }
    std::vector<flow_outcome> outcomes() const {
        std::vector<flow_outcome> out;
        out.reserve(table_.size());
        for (const auto& [id, e] : table_) out.push_back(e->outcome);
        return out;
    }
    const Mem& client_mem() const noexcept { return client_mem_; }
    const Mem& server_mem() const noexcept { return server_mem_; }
    const analysis::legality_gate& gate() const noexcept { return gate_; }
    // Per-shard flow-latency sketch (log2 buckets over elapsed_us of every
    // finished flow) and the bounded slowest-flow list it cannot express.
    const obs::histogram& latency_sketch() const noexcept {
        return latency_sketch_;
    }
    const std::vector<slow_flow>& slowest_flows() const noexcept {
        return slowest_;
    }

private:
    // e.ports slots; each of the four pipe directions has its own demux, so
    // distinct slots guarantee bind() can never conflict.
    static constexpr std::size_t port_client_request = 0;
    static constexpr std::size_t port_server_request = 1;
    static constexpr std::size_t port_client_reply = 2;
    static constexpr std::size_t port_server_reply = 3;

    struct flow_entry {
        flow_entry(const Cipher& cc, const Cipher& sc)
            : client_cipher(cc), server_cipher(sc) {}
        std::uint32_t id = 0;
        std::uint32_t tag = 0;
        flow_config cfg;
        Cipher client_cipher;  // stable storage: endpoints keep pointers
        Cipher server_cipher;
        std::string file;
        std::array<std::uint16_t, 4> ports{};
        std::unique_ptr<app::file_server<Mem, Cipher>> server;
        std::unique_ptr<app::file_client<Mem, Cipher>> client;
        sim_time started_at = 0;
        sched_state sched;
        std::uint64_t serviced_bytes = 0;
        // Last counter values the flight recorder turned into events, so
        // each service visit records only the transitions since the last.
        std::uint64_t fr_retransmissions = 0;
        std::uint64_t fr_retries = 0;
        std::uint64_t fr_rekeys = 0;
        std::uint64_t fr_tag_failures = 0;
        std::uint64_t fr_epoch_skews = 0;
        bool finished = false;
        flow_outcome outcome;
        // Intrusive active-list links (id-ordered): tick() walks only live
        // flows, so a mostly-finished table costs nothing per round, and
        // finish() unlinks in O(1).
        flow_entry* active_prev = nullptr;
        flow_entry* active_next = nullptr;
    };

    static net::fault_config queue_bound(std::size_t packets) {
        net::fault_config f;
        f.max_queue_packets = packets;
        return f;
    }

    static app::secure_params secure_params_for(const flow_config& cfg) {
        app::secure_params sec;
        sec.enabled = cfg.secure;
        sec.flow_secret = cfg.flow_secret;
        sec.wire_version = cfg.secure_wire_version;
        sec.rekey_interval_bytes = cfg.rekey_interval_bytes;
        return sec;
    }

    flow_entry& entry(std::uint32_t id) {
        const auto it = table_.find(id);
        ILP_EXPECT(it != table_.end());
        return *it->second;
    }

    bool allocate_ports(flow_entry& e) {
        std::size_t n = 0;
        for (; n < e.ports.size(); ++n) {
            const std::optional<std::uint16_t> p = ports_.allocate();
            if (!p.has_value()) break;
            e.ports[n] = *p;
        }
        if (n == e.ports.size()) return true;
        // Partial allocation on exhaustion: give the ports back.
        for (std::size_t i = 0; i < n; ++i) ports_.release(e.ports[i]);
        return false;
    }

    // A zero-copy flow's data routes take the pipe's loan; its ACK routes,
    // and every route of a copying flow, get a contiguous kernel packet.
    void bind_routes(flow_entry& e) {
        flow_entry* ep = &e;
        const auto request_in = [this, ep](const auto& packet) {
            obs::scoped_flow flow_scope(ep->id);
            ep->server->on_request_packet(packet);
            drain_on_input(*ep);
        };
        const auto reply_in = [ep](const auto& packet) {
            obs::scoped_flow flow_scope(ep->id);
            ep->client->on_reply_packet(packet);
        };
        const std::uint16_t request_port = e.ports[port_server_request];
        const std::uint16_t reply_port = e.ports[port_client_reply];
        bool ok = e.cfg.zero_copy
                      ? request_fwd_demux_.bind_lending(request_port,
                                                        request_in) &&
                            reply_fwd_demux_.bind_lending(reply_port, reply_in)
                      : request_fwd_demux_.bind(request_port, request_in) &&
                            reply_fwd_demux_.bind(reply_port, reply_in);
        ok = request_rev_demux_.bind(e.ports[port_client_request],
                                     [ep](std::span<const std::byte> p) {
                                         obs::scoped_flow flow_scope(ep->id);
                                         ep->client->on_request_ack_packet(p);
                                     }) &&
             ok;
        ok = reply_rev_demux_.bind(e.ports[port_server_reply],
                                   [this, ep](std::span<const std::byte> p) {
                                       obs::scoped_flow flow_scope(ep->id);
                                       ep->server->on_reply_ack_packet(p);
                                       drain_on_input(*ep);
                                   }) &&
             ok;
        ILP_ENSURE(ok);  // freshly allocated ports cannot conflict
    }

    void service(flow_entry& e) {
        obs::scoped_flow flow_scope(e.id);
        scheduler_.begin_visit(e.sched, e.server->next_wire_bytes());
        drain(e);
        e.client->poll();
        record_transitions(e);
    }

    // Under round_robin an accepted request or a reply ACK (a freed
    // window) drains the server at once; deficit_round_robin leaves every
    // grant to the service visit.
    void drain_on_input(flow_entry& e) {
        if (scheduler_.policy() == sched_policy::round_robin) drain(e);
    }

    // Sends server segments while the scheduler grants them, charging each
    // one and counting it in serviced_bytes.
    void drain(flow_entry& e) {
        for (;;) {
            const std::size_t wire = e.server->next_wire_bytes();
            if (!scheduler_.grant(e.sched, wire)) break;
            const std::size_t sent = e.server->pump_one();
            if (sent == 0) break;  // TCP window/buffer blocked
            scheduler_.charge(e.sched, sent);
            e.serviced_bytes += sent;
            e.outcome.black_box.record(clock_.now(),
                                       obs::flight_event::segment,
                                       static_cast<std::uint32_t>(sent));
        }
    }

    // Id-ordered intrusive active list.  Production paths open flows in
    // increasing id order, so the backwards scan is O(1) there; finish()
    // unlinks in O(1) always.
    void active_insert(flow_entry& e) {
        flow_entry* pos = active_tail_;
        while (pos != nullptr && pos->id > e.id) pos = pos->active_prev;
        e.active_prev = pos;
        e.active_next = pos != nullptr ? pos->active_next : active_head_;
        if (e.active_next != nullptr) {
            e.active_next->active_prev = &e;
        } else {
            active_tail_ = &e;
        }
        if (pos != nullptr) {
            pos->active_next = &e;
        } else {
            active_head_ = &e;
        }
    }

    void active_remove(flow_entry& e) {
        if (e.active_prev != nullptr) {
            e.active_prev->active_next = e.active_next;
        } else {
            active_head_ = e.active_next;
        }
        if (e.active_next != nullptr) {
            e.active_next->active_prev = e.active_prev;
        } else {
            active_tail_ = e.active_prev;
        }
        e.active_prev = e.active_next = nullptr;
    }

    // Flight recorder: turn this visit's counter deltas into dated events.
    // A handful of counter loads per flow per tick — O(1), always on.
    void record_transitions(flow_entry& e) {
        obs::flight_recorder& fr = e.outcome.black_box;
        const sim_time now = clock_.now();
        const std::uint64_t retx = e.server->reply_tcp_stats().retransmissions;
        if (retx != e.fr_retransmissions) {
            fr.record(now, obs::flight_event::retransmit,
                      static_cast<std::uint32_t>(retx));
            e.fr_retransmissions = retx;
        }
        const std::uint64_t retries = e.client->recovery().retries;
        if (retries != e.fr_retries) {
            fr.record(now, obs::flight_event::rpc_retry,
                      static_cast<std::uint32_t>(retries));
            e.fr_retries = retries;
        }
        if (!e.cfg.secure) return;
        const std::uint64_t rekeys = e.server->secure_stats().rekeys;
        if (rekeys != e.fr_rekeys) {
            fr.record(now, obs::flight_event::rekey,
                      static_cast<std::uint32_t>(rekeys));
            e.fr_rekeys = rekeys;
        }
        const std::uint64_t tags = e.client->secure_stats().tag_failures +
                                   e.server->secure_stats().tag_failures;
        if (tags != e.fr_tag_failures) {
            fr.record(now, obs::flight_event::tag_failure,
                      static_cast<std::uint32_t>(tags));
            e.fr_tag_failures = tags;
        }
        const std::uint64_t skews = e.client->secure_stats().epoch_skews;
        if (skews != e.fr_epoch_skews) {
            fr.record(now, obs::flight_event::epoch_skew,
                      static_cast<std::uint32_t>(skews));
            e.fr_epoch_skews = skews;
        }
    }

    void finish(flow_entry& e, bool deadline_hit) {
        e.finished = true;
        --active_;
        active_remove(e);
        flow_outcome& o = e.outcome;
        o.completed = e.client->done();
        o.gave_up = e.client->failed() && !o.completed;
        o.deadline_exceeded = deadline_hit && !o.completed && !o.gave_up;
        o.elapsed_us = clock_.now() - e.started_at;
        o.payload_bytes = e.client->bytes_received();
        o.rpc_retries = e.client->recovery().retries;
        o.tcp_retransmissions = e.server->reply_tcp_stats().retransmissions;
        o.serviced_bytes = e.serviced_bytes;
        o.rekeys = e.server->secure_stats().rekeys;
        o.tag_failures = e.client->secure_stats().tag_failures +
                         e.server->secure_stats().tag_failures;
        o.epoch_skews = e.client->secure_stats().epoch_skews;
        o.epoch_window_hits = e.client->secure_stats().window_hits;
        const net::tag_stats fwd = reply_link_.forward().stats_for_tag(e.tag);
        const net::tag_stats rev = reply_link_.reverse().stats_for_tag(e.tag);
        o.reply_packets_dropped = fwd.packets_dropped;
        o.queue_dropped = fwd.packets_queue_dropped + rev.packets_queue_dropped;
        if (o.completed) {
            o.verified = true;
            const std::vector<std::byte>* original = store_.find(e.file);
            for (std::uint32_t c = 0; c < e.cfg.copies; ++c) {
                const auto received = e.client->copy_data(c);
                if (received.size() != original->size() ||
                    (original->size() > 0 &&
                     std::memcmp(received.data(), original->data(),
                                 original->size()) != 0)) {
                    o.verified = false;
                }
            }
        }
        // Terminal flight-recorder entry + the shard's O(1) latency state:
        // a log2-bucket sketch instead of any per-flow histogram, plus a
        // bounded top-k so the slowest flows keep their identity.
        const obs::flight_event terminal =
            o.completed          ? obs::flight_event::completed
            : o.gave_up          ? obs::flight_event::gave_up
            : o.deadline_exceeded ? obs::flight_event::deadline_exceeded
                                  : obs::flight_event::connect;
        if (terminal != obs::flight_event::connect) {
            o.black_box.record(clock_.now(), terminal,
                               static_cast<std::uint32_t>(o.rpc_retries));
        }
        latency_sketch_.record(o.elapsed_us);
        note_slow_flow(o.flow_id, o.elapsed_us);
        teardown(e);
    }

    // Keeps the k slowest finished flows, replace-min: O(k) per finish with
    // k fixed, so per-flow cost stays O(1) at any fleet size.
    void note_slow_flow(std::uint32_t id, sim_time elapsed_us) {
        if (slowest_.size() < max_slow_flows) {
            slowest_.push_back({id, elapsed_us});
            return;
        }
        std::size_t min_i = 0;
        for (std::size_t i = 1; i < slowest_.size(); ++i) {
            if (slowest_[i].elapsed_us < slowest_[min_i].elapsed_us) min_i = i;
        }
        if (elapsed_us > slowest_[min_i].elapsed_us) {
            slowest_[min_i] = {id, elapsed_us};
        }
    }

    // Recycles the flow's routes, ports and timers.  Endpoint state stays
    // readable (stats, received data) until the shard dies; late packets
    // addressed to the recycled ports count as no-listener drops.
    void teardown(flow_entry& e) {
        e.client->quiesce();
        e.server->quiesce();
        request_fwd_demux_.unbind(e.ports[port_server_request]);
        request_rev_demux_.unbind(e.ports[port_client_request]);
        reply_fwd_demux_.unbind(e.ports[port_client_reply]);
        reply_rev_demux_.unbind(e.ports[port_server_reply]);
        for (const std::uint16_t p : e.ports) ports_.release(p);
    }

    std::uint32_t index_;
    shard_options opts_;
    Mem client_mem_;
    Mem server_mem_;
    flow_scheduler scheduler_;
    virtual_clock clock_;  // declared before the links: they capture it
    net::duplex_link request_link_;
    net::duplex_link reply_link_;
    net::port_demux request_fwd_demux_;  // -> server request receivers
    net::port_demux request_rev_demux_;  // -> client request-ACK handlers
    net::port_demux reply_fwd_demux_;    // -> client reply receivers
    net::port_demux reply_rev_demux_;    // -> server reply-ACK handlers
    net::port_allocator ports_;
    app::file_store store_;
    analysis::legality_gate gate_;
    std::map<std::uint32_t, std::unique_ptr<flow_entry>> table_;
    std::size_t active_ = 0;
    flow_entry* active_head_ = nullptr;  // live flows, ascending id
    flow_entry* active_tail_ = nullptr;
    static constexpr std::size_t max_slow_flows = 8;
    obs::histogram latency_sketch_;
    std::vector<slow_flow> slowest_;
};

}  // namespace ilp::engine
