// Port demultiplexer — the kernel part's routing duty.
//
// §3.1: "On the receiving side, the kernel part demultiplexes IP packets to
// the corresponding user-level TCP connection, i.e. to the corresponding
// application.  Each TCP user-level connection receives only the packets of
// its associated application."
//
// The demux peeks at the TCP destination port (bytes 2..3 of the segment)
// without a full header parse — kernel demultiplexing is deliberately
// minimal, everything else happens in user space.  Register it as a
// datagram_pipe receiver and bind one handler per local port.
//
// As a pipe's *segment* receiver the demux sees each packet as a loan in
// the pipe's receive ring.  A lending route (a zero-copy connection) gets
// that loan itself; a copying route gets the packet staged, uncounted, into
// one fixed per-demux buffer and does its own counted system copy from
// there — from one kernel address for every packet, as behind a span
// receiver, so the cache model sees what it saw without the ring.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "buffer/byte_buffer.h"
#include "buffer/ring_buffer.h"
#include "net/datagram.h"
#include "tcp/header.h"
#include "util/contracts.h"
#include "util/endian.h"

namespace ilp::net {

class port_demux {
public:
    using handler = std::function<void(std::span<const std::byte>)>;
    using segment_handler = std::function<void(const const_ring_span&)>;

    port_demux() : staging_(datagram_pipe::max_packet_bytes) {}

    // Binds a copying route: `on_packet` gets segments addressed to `port`
    // as one contiguous span.  A port may have at most one listener:
    // binding an already-bound port is rejected (returns false, counted)
    // instead of silently replacing the existing flow's handler.
    // Restarting a connection on the same port is an explicit rebind().
    [[nodiscard]] bool bind(std::uint16_t port, handler on_packet) {
        return insert(port, {std::move(on_packet), nullptr});
    }

    // Binds a lending route: `on_segment` gets the packet in place as a
    // (possibly two-piece) chain, valid only for the duration of the call.
    [[nodiscard]] bool bind_lending(std::uint16_t port,
                                    segment_handler on_segment) {
        return insert(port, {nullptr, std::move(on_segment)});
    }

    // Replaces the handler of a bound port (connection restart) or binds a
    // free one.
    void rebind(std::uint16_t port, handler on_packet) {
        routes_[port] = {std::move(on_packet), nullptr};
    }

    void unbind(std::uint16_t port) { routes_.erase(port); }

    std::size_t bound_ports() const noexcept { return routes_.size(); }

    // The pipe receivers: route by destination port.  A span is already a
    // fixed kernel buffer; a segment is a loan in the pipe's receive ring.
    void dispatch(std::span<const std::byte> packet) {
        deliver(const_ring_span(packet, {}), false);
    }
    void dispatch_segment(const const_ring_span& segment) {
        deliver(segment, true);
    }

    // Adapters for datagram_pipe::set_receiver / set_segment_receiver.
    handler receiver() {
        return [this](std::span<const std::byte> p) { dispatch(p); };
    }
    segment_handler segment_receiver() {
        return [this](const const_ring_span& s) { dispatch_segment(s); };
    }

    std::uint64_t dispatched() const noexcept { return dispatched_; }
    std::uint64_t no_listener_drops() const noexcept {
        return no_listener_drops_;
    }
    std::uint64_t malformed() const noexcept { return malformed_; }
    std::uint64_t bind_conflicts() const noexcept { return bind_conflicts_; }

private:
    struct route {
        handler on_packet;           // copying route
        segment_handler on_segment;  // lending route
    };

    bool insert(std::uint16_t port, route r) {
        const auto [it, inserted] = routes_.emplace(port, std::move(r));
        if (!inserted) ++bind_conflicts_;
        return inserted;
    }

    void deliver(const const_ring_span& packet, bool in_ring) {
        if (packet.size() < tcp::header_bytes) {
            ++malformed_;
            return;
        }
        std::byte port[2];
        copy_out(packet.subspan(2, 2), port);
        const auto it = routes_.find(load_be16(port));
        if (it == routes_.end()) {
            ++no_listener_drops_;
            return;
        }
        ++dispatched_;
        const route& r = it->second;
        if (r.on_segment != nullptr) {
            r.on_segment(packet);
        } else if (!in_ring) {
            r.on_packet(packet.first);
        } else {
            // Uncounted staging at a fixed address (see the file comment).
            copy_out(packet, staging_.data());
            r.on_packet(staging_.subspan(0, packet.size()));
        }
    }

    static void copy_out(const const_ring_span& src, std::byte* dst) {
        std::memcpy(dst, src.first.data(), src.first.size());
        if (!src.second.empty()) {
            std::memcpy(dst + src.first.size(), src.second.data(),
                        src.second.size());
        }
    }

    std::map<std::uint16_t, route> routes_;
    byte_buffer staging_;
    std::uint64_t dispatched_ = 0;
    std::uint64_t no_listener_drops_ = 0;
    std::uint64_t malformed_ = 0;
    std::uint64_t bind_conflicts_ = 0;
};

// Port-number allocator for the multi-flow engine: hands out local ports
// from a fixed range, recycles released ports (LIFO, so teardown/reopen
// churn stays in a small working set), and reports exhaustion as an explicit
// error (nullopt) instead of the silent-overwrite UB path that handing the
// same port to two flows used to be.
//
// Every operation is strictly O(1), allocation-free after construction: the
// free list is reserved for the whole range up front (release can never
// reallocate), and a per-port busy bitmap turns the releasing-a-free-port
// programmer error into an O(1) contract check instead of a list scan.
class port_allocator {
public:
    port_allocator(std::uint16_t first, std::uint16_t last)
        : first_(first), last_(last), next_(first), busy_(capacity(), 0) {
        ILP_EXPECT(first <= last);
        free_.reserve(capacity());
    }

    // Next free port, or nullopt when the range is exhausted.
    std::optional<std::uint16_t> allocate() {
        if (!free_.empty()) {
            const std::uint16_t p = free_.back();
            free_.pop_back();
            ++allocated_;
            busy_[p - first_] = 1;
            return p;
        }
        if (next_ > last_) return std::nullopt;
        ++allocated_;
        const std::uint16_t p = static_cast<std::uint16_t>(next_++);
        busy_[p - first_] = 1;
        return p;
    }

    // Returns a port to the pool.  Releasing a port that was never handed
    // out — including a double release — is a programmer error.
    void release(std::uint16_t port) {
        ILP_EXPECT(port >= first_ && port < next_);
        ILP_EXPECT(busy_[port - first_] != 0);
        ILP_EXPECT(allocated_ > 0);
        --allocated_;
        busy_[port - first_] = 0;
        free_.push_back(port);  // never reallocates: reserved to capacity()
    }

    std::size_t capacity() const noexcept {
        return static_cast<std::size_t>(last_ - first_) + 1;
    }
    std::size_t allocated() const noexcept { return allocated_; }
    // Structural O(1) witnesses for the churn microbench: the free list must
    // keep its construction-time reservation through any churn pattern.
    std::size_t free_list_capacity() const noexcept { return free_.capacity(); }
    std::size_t free_list_size() const noexcept { return free_.size(); }

private:
    std::uint16_t first_;
    std::uint16_t last_;
    std::uint32_t next_;  // wider than uint16_t so next_ > last_ can hold
    std::size_t allocated_ = 0;
    std::vector<std::uint16_t> free_;
    std::vector<std::uint8_t> busy_;  // 1 = currently handed out
};

}  // namespace ilp::net
