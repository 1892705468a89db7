// Per-flow flight recorder: a fixed ring of recent state transitions.
//
// Every flow carries one of these — always on, a few hundred bytes, O(1)
// per event — recording the coarse protocol transitions that explain an
// outcome: connect, data segments, retransmissions, RPC retries, rekeys,
// tag failures, epoch skews and the terminal outcome itself, each stamped
// with the shard's virtual clock.  When a flow fails explicitly (gave up,
// deadline, rejected request, no ports), the recorder is dumped as that
// flow's JSON "black box" in the fleet report, so a 10k-flow run explains
// its failures without anyone re-running it under a tracer.
//
// This is deliberately not the span tracer: spans are sampled and rich, the
// flight recorder is universal and tiny.  The ring wraps — only the most
// recent `capacity` transitions survive, which is the point: the events
// *leading into* the failure are the ones worth keeping.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/virtual_clock.h"

namespace ilp::obs {

enum class flight_event : std::uint8_t {
    connect,      // request issued; arg = flow id
    segment,      // scheduler-granted data segment; arg = wire bytes
    retransmit,   // TCP retransmissions observed; arg = new count
    rpc_retry,    // client re-issued the request; arg = new count
    rekey,        // server advanced its key epoch; arg = new epoch
    tag_failure,  // explicit AEAD tag rejection; arg = new count
    epoch_skew,   // explicit epoch-skew rejection; arg = new count
    completed,    // terminal outcomes (arg = rpc retries at the end)
    gave_up,
    deadline_exceeded,
    request_rejected,
    ports_exhausted,
};

// Stable lowercase name ("segment", "gave_up", ...) for tables and JSON.
const char* flight_event_name(flight_event ev) noexcept;

struct flight_entry {
    sim_time at_us = 0;
    std::uint32_t arg = 0;
    flight_event event = flight_event::connect;

    friend bool operator==(const flight_entry&, const flight_entry&) = default;
};

class flight_recorder {
public:
    static constexpr std::size_t capacity = 32;

    void record(sim_time at_us, flight_event ev,
                std::uint32_t arg = 0) noexcept {
        ring_[static_cast<std::size_t>(recorded_ % capacity)] = {at_us, arg,
                                                                 ev};
        ++recorded_;
    }

    // Events ever recorded; min(recorded, capacity) of them survive.
    std::uint64_t recorded() const noexcept { return recorded_; }
    std::size_t size() const noexcept {
        return recorded_ < capacity ? static_cast<std::size_t>(recorded_)
                                    : capacity;
    }

    // Oldest-surviving-first copy of the ring.
    std::vector<flight_entry> entries() const {
        std::vector<flight_entry> out;
        const std::size_t live = size();
        out.reserve(live);
        const std::size_t start =
            recorded_ < capacity ? 0
                                 : static_cast<std::size_t>(recorded_ % capacity);
        for (std::size_t i = 0; i < live; ++i) {
            out.push_back(ring_[(start + i) % capacity]);
        }
        return out;
    }

private:
    std::array<flight_entry, capacity> ring_{};
    std::uint64_t recorded_ = 0;
};

}  // namespace ilp::obs
