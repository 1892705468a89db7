// Deterministic virtual time source.
//
// The TCP retransmission machinery and the platform timing models run on
// virtual time so that every test and simulated experiment is reproducible
// bit-for-bit, independent of host load (the paper fought exactly this noise
// on its SPARCstations).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

namespace ilp {

// Microseconds since simulation start.
using sim_time = std::uint64_t;

// Timer population counters, for engine observability.  They describe the
// clock's workload, never its behaviour, so nothing may branch on them.
struct clock_stats {
    std::uint64_t timers_scheduled = 0;
    std::uint64_t timers_fired = 0;
    std::uint64_t timers_cancelled = 0;  // successful cancel() calls
    std::uint64_t pending_max = 0;       // high-water mark of pending_timers()
};

// Monotonicity contract: now() never decreases.  advance()/advance_to()
// enforce it with ILP_EXPECT — rewinding time (advance_to into the past) or
// overflowing sim_time (advance by a delta that wraps the 64-bit counter)
// aborts in any build with contracts enabled.  Everything downstream relies
// on this: the span tracer records begin <= end without clamping, TCP's RTO
// estimator subtracts timestamps unsigned, and the BENCH reports divide by
// elapsed time.  2^64 microseconds is ~584,000 years of virtual time, so
// the overflow check only ever fires on arithmetic bugs, not on long runs.
//
// Ordering contract: timers fire in (deadline, token) order.  Tokens are
// issued in increasing order, so equal deadlines fire in schedule order.
// A timer scheduled or cancelled from inside a callback takes part in the
// same advance, and a deadline already in the past fires at the current
// now() ahead of every later deadline.
//
// Store: a binary min-heap of timers keyed by (deadline, token) plus the set
// of live tokens.  cancel() is O(1): it drops the token from the live set
// and leaves a dead heap entry, skipped when it reaches the top.  The heap
// is rebuilt from its live entries whenever dead entries outnumber live
// ones, so memory stays O(live timers) and every operation is O(log n)
// amortised.
class virtual_clock {
public:
    sim_time now() const noexcept { return now_us_; }

    // Advance time; fires due timers in (deadline, token) order.  delta_us
    // must not overflow now() + delta_us (checked).
    void advance(sim_time delta_us);

    // Jump directly to an absolute time >= now() (checked; the clock never
    // rewinds).
    void advance_to(sim_time deadline_us);

    // Schedules `fn` at absolute time `deadline_us`; returns a token usable
    // with cancel().  Timers scheduled for a time <= now() fire on the next
    // advance() call.
    std::uint64_t schedule_at(sim_time deadline_us, std::function<void()> fn);
    std::uint64_t schedule_after(sim_time delta_us, std::function<void()> fn) {
        return schedule_at(now_us_ + delta_us, std::move(fn));
    }

    // Cancels a pending timer; returns false if it already fired, was
    // cancelled before, or was never issued.
    bool cancel(std::uint64_t token);

    std::size_t pending_timers() const noexcept { return live_.size(); }

    const clock_stats& stats() const noexcept { return stats_; }

private:
    struct timer {
        sim_time deadline;
        std::uint64_t token;
        std::function<void()> fn;
    };

    void compact();

    sim_time now_us_ = 0;
    std::uint64_t next_token_ = 1;
    std::vector<timer> heap_;  // min-heap on (deadline, token)
    std::unordered_set<std::uint64_t> live_;
    clock_stats stats_;
};

}  // namespace ilp
