#include "util/virtual_clock.h"

#include <algorithm>

#include "util/contracts.h"

namespace ilp {
namespace {

// std::*_heap build a max-heap, so ordering by "a fires after b" puts the
// minimum (deadline, token) on top.
constexpr auto fires_after = [](const auto& a, const auto& b) noexcept {
    return a.deadline != b.deadline ? a.deadline > b.deadline
                                    : a.token > b.token;
};

}  // namespace

void virtual_clock::advance(sim_time delta_us) {
    ILP_EXPECT(delta_us <= ~sim_time{0} - now_us_);  // no sim_time overflow
    advance_to(now_us_ + delta_us);
}

void virtual_clock::advance_to(sim_time deadline_us) {
    ILP_EXPECT(deadline_us >= now_us_);  // monotone: the clock never rewinds
    // Fire timers in (deadline, token) order up to the target time.  Timer
    // callbacks may schedule or cancel timers; new ones fire too if due
    // before the target.
    while (!heap_.empty() && heap_.front().deadline <= deadline_us) {
        std::pop_heap(heap_.begin(), heap_.end(), fires_after);
        timer t = std::move(heap_.back());
        heap_.pop_back();
        if (live_.erase(t.token) == 0) continue;  // cancelled
        ++stats_.timers_fired;
        now_us_ = std::max(now_us_, t.deadline);
        t.fn();
    }
    now_us_ = deadline_us;
}

std::uint64_t virtual_clock::schedule_at(sim_time deadline_us,
                                         std::function<void()> fn) {
    ILP_EXPECT(fn != nullptr);
    const std::uint64_t token = next_token_++;
    heap_.push_back(timer{deadline_us, token, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), fires_after);
    live_.insert(token);
    ++stats_.timers_scheduled;
    stats_.pending_max =
        std::max<std::uint64_t>(stats_.pending_max, live_.size());
    return token;
}

bool virtual_clock::cancel(std::uint64_t token) {
    if (live_.erase(token) == 0) return false;
    ++stats_.timers_cancelled;
    if (heap_.size() - live_.size() > live_.size()) compact();
    return true;
}

// Drops the dead entries and re-heapifies: O(heap size), paid only after at
// least as many cancels as there are live timers.
void virtual_clock::compact() {
    std::erase_if(heap_,
                  [this](const timer& t) { return !live_.contains(t.token); });
    std::make_heap(heap_.begin(), heap_.end(), fires_after);
}

}  // namespace ilp
