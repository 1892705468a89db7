// Unit tests for the util module: endian helpers, alignment/unit math,
// deterministic RNG, virtual clock, fixed_vector and hexdump.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "util/alignment.h"
#include "util/endian.h"
#include "util/fixed_vector.h"
#include "util/hexdump.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/virtual_clock.h"

namespace ilp {
namespace {

TEST(Endian, Be16RoundTrip) {
    std::byte buf[2];
    store_be16(buf, 0xbeef);
    EXPECT_EQ(std::to_integer<int>(buf[0]), 0xbe);
    EXPECT_EQ(std::to_integer<int>(buf[1]), 0xef);
    EXPECT_EQ(load_be16(buf), 0xbeef);
}

TEST(Endian, Be32RoundTrip) {
    std::byte buf[4];
    store_be32(buf, 0x01020304u);
    EXPECT_EQ(std::to_integer<int>(buf[0]), 0x01);
    EXPECT_EQ(std::to_integer<int>(buf[3]), 0x04);
    EXPECT_EQ(load_be32(buf), 0x01020304u);
}

TEST(Endian, Be64RoundTrip) {
    std::byte buf[8];
    store_be64(buf, 0x0102030405060708ull);
    EXPECT_EQ(std::to_integer<int>(buf[0]), 0x01);
    EXPECT_EQ(std::to_integer<int>(buf[7]), 0x08);
    EXPECT_EQ(load_be64(buf), 0x0102030405060708ull);
}

TEST(Endian, ByteswapInvolution) {
    EXPECT_EQ(byteswap32(byteswap32(0xdeadbeefu)), 0xdeadbeefu);
    EXPECT_EQ(byteswap16(byteswap16(0x1234)), 0x1234);
    EXPECT_EQ(byteswap64(byteswap64(0x123456789abcdef0ull)),
              0x123456789abcdef0ull);
    EXPECT_EQ(byteswap32(0x01020304u), 0x04030201u);
}

TEST(Endian, HostToBeMatchesStore) {
    // host_to_be32 must produce the same byte image store_be32 writes.
    const std::uint32_t v = 0xcafef00du;
    std::byte via_store[4];
    store_be32(via_store, v);
    const std::uint32_t converted = host_to_be32(v);
    std::byte via_memcpy[4];
    std::memcpy(via_memcpy, &converted, 4);
    EXPECT_EQ(std::memcmp(via_store, via_memcpy, 4), 0);
}

TEST(Alignment, AlignUpDown) {
    EXPECT_EQ(align_up(0, 8), 0u);
    EXPECT_EQ(align_up(1, 8), 8u);
    EXPECT_EQ(align_up(8, 8), 8u);
    EXPECT_EQ(align_up(9, 8), 16u);
    EXPECT_EQ(align_down(15, 8), 8u);
    EXPECT_EQ(align_down(16, 8), 16u);
    EXPECT_TRUE(is_aligned(24, 8));
    EXPECT_FALSE(is_aligned(25, 8));
    EXPECT_EQ(padding_for(13, 8), 3u);
    EXPECT_EQ(padding_for(16, 8), 0u);
}

TEST(Alignment, ExchangeUnitLcm) {
    // The paper's examples: encryption 8, checksum 2 -> exchange in 8s.
    EXPECT_EQ(exchange_unit(8, 2), 8u);
    EXPECT_EQ(exchange_unit(4, 8), 8u);
    EXPECT_EQ(exchange_unit(4, 6), 12u);
    // Folding in the system parameter Ls.
    EXPECT_EQ(exchange_unit(4, 2, 8), 8u);
    EXPECT_EQ(exchange_unit_of(4, 8, 2), 8u);
    EXPECT_EQ(exchange_unit_of(), 1u);
    EXPECT_EQ(exchange_unit_of(3, 5), 15u);
}

TEST(Rng, Deterministic) {
    rng a(42), b(42), c(43);
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_EQ(a.next_u64(), b.next_u64());
    rng a2(42);
    EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(Rng, BelowBound) {
    rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.next_below(17), 17u);
    }
    // All residues eventually hit.
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, FillCoversWholeSpan) {
    rng r(9);
    std::byte buf[37];
    std::memset(buf, 0, sizeof buf);
    r.fill(buf);
    int nonzero = 0;
    for (const auto b : buf) nonzero += b != std::byte{0};
    EXPECT_GT(nonzero, 20);  // overwhelmingly likely for random bytes
}

TEST(Rng, FillLaysOutEachDrawLeastSignificantByteFirst) {
    // File contents, and so every fleet digest, depend on this byte order.
    rng filler(12);
    rng draws(12);
    std::byte buf[37];
    filler.fill(buf);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof buf; ++i) {
        if (i % 8 == 0) v = draws.next_u64();
        EXPECT_EQ(std::to_integer<std::uint64_t>(buf[i]), v & 0xff) << i;
        v >>= 8;
    }
}

TEST(Rng, DoubleInUnitInterval) {
    rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(VirtualClock, FiresInDeadlineOrder) {
    virtual_clock clock;
    std::vector<int> order;
    clock.schedule_at(30, [&] { order.push_back(3); });
    clock.schedule_at(10, [&] { order.push_back(1); });
    clock.schedule_at(20, [&] { order.push_back(2); });
    clock.advance(25);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(clock.now(), 25u);
    clock.advance(10);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(VirtualClock, CancelPreventsFiring) {
    virtual_clock clock;
    int fired = 0;
    const auto token = clock.schedule_at(5, [&] { ++fired; });
    EXPECT_TRUE(clock.cancel(token));
    EXPECT_FALSE(clock.cancel(token));  // already cancelled
    clock.advance(10);
    EXPECT_EQ(fired, 0);
}

TEST(VirtualClock, TimerSchedulingTimer) {
    virtual_clock clock;
    std::vector<sim_time> fire_times;
    clock.schedule_at(10, [&] {
        fire_times.push_back(clock.now());
        clock.schedule_after(5, [&] { fire_times.push_back(clock.now()); });
    });
    clock.advance(100);
    ASSERT_EQ(fire_times.size(), 2u);
    EXPECT_EQ(fire_times[0], 10u);
    EXPECT_EQ(fire_times[1], 15u);
}

TEST(VirtualClock, SameDeadlineFiresInScheduleOrder) {
    virtual_clock clock;
    std::vector<int> order;
    clock.schedule_at(10, [&] { order.push_back(1); });
    clock.schedule_at(10, [&] { order.push_back(2); });
    clock.advance(10);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(VirtualClock, PendingTimerCount) {
    virtual_clock clock;
    EXPECT_EQ(clock.pending_timers(), 0u);
    clock.schedule_at(10, [] {});
    clock.schedule_at(20, [] {});
    EXPECT_EQ(clock.pending_timers(), 2u);
    clock.advance(15);
    EXPECT_EQ(clock.pending_timers(), 1u);
}

TEST(VirtualClockDeath, RewindViolatesMonotonicityContract) {
    virtual_clock clock;
    clock.advance(100);
    EXPECT_DEATH(clock.advance_to(50), "deadline_us >= now_us_");
}

TEST(VirtualClockDeath, OverflowingAdvanceAborts) {
    virtual_clock clock;
    clock.advance(100);
    EXPECT_DEATH(clock.advance(~sim_time{0}), "delta_us <=");
}

TEST(VirtualClock, StatsCountTimerPopulation) {
    virtual_clock clock;
    const auto a = clock.schedule_at(10, [] {});
    clock.schedule_at(20, [] {});
    clock.schedule_at(30, [] {});
    EXPECT_TRUE(clock.cancel(a));
    EXPECT_FALSE(clock.cancel(a));
    clock.advance(25);
    EXPECT_EQ(clock.stats().timers_scheduled, 3u);
    EXPECT_EQ(clock.stats().timers_fired, 1u);
    EXPECT_EQ(clock.stats().timers_cancelled, 1u);
    EXPECT_EQ(clock.stats().pending_max, 3u);
    EXPECT_EQ(clock.pending_timers(), 1u);
}

// Cancel-heavy churn (the TCP RTO re-arm pattern): dead heap entries are
// compacted away, so a long run keeps firing the survivors correctly.
TEST(VirtualClock, CancelChurnKeepsLiveTimers) {
    virtual_clock clock;
    std::vector<std::uint64_t> fired;
    std::uint64_t rearmed = 0;
    for (int i = 0; i < 10'000; ++i) {
        if (rearmed != 0) {
            EXPECT_TRUE(clock.cancel(rearmed));
        }
        rearmed = clock.schedule_after(1'000, [] {});
        if (i % 100 == 0) {
            clock.schedule_after(50, [&fired, &clock] {
                fired.push_back(clock.now());
            });
        }
        clock.advance(1);
    }
    EXPECT_EQ(clock.pending_timers(), 1u);
    EXPECT_EQ(fired.size(), 100u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

// The linear-scan clock the heap replaced (contract checks dropped), kept
// as the reference for the firing order: among live timers due by the
// target, fire the minimum (deadline, token), rescanning after every
// callback.
class linear_clock {
public:
    sim_time now() const noexcept { return now_us_; }

    void advance(sim_time delta_us) { advance_to(now_us_ + delta_us); }

    void advance_to(sim_time deadline_us) {
        for (;;) {
            timer* next = nullptr;
            for (auto& t : timers_) {
                if (t.cancelled || t.deadline > deadline_us) continue;
                if (next == nullptr || t.deadline < next->deadline ||
                    (t.deadline == next->deadline && t.token < next->token)) {
                    next = &t;
                }
            }
            if (next == nullptr) break;
            now_us_ = std::max(now_us_, next->deadline);
            auto fn = std::move(next->fn);
            next->cancelled = true;
            fn();
        }
        now_us_ = deadline_us;
        std::erase_if(timers_, [](const timer& t) { return t.cancelled; });
    }

    std::uint64_t schedule_at(sim_time deadline_us, std::function<void()> fn) {
        const std::uint64_t token = next_token_++;
        timers_.push_back(timer{deadline_us, token, std::move(fn)});
        return token;
    }
    std::uint64_t schedule_after(sim_time delta_us, std::function<void()> fn) {
        return schedule_at(now_us_ + delta_us, std::move(fn));
    }

    bool cancel(std::uint64_t token) {
        for (auto& t : timers_) {
            if (t.token == token && !t.cancelled) {
                t.cancelled = true;
                return true;
            }
        }
        return false;
    }

    std::size_t pending_timers() const noexcept {
        return static_cast<std::size_t>(
            std::count_if(timers_.begin(), timers_.end(),
                          [](const timer& t) { return !t.cancelled; }));
    }

private:
    struct timer {
        sim_time deadline;
        std::uint64_t token;
        std::function<void()> fn;
        bool cancelled = false;
    };

    sim_time now_us_ = 0;
    std::uint64_t next_token_ = 1;
    std::vector<timer> timers_;
};

// Drives one clock through a seeded script and logs everything observable.
// A callback's actions are drawn from derive_seed(seed, token), so two
// clocks that agree on the fire order so far also agree on what every
// callback does; the first divergence shows up in the log.
struct clock_event {
    char kind;  // 'f' fire, 'c' cancel, 's' schedule
    std::uint64_t token;
    std::uint64_t value;  // now() at a fire, cancel()'s result, or pending
    bool operator==(const clock_event&) const = default;
};

template <typename Clock>
struct clock_driver {
    explicit clock_driver(std::uint64_t s) : seed(s) {}

    Clock clock;
    std::uint64_t seed;
    std::uint64_t issued = 0;
    std::uint64_t pending_max = 0;
    std::vector<clock_event> log;

    // Deadline in the past, at now, or in the future; the small range makes
    // equal deadlines common.
    sim_time pick_deadline(rng& r) {
        const sim_time k = r.next_below(12);
        switch (r.next_below(3)) {
            case 0:
                return clock.now() - std::min(k, clock.now());
            case 1:
                return clock.now();
            default:
                return clock.now() + k;
        }
    }

    // Live, fired, cancelled and never-issued tokens (0 and past `issued`).
    std::uint64_t pick_token(rng& r) { return r.next_below(issued + 3); }

    // Schedules at `when`, an absolute deadline, or with `relative` a delay
    // through schedule_after().
    void schedule(sim_time when, int depth, bool relative = false) {
        auto token = std::make_shared<std::uint64_t>(0);
        auto fn = [this, token, depth] { fire(*token, depth); };
        *token = relative ? clock.schedule_after(when, fn)
                          : clock.schedule_at(when, fn);
        issued = *token;
        pending_max = std::max<std::uint64_t>(pending_max,
                                              clock.pending_timers());
        log.push_back({'s', *token, clock.pending_timers()});
    }

    void cancel(std::uint64_t token) {
        log.push_back({'c', token, clock.cancel(token) ? 1u : 0u});
    }

    void fire(std::uint64_t token, int depth) {
        log.push_back({'f', token, clock.now()});
        if (depth >= 3) return;
        rng r(derive_seed(seed, token));
        const std::uint64_t actions = r.next_below(4);
        for (std::uint64_t i = 0; i < actions; ++i) {
            if (r.next_bool(0.6)) {
                schedule(pick_deadline(r), depth + 1);
            } else {
                cancel(pick_token(r));
            }
        }
    }

    // One top-level operation, drawn from the shared driver stream.
    void step(rng& r) {
        switch (r.next_below(6)) {
            case 0:
            case 1:
                schedule(pick_deadline(r), 0);
                break;
            case 2:
                cancel(pick_token(r));
                break;
            case 3:
                clock.advance(r.next_below(8));
                break;
            case 4:
                clock.advance_to(clock.now() + r.next_below(20));
                break;
            default:
                schedule(r.next_below(8), 0, true);
                break;
        }
    }
};

TEST(VirtualClockProperty, HeapMatchesLinearScanReference) {
    for (std::uint64_t run = 0; run < 3000; ++run) {
        const std::uint64_t seed = derive_seed(0xc10c, run);
        clock_driver<virtual_clock> heap(seed);
        clock_driver<linear_clock> ref(seed);
        rng heap_ops(seed);
        rng ref_ops(seed);
        for (int op = 0; op < 120; ++op) {
            heap.step(heap_ops);
            ref.step(ref_ops);
            ASSERT_EQ(heap.log, ref.log) << "run " << run << " op " << op;
            ASSERT_EQ(heap.clock.now(), ref.clock.now());
            ASSERT_EQ(heap.clock.pending_timers(),
                      ref.clock.pending_timers());
        }
        std::uint64_t fires = 0;
        std::uint64_t cancels = 0;
        for (const auto& e : ref.log) {
            if (e.kind == 'f') ++fires;
            if (e.kind == 'c' && e.value == 1) ++cancels;
        }
        ASSERT_EQ(heap.clock.stats().timers_scheduled, heap.issued);
        ASSERT_EQ(heap.clock.stats().timers_fired, fires);
        ASSERT_EQ(heap.clock.stats().timers_cancelled, cancels);
        ASSERT_EQ(heap.clock.stats().pending_max, ref.pending_max);
    }
}

TEST(Json, ParsesScalars) {
    EXPECT_TRUE(json::parse("null")->is_null());
    EXPECT_TRUE(json::parse("true")->as_bool());
    EXPECT_FALSE(json::parse("false")->as_bool(true));
    EXPECT_DOUBLE_EQ(json::parse("-12.5e2")->as_number(), -1250.0);
    EXPECT_EQ(*json::parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
    const auto doc = json::parse(
        R"({"bench": "fig08", "metrics": [{"name": "a", "value": 1.5}],)"
        R"( "ok": true})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->string_at("bench"), "fig08");
    EXPECT_TRUE(doc->find("ok")->as_bool());
    const json::array* metrics = doc->find("metrics")->as_array();
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->size(), 1u);
    EXPECT_EQ((*metrics)[0].string_at("name"), "a");
    EXPECT_DOUBLE_EQ((*metrics)[0].number_at("value"), 1.5);
}

TEST(Json, DecodesStringEscapes) {
    const auto doc = json::parse(R"("a\"b\\c\ndA\u00e9")");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(*doc->as_string(), "a\"b\\c\nd"
                                 "A\xc3\xa9");
}

TEST(Json, RejectsMalformedInput) {
    EXPECT_FALSE(json::parse("").has_value());
    EXPECT_FALSE(json::parse("{").has_value());
    EXPECT_FALSE(json::parse("[1,]").has_value());
    EXPECT_FALSE(json::parse("{\"a\" 1}").has_value());
    EXPECT_FALSE(json::parse("12 garbage").has_value());
    EXPECT_FALSE(json::parse("\"unterminated").has_value());
    std::string deep;
    for (int i = 0; i < 100; ++i) deep += "[";
    EXPECT_FALSE(json::parse(deep).has_value());  // depth limit
}

TEST(Json, LookupFallbacks) {
    const auto doc = json::parse(R"({"n": 3})");
    EXPECT_EQ(doc->find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(doc->number_at("missing", -1.0), -1.0);
    EXPECT_EQ(doc->string_at("n", "fallback"), "fallback");  // wrong type
    EXPECT_EQ(json::parse("[]")->find("k"), nullptr);  // not an object
}

TEST(FixedVector, PushAndIterate) {
    fixed_vector<int, 4> v;
    EXPECT_TRUE(v.empty());
    v.push_back(1);
    v.push_back(2);
    v.push_back(3);
    EXPECT_EQ(v.size(), 3u);
    EXPECT_FALSE(v.full());
    int sum = 0;
    for (const int x : v) sum += x;
    EXPECT_EQ(sum, 6);
    EXPECT_EQ(v.back(), 3);
    v.push_back(4);
    EXPECT_TRUE(v.full());
    v.clear();
    EXPECT_TRUE(v.empty());
}

TEST(Hexdump, FormatsOffsetsHexAndAscii) {
    const char* text = "Hello, ILP!";
    const std::string dump =
        hexdump({reinterpret_cast<const std::byte*>(text), 11});
    EXPECT_NE(dump.find("00000000"), std::string::npos);
    EXPECT_NE(dump.find("48 65 6c 6c 6f"), std::string::npos);
    EXPECT_NE(dump.find("|Hello, ILP!|"), std::string::npos);
}

TEST(Hexdump, ToHex) {
    const std::byte data[] = {std::byte{0xde}, std::byte{0xad},
                              std::byte{0xbe}, std::byte{0xef}};
    EXPECT_EQ(to_hex(data), "deadbeef");
    EXPECT_EQ(to_hex({}), "");
}

}  // namespace
}  // namespace ilp
