/**
 * @file
 * Unit tests for the discrete event kernel (sim/event_queue.h):
 * temporal ordering, same-tick priority ordering, insertion-order
 * tie-breaking, and the bounded run watchdog.  This binary also counts
 * every heap allocation, so it holds the zero-allocation guards for all
 * three per-access structures: the kernel's schedule/step cycle, the
 * ValueStore (runtime/value_store.h) and FlatAddrMap (sim/flat_map.h).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "runtime/value_store.h"
#include "sim/event_queue.h"
#include "sim/flat_map.h"

// Count every heap allocation this binary makes so the steady-state
// tests below can assert the per-access hot paths are allocation-free.  Replaceable allocation functions must live at
// global scope; the counting is cheap enough to leave on for the whole
// binary.
static std::atomic<std::uint64_t> gHeapAllocs{0};

// GCC pairs the replaced delete below with the *default* operator new
// when diagnosing, so it flags free() as mismatched even though both
// replacements consistently use malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t n)
{
    ++gHeapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace cord
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickPriorityOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(2); }, EventQueue::kPriCore);
    q.schedule(5, [&] { order.push_back(1); }, EventQueue::kPriResponse);
    q.schedule(5, [&] { order.push_back(0); }, EventQueue::kPriBusGrant);
    q.schedule(5, [&] { order.push_back(3); }, EventQueue::kPriWalker);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, SameTickSamePriorityInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsScheduledFromEventsRun)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.scheduleIn(5, [&] {
            ++fired;
            q.scheduleIn(5, [&] { ++fired; });
        });
    });
    q.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), 11u);
}

TEST(EventQueue, ZeroDelaySelfSchedulingAdvancesDeterministically)
{
    EventQueue q;
    int count = 0;
    std::function<void()> tick = [&] {
        if (++count < 100)
            q.scheduleIn(0, tick);
    };
    q.schedule(0, tick);
    q.run();
    EXPECT_EQ(count, 100);
    EXPECT_EQ(q.now(), 0u);
}

TEST(EventQueue, BoundedRunStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    for (Tick t = 10; t <= 100; t += 10)
        q.schedule(t, [&] { ++fired; });
    q.run(50); // runs events up to tick now+50 = 50
    EXPECT_EQ(fired, 5);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, BoundedRunSaturatesInsteadOfWrapping)
{
    EventQueue q;
    int fired = 0;
    q.schedule(100, [&] { ++fired; });
    q.run();
    EXPECT_EQ(q.now(), 100u);

    // A huge-but-finite watchdog budget (the campaign harness passes
    // `censusTicks * 25 + 1000000`): now + maxTicks would wrap Tick
    // arithmetic, putting the limit in the past and silently skipping
    // every pending event.  The limit must saturate at kMaxTick.
    q.schedule(200, [&] { ++fired; });
    EXPECT_EQ(q.run(kMaxTick - 50), 1u);
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue q;
    EXPECT_FALSE(q.step());
    q.schedule(3, [] {});
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingCount)
{
    EventQueue q;
    EXPECT_EQ(q.pending(), 0u);
    q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.step();
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, GoldenSameTickSequence)
{
    // Frozen golden sequence for the same-tick (priority, insertion
    // seq) tie-break, including events scheduled from inside a
    // same-tick event (which receive a later seq and therefore run
    // after every already-pending event of their priority).  Replay
    // and the order log both lean on this order: if this test needs
    // updating, recorded schedules and order-log goldens break too, so
    // treat a diff here as a determinism regression, not a test chore.
    EventQueue q;
    std::vector<std::string> seq;
    auto ev = [&seq](const char *name) {
        return [&seq, name] { seq.emplace_back(name); };
    };
    q.schedule(10, ev("t10.walker"), EventQueue::kPriWalker);
    q.schedule(10, ev("t10.core.a"), EventQueue::kPriCore);
    q.schedule(5, ev("t5.default.a"));
    q.schedule(10,
               [&] {
                   seq.emplace_back("t10.grant");
                   // Same tick, scheduled mid-tick: runs after core.a
                   // and core.b despite the equal priority.
                   q.scheduleIn(0, ev("t10.core.late"),
                                EventQueue::kPriCore);
               },
               EventQueue::kPriBusGrant);
    q.schedule(10, ev("t10.response"), EventQueue::kPriResponse);
    q.schedule(5, ev("t5.grant"), EventQueue::kPriBusGrant);
    q.schedule(10, ev("t10.core.b"), EventQueue::kPriCore);
    q.schedule(5, ev("t5.default.b"));
    q.run();
    const std::vector<std::string> golden{
        "t5.grant",      "t5.default.a", "t5.default.b",
        "t10.grant",     "t10.response", "t10.core.a",
        "t10.core.b",    "t10.core.late", "t10.walker",
    };
    EXPECT_EQ(seq, golden);
}

TEST(EventQueue, SteadyStateScheduleStepDoesNotAllocate)
{
    EventQueue q;
    std::uint64_t sink = 0;
    // Warm-up: grow the node heap and slot arena to steady-state
    // capacity (and let gtest/stdlib finish their lazy init).
    for (int i = 0; i < 64; ++i)
        q.schedule(1, [&sink, i] { sink += i; });
    q.run();

    const std::uint64_t before = gHeapAllocs.load();
    for (int round = 0; round < 32; ++round) {
        for (int i = 0; i < 64; ++i)
            q.schedule(q.now() + 1, [&sink, i] { sink += i; });
        q.run();
    }
    const std::uint64_t after = gHeapAllocs.load();
    EXPECT_EQ(after, before)
        << "schedule/step steady state must not touch the heap";
    EXPECT_EQ(sink, 33u * 2016u); // 33 rounds x sum(0..63)
}

TEST(ValueStore, ResidentPageLoadStoreDoesNotAllocate)
{
    // Two pages far apart, so the loop misses the one-entry MRU cache
    // and takes the page-table lookup on every access.
    ValueStore vs;
    const Addr a = 0x1000, b = 0x800000;
    vs.store(a, 1);
    vs.store(b, 2);

    const std::uint64_t before = gHeapAllocs.load();
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < 256; ++i) {
        const Addr off = (i % 64) * kWordBytes;
        vs.store(a + off, i);
        vs.store(b + off, i + 1);
        sum += vs.load(a + off) + vs.load(b + off);
        sum += vs.compareAndSwap(a + off, i, i + 2).first;
    }
    const std::uint64_t after = gHeapAllocs.load();
    EXPECT_EQ(after, before)
        << "loads and stores on resident pages must not touch the heap";
    EXPECT_EQ(vs.footprintWords(), 128u);
    EXPECT_GT(sum, 0u);
}

TEST(FlatAddrMap, LookupOfPresentKeysDoesNotAllocate)
{
    FlatAddrMap<std::uint64_t> m;
    constexpr Addr kKeys = 1000;
    for (Addr k = 0; k < kKeys; ++k)
        m[k * kLineBytes] = k;

    const std::uint64_t before = gHeapAllocs.load();
    std::uint64_t sum = 0;
    for (int round = 0; round < 4; ++round) {
        for (Addr k = 0; k < kKeys; ++k) {
            sum += *m.find(k * kLineBytes);
            m[k * kLineBytes] += 1;
        }
    }
    const std::uint64_t after = gHeapAllocs.load();
    EXPECT_EQ(after, before)
        << "find/operator[] on present keys must not touch the heap";
    EXPECT_EQ(m.size(), kKeys);
    // sum over rounds r = 0..3 of sum(k + r) for k < 1000
    EXPECT_EQ(sum, 4u * 499500u + 6u * kKeys);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(5, [] {}), "past");
}

} // namespace
} // namespace cord
