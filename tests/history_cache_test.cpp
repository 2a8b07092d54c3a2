/**
 * @file
 * Unit tests for the detector residency model (cord/history_cache.h):
 * finite vs unbounded storage, eviction callbacks (the main-memory
 * timestamp fold point), and invalidation.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cord/history_cache.h"

namespace cord
{
namespace
{

struct State
{
    int value = 0;
};

TEST(HistoryCache, InfiniteNeverEvicts)
{
    HistoryCache<State> c; // unbounded
    EXPECT_TRUE(c.infinite());
    int evictions = 0;
    auto onEvict = [&](Addr, State &) { ++evictions; };
    for (unsigned i = 0; i < 10000; ++i)
        c.getOrInsert(i * kLineBytes, onEvict).value = static_cast<int>(i);
    EXPECT_EQ(evictions, 0);
    EXPECT_EQ(c.residentCount(), 10000u);
    ASSERT_NE(c.find(17 * kLineBytes), nullptr);
    EXPECT_EQ(c.find(17 * kLineBytes)->value, 17);
}

TEST(HistoryCache, FiniteEvictsWithCallback)
{
    HistoryCache<State> c(CacheGeometry{512, 64, 2}); // 8 lines
    EXPECT_FALSE(c.infinite());
    std::set<Addr> evicted;
    auto onEvict = [&](Addr a, State &) { evicted.insert(a); };
    for (unsigned i = 0; i < 32; ++i)
        c.getOrInsert(i * kLineBytes, onEvict);
    EXPECT_EQ(c.residentCount(), 8u);
    EXPECT_EQ(evicted.size(), 24u);
}

TEST(HistoryCache, GetOrInsertIsStable)
{
    HistoryCache<State> c(CacheGeometry{512, 64, 2});
    auto noEvict = [](Addr, State &) {};
    c.getOrInsert(0x1000, noEvict).value = 7;
    // Word addresses inside the same line find the same state.
    EXPECT_EQ(c.getOrInsert(0x1004, noEvict).value, 7);
    EXPECT_EQ(c.find(0x1008)->value, 7);
}

TEST(HistoryCache, InfiniteSurvivesRehashAndKeepsValues)
{
    // Infinite mode stores state in dense vectors behind a flat hash
    // index (sim/flat_map.h): references are NOT stable across later
    // inserts (the no-hold-across-insert contract applies in both
    // modes), but every line's state must survive arbitrary growth and
    // rehashing intact.
    HistoryCache<State> c;
    c.getOrInsert(0).value = 7;
    for (unsigned i = 1; i < 20000; ++i) // force many rehashes
        c.getOrInsert(i * kLineBytes).value = static_cast<int>(i);
    ASSERT_NE(c.find(0), nullptr);
    EXPECT_EQ(c.find(0)->value, 7);
    ASSERT_NE(c.find(12345 * kLineBytes), nullptr);
    EXPECT_EQ(c.find(12345 * kLineBytes)->value, 12345);
    EXPECT_EQ(c.residentCount(), 20000u);
}

TEST(HistoryCache, FiniteEvictionRecyclesTheSlot)
{
    // Finite mode returns references into a fixed tag array: never
    // dangling, but an eviction reuses the victim's slot for the new
    // line.  This pins down the no-hold-across-insert contract
    // documented in history_cache.h -- a stale reference silently
    // aliases the replacement line's state.
    HistoryCache<State> c(CacheGeometry{128, 64, 2}); // one set, 2 ways
    State &first = c.getOrInsert(0 * kLineBytes);
    first.value = 11;
    c.getOrInsert(1 * kLineBytes).value = 22;
    // A third distinct line evicts LRU line 0 and recycles its slot.
    State &third = c.getOrInsert(2 * kLineBytes);
    EXPECT_EQ(&first, &third); // same storage, different line now
    EXPECT_EQ(first.value, 0); // state was reset for the new line
    EXPECT_EQ(c.find(0 * kLineBytes), nullptr);
}

TEST(HistoryCache, InvalidateRunsCallbackOnce)
{
    HistoryCache<State> c(CacheGeometry{512, 64, 2});
    int folds = 0;
    auto fold = [&](Addr, State &) { ++folds; };
    c.getOrInsert(0x2000);
    EXPECT_TRUE(c.invalidate(0x2000, fold));
    EXPECT_EQ(folds, 1);
    EXPECT_FALSE(c.invalidate(0x2000, fold));
    EXPECT_EQ(folds, 1);
    EXPECT_EQ(c.find(0x2000), nullptr);
}

TEST(HistoryCache, InfiniteInvalidate)
{
    HistoryCache<State> c;
    int folds = 0;
    c.getOrInsert(0x2000).value = 3;
    EXPECT_TRUE(c.invalidate(0x2004, [&](Addr, State &s) {
        folds += s.value;
    }));
    EXPECT_EQ(folds, 3);
    EXPECT_EQ(c.residentCount(), 0u);
}

TEST(HistoryCache, ForEachVisitsAll)
{
    HistoryCache<State> c(CacheGeometry{512, 64, 2});
    for (unsigned i = 0; i < 4; ++i)
        c.getOrInsert(i * kLineBytes).value = static_cast<int>(i);
    int sum = 0;
    c.forEach([&](Addr, State &s) { sum += s.value; });
    EXPECT_EQ(sum, 0 + 1 + 2 + 3);
}

TEST(HistoryCache, RecencyGoverned)
{
    HistoryCache<State> c(CacheGeometry{128, 64, 2}); // one set, 2 ways
    std::set<Addr> evicted;
    auto onEvict = [&](Addr a, State &) { evicted.insert(a); };
    c.getOrInsert(0 * kLineBytes, onEvict);
    c.getOrInsert(1 * kLineBytes, onEvict);
    c.getOrInsert(0 * kLineBytes, onEvict); // refresh line 0
    c.getOrInsert(2 * kLineBytes, onEvict); // evicts line 1
    EXPECT_EQ(evicted.count(1 * kLineBytes), 1u);
    EXPECT_NE(c.find(0), nullptr);
}

TEST(HistoryCache, InvalidatedLineIsAMissAndItsWayIsRefilledFirst)
{
    HistoryCache<State> c(CacheGeometry{128, 64, 2}); // one set, 2 ways
    std::set<Addr> evicted;
    auto onEvict = [&](Addr a, State &) { evicted.insert(a); };
    c.getOrInsert(0 * kLineBytes, onEvict).value = 1;
    State &second = c.getOrInsert(1 * kLineBytes, onEvict);
    second.value = 2;
    // Invalidation only frees the way: the line is a miss from then on.
    EXPECT_TRUE(c.invalidate(1 * kLineBytes));
    EXPECT_EQ(c.find(1 * kLineBytes), nullptr);
    EXPECT_EQ(c.residentCount(), 1u);
    // The next fill takes the freed way (line 0 is LRU but survives)
    // and starts from a default state.
    State &third = c.getOrInsert(2 * kLineBytes, onEvict);
    EXPECT_TRUE(evicted.empty());
    EXPECT_EQ(&third, &second);
    EXPECT_EQ(third.value, 0);
    ASSERT_NE(c.find(0), nullptr);
    EXPECT_EQ(c.find(0)->value, 1);
    // A full set evicts its LRU way again.
    c.getOrInsert(3 * kLineBytes, onEvict);
    EXPECT_EQ(evicted, std::set<Addr>{0});
}

TEST(HistoryCache, ForEachAndResidentCountAgreeAfterMixedOps)
{
    HistoryCache<State> c(CacheGeometry{512, 64, 2}); // 4 sets x 2 ways
    std::map<Addr, int> model;
    auto onEvict = [&](Addr a, State &) { model.erase(a); };
    for (unsigned step = 0; step < 96; ++step) {
        const Addr a = ((step * 5) % 13) * kLineBytes;
        if (step % 4 == 3) {
            const bool resident = model.count(a) == 1;
            EXPECT_EQ(c.invalidate(a, onEvict), resident);
            EXPECT_EQ(model.count(a), 0u);
        } else {
            c.getOrInsert(a, onEvict).value = static_cast<int>(step);
            model[a] = static_cast<int>(step);
        }
        std::map<Addr, int> seen;
        c.forEach([&](Addr la, State &s) { seen.emplace(la, s.value); });
        EXPECT_EQ(seen, model);
        EXPECT_EQ(c.residentCount(), model.size());
    }
}

} // namespace
} // namespace cord
