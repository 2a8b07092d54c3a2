/**
 * @file
 * Unit tests for the set-associative tag array (mem/cache_array.h):
 * residency, LRU replacement, set conflict behaviour, invalidation,
 * and the tag vector as the only residency record.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "mem/cache_array.h"

namespace cord
{
namespace
{

CacheGeometry
tinyGeo()
{
    // 4 sets x 2 ways of 64B lines = 512B.
    return CacheGeometry{512, 64, 2};
}

/** Address of line index i mapping to set (i % 4). */
Addr
lineOfSet(unsigned set, unsigned k)
{
    return static_cast<Addr>((k * 4 + set)) * 64;
}

TEST(CacheGeometry, DerivedQuantities)
{
    const CacheGeometry g = tinyGeo();
    EXPECT_EQ(g.numLines(), 8u);
    EXPECT_EQ(g.numSets(), 4u);
    g.validate();
    EXPECT_EQ(CacheGeometry::paperL2().sizeBytes, 32u * 1024);
    EXPECT_EQ(CacheGeometry::paperL1().sizeBytes, 8u * 1024);
}

/** Records the lines an insert displaces. */
struct VictimLog
{
    std::vector<std::pair<Addr, int>> lines;

    auto
    fn()
    {
        return [this](Addr a, int &state) { lines.emplace_back(a, state); };
    }
};

TEST(CacheArray, InsertFindInvalidate)
{
    CacheArray<int> c(tinyGeo());
    VictimLog victims;
    auto &line = c.insert(0x1000, victims.fn());
    EXPECT_TRUE(victims.lines.empty());
    line.state = 42;

    ASSERT_NE(c.find(0x1000), nullptr);
    EXPECT_EQ(c.find(0x1000)->state, 42);
    // Any address within the line finds it.
    ASSERT_NE(c.find(0x1004), nullptr);
    EXPECT_EQ(c.find(0x1004)->state, 42);
    EXPECT_EQ(c.find(0x2000), nullptr);

    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_EQ(c.find(0x1000), nullptr);
    EXPECT_FALSE(c.invalidate(0x1000));
}

TEST(CacheArray, InvalidatedLineIsAMissEverywhere)
{
    CacheArray<int> c(tinyGeo());
    c.insert(lineOfSet(1, 0)).state = 5;
    c.insert(lineOfSet(1, 1)).state = 6;
    int seen = -1;
    EXPECT_TRUE(c.invalidate(lineOfSet(1, 0) + 8,
                             [&](Addr a, int &st) {
                                 EXPECT_EQ(a, lineOfSet(1, 0));
                                 seen = st;
                             }));
    EXPECT_EQ(seen, 5);
    EXPECT_EQ(c.find(lineOfSet(1, 0)), nullptr);
    EXPECT_EQ(c.touch(lineOfSet(1, 0)), nullptr);
    const auto &cc = c;
    EXPECT_EQ(cc.find(lineOfSet(1, 0)), nullptr);
    EXPECT_EQ(c.residentCount(), 1u);
    // The surviving way of the set is untouched.
    ASSERT_NE(c.find(lineOfSet(1, 1)), nullptr);
    EXPECT_EQ(c.find(lineOfSet(1, 1))->state, 6);
}

TEST(CacheArray, InsertFillsAFreeWayBeforeEvicting)
{
    CacheArray<int> c(tinyGeo());
    VictimLog victims;
    c.insert(lineOfSet(2, 0), victims.fn()).state = 1;
    c.insert(lineOfSet(2, 1), victims.fn()).state = 2;
    // Free the most recently used way; the LRU way must survive the
    // next insert, which takes the freed way.
    ASSERT_TRUE(c.invalidate(lineOfSet(2, 1)));
    auto &fresh = c.insert(lineOfSet(2, 2), victims.fn());
    EXPECT_TRUE(victims.lines.empty());
    EXPECT_EQ(fresh.state, 0); // a refilled way starts from StateT{}
    EXPECT_NE(c.find(lineOfSet(2, 0)), nullptr);
    EXPECT_NE(c.find(lineOfSet(2, 2)), nullptr);
    // Now the set is full again: the next insert evicts the LRU way.
    c.insert(lineOfSet(2, 3), victims.fn());
    ASSERT_EQ(victims.lines.size(), 1u);
    EXPECT_EQ(victims.lines[0], std::make_pair(lineOfSet(2, 0), 1));
}

TEST(CacheArray, LruEvictionWithinSet)
{
    CacheArray<int> c(tinyGeo());
    VictimLog victims;

    c.insert(lineOfSet(1, 0), victims.fn()).state = 10;
    c.insert(lineOfSet(1, 1), victims.fn()).state = 11;
    EXPECT_TRUE(victims.lines.empty());

    // Touch the first line so the second becomes LRU.
    ASSERT_NE(c.touch(lineOfSet(1, 0)), nullptr);

    c.insert(lineOfSet(1, 2), victims.fn());
    ASSERT_EQ(victims.lines.size(), 1u);
    EXPECT_EQ(victims.lines[0].first, lineOfSet(1, 1));
    EXPECT_EQ(victims.lines[0].second, 11);

    EXPECT_NE(c.find(lineOfSet(1, 0)), nullptr);
    EXPECT_EQ(c.find(lineOfSet(1, 1)), nullptr);
    EXPECT_NE(c.find(lineOfSet(1, 2)), nullptr);
}

TEST(CacheArray, SetsAreIndependent)
{
    CacheArray<int> c(tinyGeo());
    // Fill set 0 beyond capacity; set 2 lines must stay resident.
    c.insert(lineOfSet(2, 0));
    c.insert(lineOfSet(2, 1));
    for (unsigned k = 0; k < 8; ++k)
        c.insert(lineOfSet(0, k));
    EXPECT_NE(c.find(lineOfSet(2, 0)), nullptr);
    EXPECT_NE(c.find(lineOfSet(2, 1)), nullptr);
    EXPECT_EQ(c.residentCount(), 4u); // 2 ways set 0 + 2 ways set 2
}

TEST(CacheArray, ForEachVisitsExactlyResidentLines)
{
    CacheArray<int> c(tinyGeo());
    std::set<Addr> expect;
    for (unsigned set = 0; set < 4; ++set) {
        c.insert(lineOfSet(set, 0));
        expect.insert(lineOfSet(set, 0));
    }
    c.invalidate(lineOfSet(3, 0));
    expect.erase(lineOfSet(3, 0));

    std::set<Addr> seen;
    c.forEach([&](Addr a, int &) { seen.insert(a); });
    EXPECT_EQ(seen, expect);
}

TEST(CacheArray, ForEachAndResidentCountFollowTheTags)
{
    // Mixed inserts, evictions and invalidations against a reference
    // model of the resident set: forEach, residentCount and find must
    // all agree with it after every step.
    CacheArray<int> c(tinyGeo());
    std::map<Addr, int> model;
    const auto check = [&] {
        std::map<Addr, int> seen;
        c.forEach([&](Addr a, int &st) {
            EXPECT_TRUE(seen.emplace(a, st).second) << "visited twice";
        });
        EXPECT_EQ(seen, model);
        EXPECT_EQ(c.residentCount(), model.size());
        for (const auto &[a, st] : model) {
            ASSERT_NE(c.find(a), nullptr);
            EXPECT_EQ(c.find(a)->state, st);
        }
    };
    for (unsigned step = 0; step < 64; ++step) {
        const Addr a = lineOfSet(step % 4, (step * 7) % 5);
        if (step % 3 == 2) {
            const bool resident = model.erase(a) == 1;
            EXPECT_EQ(c.invalidate(a), resident);
        } else if (auto *line = c.touch(a)) {
            line->state = static_cast<int>(step);
            model[a] = static_cast<int>(step);
        } else {
            c.insert(a, [&](Addr v, int &) { model.erase(v); }).state =
                static_cast<int>(step);
            model[a] = static_cast<int>(step);
        }
        check();
    }
}

TEST(CacheArray, TouchUpdatesRecency)
{
    CacheArray<int> c(tinyGeo());
    VictimLog victims;
    c.insert(lineOfSet(0, 0)).state = 1;
    c.insert(lineOfSet(0, 1)).state = 2;
    // Repeatedly touch the older line; insert a new one; the untouched
    // line must be the victim each time.
    c.touch(lineOfSet(0, 0));
    c.insert(lineOfSet(0, 2), victims.fn());
    ASSERT_EQ(victims.lines.size(), 1u);
    EXPECT_EQ(victims.lines[0].second, 2);
}

TEST(CacheGeometryDeath, InvalidGeometriesAreFatal)
{
    CacheGeometry bad{500, 64, 2}; // size not a multiple of line
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "invalid cache geometry");
    CacheGeometry badSets{64 * 64 * 3, 64, 1}; // 192 sets: not pow2
    EXPECT_EXIT(badSets.validate(), ::testing::ExitedWithCode(1),
                "power of two");
}

} // namespace
} // namespace cord
