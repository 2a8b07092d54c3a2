/**
 * @file
 * Unit tests for the paged Addr table (sim/paged_map.h): absent pages,
 * default-reading slots, 512-slot page boundaries, MRU alternation,
 * reference stability and per-page metadata.  Its zero-allocation
 * guard lives in tests/event_queue_test.cpp, the binary that counts
 * heap allocations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/paged_map.h"

namespace cord
{
namespace
{

using WordTable = PagedAddrMap<std::uint64_t, kWordBytes>;

constexpr Addr kPageBytes = WordTable::kPageSlots * kWordBytes;

TEST(PagedAddrMap, LookupOnAbsentPageReturnsNull)
{
    WordTable m;
    EXPECT_EQ(m.find(0x1000), nullptr);
    EXPECT_EQ(m.pageCount(), 0u);
    m[0x1000] = 7;
    // A key on another page is still absent.
    EXPECT_EQ(m.find(0x1000 + kPageBytes), nullptr);
    EXPECT_EQ(m.pageCount(), 1u);
}

TEST(PagedAddrMap, UntouchedSlotOnResidentPageReadsDefault)
{
    WordTable m;
    m[0x2000] = 42;
    const std::uint64_t *neighbour = m.find(0x2000 + kWordBytes);
    ASSERT_NE(neighbour, nullptr);
    EXPECT_EQ(*neighbour, 0u);
    EXPECT_EQ(*m.find(0x2000), 42u);
    EXPECT_EQ(m.pageCount(), 1u);
}

TEST(PagedAddrMap, SubGrainAddressesShareASlot)
{
    PagedAddrMap<std::uint64_t, kLineBytes> lines;
    lines[0x4000] = 3;
    EXPECT_EQ(*lines.find(0x4000 + kLineBytes - 1), 3u);
    EXPECT_EQ(*lines.find(0x4000 + kLineBytes), 0u);
}

TEST(PagedAddrMap, NeighboursAcrossPageBoundaryAreIndependent)
{
    WordTable m;
    const Addr last = kPageBytes - kWordBytes; // slot 511 of page 0
    const Addr first = kPageBytes;             // slot 0 of page 1
    EXPECT_EQ(WordTable::slotOf(last), WordTable::kPageSlots - 1);
    EXPECT_EQ(WordTable::slotOf(first), 0u);
    m[last] = 1;
    EXPECT_EQ(m.find(first), nullptr);
    m[first] = 2;
    EXPECT_EQ(m.pageCount(), 2u);
    EXPECT_EQ(*m.find(last), 1u);
    EXPECT_EQ(*m.find(first), 2u);
}

TEST(PagedAddrMap, AlternatingBetweenTwoPagesReturnsTheRightSlots)
{
    // Each access misses the one-entry MRU page and refills it.
    WordTable m;
    const Addr a = 0x10000, b = 0x800000;
    for (std::uint64_t i = 0; i < 64; ++i) {
        m[a + i * kWordBytes] = i;
        m[b + i * kWordBytes] = 1000 + i;
    }
    for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(*m.find(a + i * kWordBytes), i);
        EXPECT_EQ(*m.find(b + i * kWordBytes), 1000 + i);
    }
    EXPECT_EQ(m.pageCount(), 2u);
}

TEST(PagedAddrMap, ReferencesStayValidAcrossLaterInserts)
{
    WordTable m;
    std::uint64_t &held = m[0x40];
    held = 5;
    // Enough new pages to grow (and rehash) the page index many times.
    for (Addr p = 1; p <= 4096; ++p)
        m[p * kPageBytes] = p;
    EXPECT_EQ(&held, m.find(0x40));
    EXPECT_EQ(held, 5u);
    held = 6;
    EXPECT_EQ(*m.find(0x40), 6u);
    EXPECT_EQ(*m.find(4096 * kPageBytes), 4096u);
}

TEST(PagedAddrMap, NonTrivialSlotsDefaultConstruct)
{
    PagedAddrMap<std::vector<int>, kWordBytes> m;
    m[0x100].push_back(1);
    ASSERT_NE(m.find(0x104), nullptr);
    EXPECT_TRUE(m.find(0x104)->empty());
    EXPECT_EQ(m.find(0x100)->size(), 1u);
}

TEST(PagedAddrMap, PageMetadataIsValueInitializedPerPage)
{
    struct Meta
    {
        unsigned touched;
    };
    PagedAddrMap<std::uint64_t, kWordBytes, Meta> m;
    auto &p0 = m.page(0);
    EXPECT_EQ(p0.meta.touched, 0u);
    p0.meta.touched = 9;
    EXPECT_EQ(m.page(kPageBytes).meta.touched, 0u);
    EXPECT_EQ(m.page(kWordBytes).meta.touched, 9u);
    EXPECT_EQ(m.pageCount(), 2u);
}

} // namespace
} // namespace cord
