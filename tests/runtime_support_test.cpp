/**
 * @file
 * Unit tests for runtime support pieces: the functional value store
 * (runtime/value_store.h) and the address-space allocator
 * (runtime/address_space.h).
 */

#include <gtest/gtest.h>

#include "runtime/address_space.h"
#include "runtime/value_store.h"

namespace cord
{
namespace
{

TEST(ValueStore, ZeroInitialized)
{
    ValueStore vs;
    EXPECT_EQ(vs.load(0x1234), 0u);
    EXPECT_EQ(vs.footprintWords(), 0u);
}

TEST(ValueStore, StoreLoadRoundTrip)
{
    ValueStore vs;
    vs.store(0x1000, 42);
    EXPECT_EQ(vs.load(0x1000), 42u);
    // Word granularity: sub-word addresses alias to the word.
    EXPECT_EQ(vs.load(0x1002), 42u);
    vs.store(0x1003, 7);
    EXPECT_EQ(vs.load(0x1000), 7u);
    EXPECT_EQ(vs.footprintWords(), 1u);
}

TEST(ValueStore, CompareAndSwapSemantics)
{
    ValueStore vs;
    auto [old1, ok1] = vs.compareAndSwap(0x100, 0, 5);
    EXPECT_TRUE(ok1);
    EXPECT_EQ(old1, 0u);
    auto [old2, ok2] = vs.compareAndSwap(0x100, 0, 9);
    EXPECT_FALSE(ok2);
    EXPECT_EQ(old2, 5u);
    EXPECT_EQ(vs.load(0x100), 5u);
    auto [old3, ok3] = vs.compareAndSwap(0x100, 5, 9);
    EXPECT_TRUE(ok3);
    EXPECT_EQ(old3, 5u);
    EXPECT_EQ(vs.load(0x100), 9u);
}

TEST(ValueStore, PageBoundaryNeighborsAreIndependent)
{
    // A page holds 512 words = 2048 bytes; the last word of page 0 and
    // the first word of page 1 must hit different pages yet behave
    // like any other pair of neighbors.
    ValueStore vs;
    const Addr lastOfPage0 = 2048 - kWordBytes;
    const Addr firstOfPage1 = 2048;
    vs.store(lastOfPage0, 11);
    vs.store(firstOfPage1, 22);
    EXPECT_EQ(vs.load(lastOfPage0), 11u);
    EXPECT_EQ(vs.load(firstOfPage1), 22u);
    EXPECT_EQ(vs.footprintWords(), 2u);
}

TEST(ValueStore, SparsePagesCountOnlyWrittenWords)
{
    // One store per page, pages far apart: a page allocated by one
    // store must not count its untouched words in the footprint.
    ValueStore vs;
    for (Addr page = 0; page < 64; ++page)
        vs.store(page * 1048576, page + 1);
    EXPECT_EQ(vs.footprintWords(), 64u);
    for (Addr page = 0; page < 64; ++page)
        EXPECT_EQ(vs.load(page * 1048576), page + 1);
    // Untouched words on an allocated page still read zero.
    EXPECT_EQ(vs.load(kWordBytes), 0u);
}

TEST(ValueStore, InterleavedPageAccessThrashesMru)
{
    // Alternate between two distant pages so every access misses the
    // one-entry MRU cache; values must be unaffected.
    ValueStore vs;
    const Addr a = 0x1000, b = 0x800000;
    for (int i = 0; i < 100; ++i) {
        vs.store(a, i);
        vs.store(b, i + 1000);
    }
    EXPECT_EQ(vs.load(a), 99u);
    EXPECT_EQ(vs.load(b), 1099u);
    EXPECT_EQ(vs.footprintWords(), 2u);
}

TEST(ValueStore, ManyPagesSurviveIndexRehash)
{
    // Enough distinct pages to force the flat page table through
    // several growth steps while pages_ itself reallocates.
    ValueStore vs;
    constexpr Addr kPages = 3000;
    for (Addr p = 0; p < kPages; ++p)
        vs.store(p * 2048, p ^ 0xABCD);
    for (Addr p = 0; p < kPages; ++p)
        EXPECT_EQ(vs.load(p * 2048), p ^ 0xABCD) << "page " << p;
    EXPECT_EQ(vs.footprintWords(), kPages);
}

TEST(AddressSpace, SharedAllocationIsContiguous)
{
    AddressSpace as;
    const Addr a = as.allocShared(4);
    const Addr b = as.allocShared(2);
    EXPECT_EQ(a, AddressSpace::kSharedBase);
    EXPECT_EQ(b, a + 4 * kWordBytes);
    EXPECT_EQ(as.sharedWords(), 6u);
}

TEST(AddressSpace, LineAlignedAllocationStartsFreshLine)
{
    AddressSpace as;
    as.allocShared(3); // 12 bytes into the first line
    const Addr b = as.allocSharedLineAligned(1);
    EXPECT_EQ(b % kLineBytes, 0u);
    EXPECT_EQ(b, AddressSpace::kSharedBase + kLineBytes);
}

TEST(AddressSpace, SyncVarsGetPrivateLines)
{
    AddressSpace as;
    const Addr l1 = as.allocSync();
    const Addr l2 = as.allocSync();
    EXPECT_EQ(lineAddr(l1), l1);
    EXPECT_EQ(l2 - l1, static_cast<Addr>(kLineBytes));
    EXPECT_NE(lineAddr(l1), lineAddr(l2));
}

TEST(AddressSpace, RegionsAreDisjoint)
{
    AddressSpace as;
    const Addr shared = as.allocShared(1000);
    const Addr sync = as.allocSync();
    const Addr priv = AddressSpace::privateBase(3);
    EXPECT_LT(shared, AddressSpace::kSyncBase);
    EXPECT_GE(sync, AddressSpace::kSyncBase);
    EXPECT_LT(sync, AddressSpace::kPrivateBase);
    EXPECT_GE(priv, AddressSpace::kPrivateBase);
    EXPECT_EQ(AddressSpace::privateBase(4) - priv,
              AddressSpace::kPrivateStride);
}

TEST(AddressSpace, DescribeResolvesAnnotatedRegions)
{
    AddressSpace as;
    const Addr cells = as.allocSharedLineAligned(32, "cells");
    const Addr lock = as.allocSync("cellLock[3]");
    EXPECT_EQ(as.describe(cells), "cells");
    EXPECT_EQ(as.describe(cells + 0x40), "cells[+0x40]");
    EXPECT_EQ(as.describe(lock), "cellLock[3]");
    // Unannotated addresses fall back to hex.
    EXPECT_EQ(as.describe(0xdead0000), "0xdead0000");
    ASSERT_EQ(as.regions().size(), 2u);
}

TEST(AddressSpace, UnnamedAllocationsAreNotAnnotated)
{
    AddressSpace as;
    const Addr a = as.allocShared(8);
    EXPECT_TRUE(as.regions().empty());
    EXPECT_EQ(as.describe(a).substr(0, 2), "0x");
}

TEST(AddressHelpers, WordAndLineMath)
{
    EXPECT_EQ(lineAddr(0x1234), 0x1200u);
    EXPECT_EQ(wordAddr(0x1236), 0x1234u);
    EXPECT_EQ(wordInLine(0x1200), 0u);
    EXPECT_EQ(wordInLine(0x123c), 15u);
    EXPECT_EQ(kWordsPerLine, 16u);
}

} // namespace
} // namespace cord
