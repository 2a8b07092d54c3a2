/**
 * @file
 * Unit tests for scalar clock utilities (cord/clock.h): the 16-bit
 * sliding-window reconstruction (paper Section 2.7.5), order-race and
 * D-margin synchronization tests (Sections 2.4, 2.6), plus vector
 * clock algebra (cord/vector_clock.h), at widths on both sides of its
 * inline capacity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "cord/clock.h"
#include "cord/vector_clock.h"

namespace cord
{
namespace
{

TEST(ScalarClock, ReconstructIdentity)
{
    for (Ts64 ref : {0ULL, 1ULL, 65535ULL, 65536ULL, 123456789ULL}) {
        EXPECT_EQ(reconstructTs(ref, static_cast<Ts16>(ref)), ref);
    }
}

TEST(ScalarClock, ReconstructBelowReference)
{
    const Ts64 ref = 100000;
    for (Ts64 delta = 1; delta < kClockWindow; delta *= 3) {
        const Ts64 ts = ref - delta;
        EXPECT_EQ(reconstructTs(ref, static_cast<Ts16>(ts)), ts)
            << "delta " << delta;
    }
}

TEST(ScalarClock, ReconstructAboveReference)
{
    const Ts64 ref = 100000;
    for (Ts64 delta = 1; delta < kClockWindow; delta *= 3) {
        const Ts64 ts = ref + delta;
        EXPECT_EQ(reconstructTs(ref, static_cast<Ts16>(ts)), ts)
            << "delta " << delta;
    }
}

TEST(ScalarClock, ReconstructAcross16BitWraparound)
{
    // Reference just past a 16-bit boundary; timestamp just before it.
    const Ts64 ref = (1ULL << 16) + 5;
    const Ts64 ts = (1ULL << 16) - 3;
    EXPECT_EQ(reconstructTs(ref, static_cast<Ts16>(ts)), ts);
    // And the other direction.
    EXPECT_EQ(reconstructTs(ts, static_cast<Ts16>(ref)), ref);
}

TEST(ScalarClock, SixtyFourCoreSkewSurvivesWraparound)
{
    // Many-core check: with 64 cores whose clocks are mutually skewed
    // by up to D per migration/synchronization step, the total spread
    // a comparison can see is ~64*D -- far inside the 2^15-1 window,
    // so the 16-bit comparison must stay exact even while the cohort
    // straddles a 16-bit epoch boundary.
    constexpr std::uint32_t d = 16; // default margin D
    constexpr unsigned cores = 64;
    static_assert(cores * d < kClockWindow,
                  "64-core worst-case skew must fit the window");
    // Park the cohort across several consecutive wraparounds.
    for (Ts64 epoch = 1; epoch <= 3; ++epoch) {
        const Ts64 boundary = epoch << 16;
        for (unsigned c = 0; c < cores; ++c) {
            const Ts64 ts = boundary - (cores / 2) * d + c * d;
            for (unsigned r = 0; r < cores; ++r) {
                const Ts64 ref = boundary - (cores / 2) * d + r * d;
                ASSERT_TRUE(withinWindow(ref, ts));
                ASSERT_EQ(reconstructTs(ref, static_cast<Ts16>(ts)), ts)
                    << "epoch " << epoch << " core " << c << " ref core "
                    << r;
            }
        }
    }
}

TEST(ScalarClock, WindowBoundary)
{
    const Ts64 ref = 1000000;
    EXPECT_TRUE(withinWindow(ref, ref));
    EXPECT_TRUE(withinWindow(ref, ref - (kClockWindow - 1)));
    EXPECT_TRUE(withinWindow(ref, ref + (kClockWindow - 1)));
    EXPECT_FALSE(withinWindow(ref, ref - kClockWindow));
    EXPECT_FALSE(withinWindow(ref, ref + kClockWindow));
}

TEST(ScalarClock, OrderRaceRule)
{
    // Paper Section 2.4: race iff thread clock <= timestamp.
    EXPECT_TRUE(isOrderRace(5, 5));
    EXPECT_TRUE(isOrderRace(5, 6));
    EXPECT_FALSE(isOrderRace(6, 5));
}

TEST(ScalarClock, SynchronizedMarginD)
{
    // Paper Section 2.6: synchronized iff clock - ts >= D.
    EXPECT_TRUE(isSynchronized(21, 5, 16));
    EXPECT_TRUE(isSynchronized(100, 5, 16));
    EXPECT_FALSE(isSynchronized(20, 5, 16)); // exactly D-1 above
    EXPECT_FALSE(isSynchronized(5, 5, 16));
    EXPECT_FALSE(isSynchronized(4, 5, 16));
    // D = 1 degenerates to the plain order test.
    EXPECT_TRUE(isSynchronized(6, 5, 1));
    EXPECT_FALSE(isSynchronized(5, 5, 1));
}

TEST(VectorClock, JoinIsComponentwiseMax)
{
    VectorClock a(4);
    VectorClock b(4);
    a.setComponent(0, 5);
    a.setComponent(2, 9);
    b.setComponent(0, 3);
    b.setComponent(1, 7);
    a.join(b);
    EXPECT_EQ(a[0], 5u);
    EXPECT_EQ(a[1], 7u);
    EXPECT_EQ(a[2], 9u);
    EXPECT_EQ(a[3], 0u);
}

TEST(VectorClock, LessEqDetectsOrderAndConcurrency)
{
    VectorClock a(3);
    VectorClock b(3);
    a.setComponent(0, 1);
    b.setComponent(0, 2);
    EXPECT_TRUE(a.lessEq(b));
    EXPECT_FALSE(b.lessEq(a));

    // Make them concurrent.
    a.setComponent(1, 5);
    EXPECT_FALSE(a.lessEq(b));
    EXPECT_FALSE(b.lessEq(a));

    // Equal clocks are mutually lessEq.
    VectorClock c(3);
    VectorClock d(3);
    EXPECT_TRUE(c.lessEq(d));
    EXPECT_TRUE(d.lessEq(c));
    EXPECT_TRUE(c == d);
}

TEST(VectorClock, TickAdvancesOwnComponent)
{
    VectorClock a(2);
    a.tick(1);
    a.tick(1);
    EXPECT_EQ(a[0], 0u);
    EXPECT_EQ(a[1], 2u);
}

TEST(VectorClock, HappensBeforeTransitivity)
{
    // a -> b (join + tick), b -> c: then a -> c.
    VectorClock a(3);
    a.tick(0);
    VectorClock b(3);
    b.join(a);
    b.tick(1);
    VectorClock c(3);
    c.join(b);
    c.tick(2);
    EXPECT_TRUE(a.lessEq(c));
    EXPECT_FALSE(c.lessEq(a));
}

/** Widths on both sides of VectorClock's inline capacity: 4 and 8
 *  stay inline, 16 and 64 use the heap. */
class VectorClockWidth : public ::testing::TestWithParam<unsigned>
{
  protected:
    /** A clock of the test width whose component i is f(i). */
    template <typename F>
    static VectorClock
    make(F &&f)
    {
        VectorClock c(GetParam());
        for (unsigned i = 0; i < GetParam(); ++i)
            c.setComponent(i, f(i));
        return c;
    }
};

TEST_P(VectorClockWidth, StartsZeroed)
{
    const VectorClock c(GetParam());
    EXPECT_EQ(c.size(), GetParam());
    for (unsigned i = 0; i < GetParam(); ++i)
        EXPECT_EQ(c[i], 0u) << i;
}

TEST_P(VectorClockWidth, JoinLessEqAndEquality)
{
    const unsigned n = GetParam();
    VectorClock a = make([](unsigned i) { return i % 2 ? 3 * i : 1u; });
    const VectorClock b = make([](unsigned i) { return i % 2 ? 1u : 2 * i; });
    EXPECT_FALSE(a.lessEq(b));
    EXPECT_FALSE(b.lessEq(a));
    EXPECT_FALSE(a == b);
    const VectorClock before = a;
    a.join(b);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_EQ(a[i], std::max(before[i], b[i])) << i;
    EXPECT_TRUE(before.lessEq(a));
    EXPECT_TRUE(b.lessEq(a));
    EXPECT_FALSE(a.lessEq(before));
    // Only the last component differs: equality and order must look at
    // every component, including those past the inline capacity.
    VectorClock c = a;
    EXPECT_TRUE(c == a);
    c.tick(n - 1);
    EXPECT_FALSE(c == a);
    EXPECT_TRUE(a.lessEq(c));
    EXPECT_FALSE(c.lessEq(a));
    // Clocks of different widths are never equal.
    EXPECT_FALSE(VectorClock(n) == VectorClock(n + 1));
}

TEST_P(VectorClockWidth, CopyAndMoveKeepEveryComponent)
{
    const unsigned n = GetParam();
    const VectorClock src = make([](unsigned i) { return 7 * i + 1; });

    VectorClock copied(src);
    EXPECT_TRUE(copied == src);
    copied.tick(0); // a copy owns its components
    EXPECT_EQ(src[0], 1u);

    VectorClock assigned(3);
    assigned = src;
    EXPECT_TRUE(assigned == src);
    VectorClock sameWidth(n);
    sameWidth = src;
    EXPECT_TRUE(sameWidth == src);
    VectorClock &self = sameWidth;
    sameWidth = self;
    EXPECT_TRUE(sameWidth == src);

    VectorClock moved(std::move(copied));
    EXPECT_EQ(moved.size(), n);
    EXPECT_EQ(moved[0], 2u);
    for (unsigned i = 1; i < n; ++i)
        EXPECT_EQ(moved[i], src[i]) << i;

    VectorClock moveAssigned(80);
    moveAssigned = std::move(moved);
    EXPECT_EQ(moveAssigned.size(), n);
    EXPECT_EQ(moveAssigned[n - 1], src[n - 1]);

    // A moved-from clock is still a valid value to assign and destroy.
    moved = src;
    EXPECT_TRUE(moved == src);

    std::vector<VectorClock> grown;
    for (unsigned k = 0; k < 40; ++k) // reallocation moves every clock
        grown.push_back(src);
    for (const VectorClock &c : grown)
        EXPECT_TRUE(c == src);
}

INSTANTIATE_TEST_SUITE_P(InlineAndHeap, VectorClockWidth,
                         ::testing::Values(4u, 8u, 16u, 64u));

TEST(VectorClock, DefaultIsEmpty)
{
    VectorClock a;
    EXPECT_EQ(a.size(), 0u);
    EXPECT_TRUE(a == VectorClock(0));
    a = VectorClock(16);
    EXPECT_EQ(a.size(), 16u);
    a = VectorClock(4);
    EXPECT_EQ(a.size(), 4u);
}

} // namespace
} // namespace cord
