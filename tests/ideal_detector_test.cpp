/**
 * @file
 * Unit tests for the Ideal happens-before detector
 * (cord/ideal_detector.h): it must be complete (find every race the
 * causality of the execution exposes) and precise (never flag ordered
 * accesses), since all campaign metrics are measured against it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cord/access_history.h"
#include "cord/ideal_detector.h"

namespace cord
{
namespace
{

class IdealFeeder
{
  public:
    explicit IdealFeeder(unsigned n = 4) : det_(n) {}

    IdealDetector &det() { return det_; }

    void
    access(ThreadId tid, Addr addr, AccessKind kind)
    {
        MemEvent ev;
        ev.tick = ++tick_;
        ev.tid = tid;
        ev.core = static_cast<CoreId>(tid % 4);
        ev.addr = addr;
        ev.kind = kind;
        ev.instrCount = ++instrs_[tid];
        det_.onAccess(ev);
    }

    void read(ThreadId t, Addr a) { access(t, a, AccessKind::DataRead); }
    void write(ThreadId t, Addr a) { access(t, a, AccessKind::DataWrite); }
    void acquire(ThreadId t, Addr a) { access(t, a, AccessKind::SyncRead); }
    void release(ThreadId t, Addr a)
    {
        access(t, a, AccessKind::SyncWrite);
    }

    std::uint64_t races() const { return det_.races().pairs(); }

  private:
    IdealDetector det_;
    Tick tick_ = 0;
    std::uint64_t instrs_[16] = {};
};

constexpr Addr X = 0x100;
constexpr Addr Y = 0x200;
constexpr Addr L = 0x300;
constexpr Addr M = 0x400;

TEST(Ideal, UnorderedWriteReadIsARace)
{
    IdealFeeder f;
    f.write(0, X);
    f.read(1, X);
    EXPECT_EQ(f.races(), 1u);
}

TEST(Ideal, UnorderedReadWriteIsARace)
{
    IdealFeeder f;
    f.read(0, X);
    f.write(1, X);
    EXPECT_EQ(f.races(), 1u);
}

TEST(Ideal, UnorderedWriteWriteIsARace)
{
    IdealFeeder f;
    f.write(0, X);
    f.write(1, X);
    EXPECT_EQ(f.races(), 1u);
}

TEST(Ideal, ReadReadIsNotARace)
{
    IdealFeeder f;
    f.read(0, X);
    f.read(1, X);
    f.read(2, X);
    EXPECT_EQ(f.races(), 0u);
}

TEST(Ideal, ReleaseAcquireOrders)
{
    IdealFeeder f;
    f.write(0, X);
    f.release(0, L);
    f.acquire(1, L);
    f.read(1, X);
    f.write(1, X);
    EXPECT_EQ(f.races(), 0u);
}

TEST(Ideal, WriteAfterReleaseStillRaces)
{
    IdealFeeder f;
    f.release(0, L);
    f.write(0, X); // after the release: not covered by it
    f.acquire(1, L);
    f.read(1, X);
    EXPECT_EQ(f.races(), 1u);
}

TEST(Ideal, AcquireOfEarlierReleaseDoesNotOrderLaterWork)
{
    IdealFeeder f;
    f.release(0, L);  // releases "nothing"
    f.acquire(1, L);
    f.write(0, X);    // A's later write
    f.read(1, X);     // concurrent with it
    EXPECT_EQ(f.races(), 1u);
}

TEST(Ideal, TransitiveOrderingThroughTwoSyncVars)
{
    IdealFeeder f;
    f.write(0, X);
    f.release(0, L);
    f.acquire(1, L);
    f.release(1, M);
    f.acquire(2, M);
    f.read(2, X);
    EXPECT_EQ(f.races(), 0u);
}

TEST(Ideal, DataRacesDoNotCreateOrdering)
{
    // Pure happens-before: B racing on X does not order B after A, so
    // B's access to Y still races (unlike CORD's Figure 3 masking).
    IdealFeeder f;
    f.write(0, X);
    f.write(0, Y);
    f.read(1, X);
    f.read(1, Y);
    EXPECT_EQ(f.races(), 2u);
}

TEST(Ideal, PerThreadLastAccessIsSufficient)
{
    // A's first write is followed by A's second write; if a later
    // access is ordered after the second it is transitively ordered
    // after the first (program order) -- no race missed.
    IdealFeeder f;
    f.write(0, X); // epoch 1
    f.write(0, X); // epoch 1 again (no release in between)
    f.release(0, L);
    f.acquire(1, L);
    f.write(1, X);
    EXPECT_EQ(f.races(), 0u);
}

TEST(Ideal, RacesCountedPerConflictingThread)
{
    IdealFeeder f;
    f.read(0, X);
    f.read(1, X);
    f.write(2, X); // races with both readers
    EXPECT_EQ(f.races(), 2u);
}

TEST(Ideal, SynchronizationAccessesAreNeverReported)
{
    IdealFeeder f;
    f.release(0, L);
    f.release(1, L); // concurrent sync-sync conflict: not a data race
    f.acquire(2, L);
    EXPECT_EQ(f.races(), 0u);
}

TEST(Ideal, FlagSpinPattern)
{
    IdealFeeder f;
    f.write(0, X);
    f.release(0, L); // flag set
    for (int i = 0; i < 5; ++i)
        f.acquire(1, L); // spinning reads of the flag
    f.read(1, X);
    EXPECT_EQ(f.races(), 0u);
}

TEST(Ideal, TracksWordsIndependently)
{
    IdealFeeder f;
    f.write(0, X);
    f.write(0, X + kWordBytes); // adjacent word, same line
    f.release(0, L);
    f.acquire(1, L);
    f.read(1, X);
    f.write(2, X + kWordBytes); // thread 2 never synchronized
    EXPECT_EQ(f.races(), 1u);
    EXPECT_EQ(f.det().trackedWords(), 2u);
}

TEST(AccessHistory, WordsCountsDistinctExclusiveAndPromotedWords)
{
    // words() counts first touches: repeat accesses by the owner, the
    // promotion of a shared word and accesses after it add nothing.
    const std::vector<VectorClock> vc = initialThreadClocks(4);
    AccessHistory<NoStamp> h(4);
    unsigned races = 0;
    auto access = [&](ThreadId t, Addr a, bool write) {
        h.access(vc[t], t, a, write, NoStamp{},
                 [&](ThreadId, NoStamp, bool) { ++races; });
    };
    const Addr x = 0x1000, y = 0x1004, z = 0x900000;
    EXPECT_EQ(h.words(), 0u);
    access(0, x, true);
    access(0, x, false);
    access(0, x, true);
    EXPECT_EQ(h.words(), 1u) << "exclusive word counts once";
    access(0, y, false);
    access(1, y, true); // promotes y
    access(2, y, false);
    access(1, y, true);
    EXPECT_EQ(h.words(), 2u) << "promoted word counts once";
    access(3, z, false); // another page
    EXPECT_EQ(h.words(), 3u);
    EXPECT_GT(races, 0u);
}

TEST(Ideal, LongChainAcrossAllThreads)
{
    IdealFeeder f;
    f.write(0, X);
    f.release(0, L);
    f.acquire(1, L);
    f.write(1, X); // ordered after thread 0's write
    f.release(1, M);
    f.acquire(2, M);
    f.write(2, X); // ordered after both
    f.release(2, L);
    f.acquire(3, L);
    f.read(3, X); // ordered after all three writes
    EXPECT_EQ(f.races(), 0u);
}

} // namespace
} // namespace cord
