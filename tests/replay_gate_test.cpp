/**
 * @file
 * Unit tests for the replay gate (cord/replay.h): fragments execute in
 * global logical-clock order, equal clocks interleave freely,
 * consumption/overrun accounting is exact, and onRetired reports
 * exactly the retirements that can wake a parked thread.  Also the
 * engine side of the park/wake contract (cpu/simulation.h): a run
 * whose threads are all parked ends not completed, without polling.
 */

#include <gtest/gtest.h>

#include "cord/replay.h"
#include "harness/runner.h"

namespace cord
{
namespace
{

OrderLog
makeLog(std::initializer_list<OrderLogEntry> entries)
{
    OrderLog log;
    for (const auto &e : entries)
        log.append(e.tid, e.clock, e.instrs);
    return log;
}

TEST(ReplayGate, LowerClockFragmentBlocksHigher)
{
    const OrderLog log = makeLog({{0, 1, 10}, {1, 5, 10}});
    ReplayGate gate(log, 2);

    EXPECT_EQ(gate.allowance(1, 10), 0u) << "thread 0's clock-1 "
                                            "fragment must run first";
    EXPECT_EQ(gate.allowance(0, 4), 4u);
    gate.onRetired(0, 4);
    EXPECT_EQ(gate.allowance(1, 10), 0u) << "fragment not yet consumed";
    gate.onRetired(0, 6);
    EXPECT_EQ(gate.allowance(1, 10), 10u);
    gate.onRetired(1, 10);
    EXPECT_TRUE(gate.drained());
    EXPECT_EQ(gate.overrunInstrs(), 0u);
}

TEST(ReplayGate, EqualClocksRunConcurrently)
{
    const OrderLog log = makeLog({{0, 3, 5}, {1, 3, 5}});
    ReplayGate gate(log, 2);
    EXPECT_EQ(gate.allowance(0, 5), 5u);
    EXPECT_EQ(gate.allowance(1, 5), 5u);
    gate.onRetired(0, 2);
    gate.onRetired(1, 5);
    EXPECT_EQ(gate.allowance(0, 9), 3u) << "capped at fragment remainder";
}

TEST(ReplayGate, PerThreadFragmentsInOrder)
{
    const OrderLog log =
        makeLog({{0, 1, 2}, {0, 4, 3}, {1, 2, 2}, {1, 3, 1}});
    ReplayGate gate(log, 2);
    // t0 clock 1 first.
    EXPECT_EQ(gate.allowance(1, 2), 0u);
    gate.onRetired(0, 2);
    // now t1 clock 2, then t1 clock 3, then t0 clock 4.
    EXPECT_EQ(gate.allowance(0, 3), 0u);
    EXPECT_EQ(gate.allowance(1, 2), 2u);
    gate.onRetired(1, 2);
    EXPECT_EQ(gate.allowance(0, 3), 0u);
    gate.onRetired(1, 1);
    EXPECT_EQ(gate.allowance(0, 3), 3u);
    gate.onRetired(0, 3);
    EXPECT_TRUE(gate.drained());
}

TEST(ReplayGate, ExhaustedThreadIsUnconstrained)
{
    const OrderLog log = makeLog({{0, 1, 2}});
    ReplayGate gate(log, 2);
    // Thread 1 has no log at all: runs freely but counts as overrun.
    EXPECT_EQ(gate.allowance(1, 7), 7u);
    gate.onRetired(1, 7);
    EXPECT_EQ(gate.overrunInstrs(), 7u);
    EXPECT_FALSE(gate.drained());
    gate.onRetired(0, 2);
    EXPECT_TRUE(gate.drained());
}

TEST(ReplayGate, ThreeThreadInterleaving)
{
    const OrderLog log =
        makeLog({{0, 1, 1}, {1, 2, 1}, {2, 2, 1}, {0, 3, 1}});
    ReplayGate gate(log, 3);
    EXPECT_EQ(gate.allowance(1, 1), 0u);
    EXPECT_EQ(gate.allowance(2, 1), 0u);
    gate.onRetired(0, 1);
    // Threads 1 and 2 share clock 2: concurrent.
    EXPECT_EQ(gate.allowance(1, 1), 1u);
    EXPECT_EQ(gate.allowance(2, 1), 1u);
    EXPECT_EQ(gate.allowance(0, 1), 0u) << "clock 3 waits for clock 2";
    gate.onRetired(2, 1);
    EXPECT_EQ(gate.allowance(0, 1), 0u) << "thread 1 still at clock 2";
    gate.onRetired(1, 1);
    EXPECT_EQ(gate.allowance(0, 1), 1u);
}

TEST(ReplayGate, OnRetiredReportsExactlyFragmentCompletions)
{
    const OrderLog log = makeLog({{0, 1, 5}, {1, 2, 3}, {0, 4, 2}});
    ReplayGate gate(log, 3);
    EXPECT_FALSE(gate.onRetired(2, 7)) << "thread 2 has no log at all";
    EXPECT_FALSE(gate.onRetired(0, 2)) << "partial retirement";
    EXPECT_FALSE(gate.onRetired(0, 2)) << "still one instruction short";
    EXPECT_TRUE(gate.onRetired(0, 1)) << "clock-1 fragment completes";
    EXPECT_TRUE(gate.onRetired(1, 3)) << "whole fragment in one call";
    EXPECT_FALSE(gate.onRetired(0, 1));
    EXPECT_TRUE(gate.onRetired(0, 1)) << "last fragment completes";
    EXPECT_TRUE(gate.drained());

    // Past the end of the log nothing completes: overrun never wakes.
    EXPECT_FALSE(gate.onRetired(1, 4));
    EXPECT_FALSE(gate.onRetired(0, 1));
    EXPECT_EQ(gate.overrunInstrs(), 12u);
}

/** Test-only gate that never lets any thread retire anything. */
class NeverGrantGate : public ExecutionGate
{
  public:
    std::uint64_t allowance(ThreadId, std::uint64_t) override { return 0; }
    bool onRetired(ThreadId, std::uint64_t) override { return false; }
};

TEST(GatedSimulation, AllThreadsParkedEndsNotCompletedWithoutPolling)
{
    NeverGrantGate gate;
    RunSetup setup;
    setup.workload = "fft";
    setup.params.seed = 11;
    setup.gate = &gate;
    // Backstop only: a parked thread schedules no event, so the run
    // must stop long before this watchdog could fire.
    setup.maxTicks = 2000000;
    const RunOutcome out = runWorkload(setup);
    EXPECT_FALSE(out.completed);
    EXPECT_EQ(out.accesses, 0u);
    // One core event per core that has threads; every thread parks on
    // its first operation and nothing wakes it.
    EXPECT_LE(out.events, setup.params.numThreads);
    EXPECT_EQ(out.ticks, 0u);
}

TEST(ReplayGateDeath, RetiringPastFragmentPanics)
{
    const OrderLog log = makeLog({{0, 1, 3}});
    ReplayGate gate(log, 1);
    EXPECT_DEATH(gate.onRetired(0, 5), "past the current fragment");
}

} // namespace
} // namespace cord
