/**
 * @file
 * Deterministic replay from a CORD order log (paper Section 2.7.1).
 *
 * "Our deterministic replay orders the log by logical time and then
 *  proceeds through log entries one by one.  For each log entry, the
 *  thread with the recorded ID ... is allowed to execute the recorded
 *  number of instructions."
 *
 * ReplayGate implements ExecutionGate: a thread may retire instructions
 * from its current log fragment only when no other thread still has an
 * unfinished fragment with a *smaller* logical clock.  Fragments with
 * equal clocks are concurrent (only non-conflicting fragments can share
 * a clock -- the recorder updates a clock on every conflict) and may
 * interleave freely.
 */

#ifndef CORD_CORD_REPLAY_H
#define CORD_CORD_REPLAY_H

#include <cstdint>
#include <vector>

#include "cord/order_log.h"
#include "cpu/simulation.h"
#include "sim/types.h"

namespace cord
{

/** Replays a recorded execution order (drop-in ExecutionGate). */
class ReplayGate : public ExecutionGate
{
  public:
    /**
     * @param log the order log captured by a CordDetector
     * @param numThreads thread count of the original run
     */
    ReplayGate(const OrderLog &log, unsigned numThreads);

    std::uint64_t allowance(ThreadId tid, std::uint64_t want) override;

    /** @return true exactly when @p tid's current fragment completes:
     *  the only event that can raise another thread's allowance. */
    bool onRetired(ThreadId tid, std::uint64_t n) override;

    /** Instructions retired past the end of a thread's log (should be
     *  zero for a faithful replay of a complete log). */
    std::uint64_t overrunInstrs() const { return overrun_; }

    /** True when every fragment has been fully consumed. */
    bool drained() const;

  private:
    struct ThreadLog
    {
        std::vector<OrderLogEntry> fragments;
        std::size_t cur = 0;        //!< current fragment index
        std::uint64_t consumed = 0; //!< instrs retired in current
    };

    /** Clock of @p t's current fragment, or max when exhausted. */
    Ts64 currentClock(const ThreadLog &t) const;

    std::vector<ThreadLog> threads_;
    std::uint64_t overrun_ = 0;
};

} // namespace cord

#endif // CORD_CORD_REPLAY_H
