#include "cord/replay.h"

#include <limits>

#include "sim/logging.h"

namespace cord
{

ReplayGate::ReplayGate(const OrderLog &log, unsigned numThreads)
{
    threads_.resize(numThreads);
    for (const OrderLogEntry &e : log.entries()) {
        cord_assert(e.tid < numThreads, "log entry for unknown thread ",
                    e.tid);
        auto &frags = threads_[e.tid].fragments;
        cord_assert(frags.empty() || frags.back().clock < e.clock,
                    "per-thread log clocks must increase");
        frags.push_back(e);
    }
}

Ts64
ReplayGate::currentClock(const ThreadLog &t) const
{
    if (t.cur >= t.fragments.size())
        return std::numeric_limits<Ts64>::max();
    return t.fragments[t.cur].clock;
}

std::uint64_t
ReplayGate::allowance(ThreadId tid, std::uint64_t want)
{
    cord_assert(tid < threads_.size(), "unknown thread ", tid);
    ThreadLog &me = threads_[tid];
    if (me.cur >= me.fragments.size()) {
        // Past the end of the log: unconstrained (counted as overrun
        // by onRetired; a complete log never reaches this).
        return want;
    }
    const Ts64 myClock = currentClock(me);
    for (const ThreadLog &other : threads_) {
        if (&other == &me)
            continue;
        if (currentClock(other) < myClock)
            return 0; // an earlier fragment elsewhere must finish first
    }
    const std::uint64_t remaining =
        me.fragments[me.cur].instrs - me.consumed;
    return want < remaining ? want : remaining;
}

bool
ReplayGate::onRetired(ThreadId tid, std::uint64_t n)
{
    cord_assert(tid < threads_.size(), "unknown thread ", tid);
    ThreadLog &me = threads_[tid];
    if (me.cur >= me.fragments.size()) {
        overrun_ += n;
        return false;
    }
    me.consumed += n;
    cord_assert(me.consumed <= me.fragments[me.cur].instrs,
                "retired past the current fragment");
    if (me.consumed < me.fragments[me.cur].instrs)
        return false;
    // Fragment complete: this thread's clock advances, which may
    // unblock every thread waiting on a larger clock.
    ++me.cur;
    me.consumed = 0;
    return true;
}

bool
ReplayGate::drained() const
{
    for (const ThreadLog &t : threads_) {
        if (t.cur < t.fragments.size())
            return false;
    }
    return true;
}

} // namespace cord
