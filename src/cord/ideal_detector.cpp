#include "cord/ideal_detector.h"

#include "sim/logging.h"

namespace cord
{

IdealDetector::IdealDetector(unsigned numThreads, std::string name)
    : Detector(std::move(name)), numThreads_(numThreads),
      vc_(initialThreadClocks(numThreads)), history_(numThreads)
{
    cord_assert(numThreads_ > 0, "Ideal needs at least one thread");
    dataRaces_ = stats_.counter("ideal.dataRaces");
}

void
IdealDetector::onAccess(const MemEvent &ev)
{
    cord_assert(ev.tid < numThreads_, "unknown thread ", ev.tid);
    VectorClock &tvc = vc_[ev.tid];
    const Addr wa = wordAddr(ev.addr);

    if (ev.isSync()) {
        // Synchronization maintains happens-before; it is never itself
        // reported as a data race.
        VectorClock &svc = syncVc_[wa];
        if (svc.size() == 0)
            svc = VectorClock(numThreads_);
        if (!ev.isWrite()) {
            // Acquire: learn everything the last releaser knew.
            tvc.join(svc);
        } else {
            // Release: publish current knowledge, then advance so
            // later private accesses are not ordered before acquirers.
            svc.join(tvc);
            tvc.tick(ev.tid);
        }
        return;
    }

    history_.access(tvc, ev.tid, wa, ev.isWrite(), NoStamp{},
                    [&](ThreadId, NoStamp, bool) {
                        report_.record({ev.tick, wa, ev.tid, ev.kind, 0, 0});
                        dataRaces_.inc();
                    });
}

} // namespace cord
