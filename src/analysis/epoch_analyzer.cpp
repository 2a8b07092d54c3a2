#include "analysis/epoch_analyzer.h"

#include "cord/access_history.h"
#include "cord/vector_clock.h"
#include "sim/flat_map.h"

namespace cord
{

HbAnalysis
analyzeEpochCompressed(const DecodedTrace &trace, unsigned numThreads)
{
    HbAnalysis a;
    a.declaredThreads_ = numThreads;
    a.numThreads_ = HbAnalysis::resolveThreads(trace, numThreads);
    if (a.numThreads_ == 0)
        return a;
    const unsigned n = a.numThreads_;

    std::vector<VectorClock> vc = initialThreadClocks(n);
    FlatAddrMap<VectorClock> syncVc;
    // Stamped with the trace index of each access; the earlier
    // endpoint's tick is read back from the trace.
    AccessHistory<std::uint64_t> history(n);

    for (std::uint64_t i = 0; i < trace.events.size(); ++i) {
        const MemEvent &ev = trace.events[i];
        VectorClock &tvc = vc[ev.tid];
        const Addr wa = wordAddr(ev.addr);

        if (ev.isSync()) {
            VectorClock &svc = syncVc[wa];
            if (svc.size() == 0)
                svc = VectorClock(n);
            if (!ev.isWrite()) {
                tvc.join(svc);
            } else {
                svc.join(tvc);
                tvc.tick(ev.tid);
            }
            continue;
        }

        history.access(
            tvc, ev.tid, wa, ev.isWrite(), i,
            [&](ThreadId u, std::uint64_t j, bool otherWasWrite) {
                a.races_.push_back(HbRace{ev.tick, wa, ev.tid, ev.kind, u,
                                          trace.events[j].tick,
                                          otherWasWrite});
                a.racyWords_.insert(wa);
                a.endpoints_.insert(std::make_tuple(ev.tick, wa, ev.tid));
            });
    }
    return a;
}

} // namespace cord
