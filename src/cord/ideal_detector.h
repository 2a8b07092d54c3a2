/**
 * @file
 * The Ideal detector: complete and precise happens-before data race
 * detection (paper Section 4: "the Ideal configuration which detects
 * all dynamically occurring data races").
 *
 * It is the online front end of the shared access-history core
 * (cord/access_history.h): every data access is checked against the
 * last read and write of every other thread on the same word, with
 * thread vector clocks advanced by synchronization only -- data races
 * never introduce ordering -- so every racing pair exposed by the
 * execution's causality is found.  Ideal needs no endpoint back, so
 * its history slots carry no stamp.  Residency is unlimited, exactly
 * like the paper's Ideal runs (which exceeded 2 GB on some inputs).
 *
 * Both of its per-word tables, the access history and the sync-variable
 * clocks, are paged (sim/paged_map.h): an access costs an MRU page
 * compare and an array index, not a hash probe.  A sync word's clock
 * reads as empty (size 0) until its first synchronization.
 */

#ifndef CORD_CORD_IDEAL_DETECTOR_H
#define CORD_CORD_IDEAL_DETECTOR_H

#include <vector>

#include "cord/access_history.h"
#include "cord/detector.h"
#include "cord/vector_clock.h"
#include "sim/paged_map.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace cord
{

/** Complete happens-before race detector (ground truth). */
class IdealDetector : public Detector
{
  public:
    explicit IdealDetector(unsigned numThreads,
                           std::string name = "Ideal");

    void onAccess(const MemEvent &ev) override;

    /** Core-agnostic (histories are global), but thread-sized. */
    DetectorGeometry geometry() const override { return {0, numThreads_}; }

    /** Current vector clock of @p tid. */
    const VectorClock &threadClock(ThreadId tid) const { return vc_[tid]; }

    /** Number of distinct words tracked (memory footprint insight). */
    std::size_t trackedWords() const { return history_.words(); }

  private:
    unsigned numThreads_;
    Counter dataRaces_; //!< pre-registered hot-path handle (stats.h)
    std::vector<VectorClock> vc_;
    PagedAddrMap<VectorClock, kWordBytes> syncVc_; //!< per sync variable
    AccessHistory<NoStamp> history_;
};

} // namespace cord

#endif // CORD_CORD_IDEAL_DETECTOR_H
