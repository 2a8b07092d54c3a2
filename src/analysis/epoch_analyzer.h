/**
 * @file
 * FastTrack-style epoch-compressed happens-before analysis.
 *
 * `analyzeEpochCompressed` computes the exact same result as
 * `HbAnalysis::analyze` -- same racing pairs in the same order, same
 * racy-word and endpoint sets, same thread-count resolution -- as the
 * offline front end of the shared access-history core (cord/
 * access_history.h) instead of full per-word vector histories:
 * exclusive words are checked in O(1), shared words scan only the
 * threads that touched them, and no word costs a heap allocation.
 * Each history slot is stamped with its trace index, from which the
 * earlier endpoint's tick is read back.
 *
 * CI's bench_predict job asserts this analyzer stays >= 2x faster
 * than the full-vector HbAnalysis on access-dense apps while
 * producing an identical race set (tests/predict_test.cpp proves the
 * equivalence field by field, and that online IdealDetector agrees).
 */

#ifndef CORD_ANALYSIS_EPOCH_ANALYZER_H
#define CORD_ANALYSIS_EPOCH_ANALYZER_H

#include "analysis/hb_analyzer.h"
#include "harness/trace.h"

namespace cord
{

/**
 * Epoch-compressed recomputation of the full happens-before race set.
 * Result-identical to HbAnalysis::analyze(trace, numThreads); see the
 * file comment for why it is much faster.
 */
HbAnalysis analyzeEpochCompressed(const DecodedTrace &trace,
                                  unsigned numThreads = 0);

} // namespace cord

#endif // CORD_ANALYSIS_EPOCH_ANALYZER_H
