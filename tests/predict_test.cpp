/**
 * @file
 * Tests for the offline race-prediction tier (src/analysis): the
 * superset property of the weak-order predictor over happens-before,
 * field-for-field equivalence of the epoch-compressed analyzer,
 * witness verification, deterministic sampling, the corrupt-log gate,
 * and a cross-validation smoke run against schedule exploration.
 *
 * PredictGolden pins the predictor's full output with an FNV-1a
 * digest.  It changes only with a *semantic* change to prediction or
 * to the recorded workloads, never with a data-structure swap; then
 * re-record with
 *   CORD_PRINT_GOLDEN=1 ./tests/test_predict --gtest_filter='PredictGolden.*'
 * and update the constant together with a CHANGES.md note (the same
 * rule as tests/determinism_golden_test.cpp).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <tuple>

#include "analysis/epoch_analyzer.h"
#include "analysis/findings.h"
#include "analysis/hb_analyzer.h"
#include "analysis/predict.h"
#include "analysis/xval.h"
#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "cord/log_codec.h"
#include "harness/runner.h"
#include "harness/trace.h"
#include "inject/injector.h"
#include "inject/log_corruptor.h"
#include "sim/rng.h"
#include "workloads/workload.h"

namespace cord
{
namespace
{

/** Every field of one race, for set-based superset comparisons. */
using RaceKey = std::tuple<Tick, Addr, ThreadId, AccessKind, ThreadId,
                           Tick, bool>;

RaceKey
keyOf(const HbRace &r)
{
    return std::make_tuple(r.tick, r.word, r.accessor, r.kind, r.other,
                           r.otherTick, r.otherWasWrite);
}

/** Record one run: order log + trace (optionally with an injection). */
struct Recording
{
    std::vector<std::uint8_t> wireLog;
    DecodedTrace trace;
    bool completed = false;
};

Recording
record(const std::string &workload, std::uint64_t seed, unsigned scale,
       const InjectionPick *pick = nullptr)
{
    CordConfig cc;
    CordDetector cord(cc);
    TraceRecorder trace;

    RunSetup setup;
    setup.workload = workload;
    setup.params.seed = seed;
    setup.params.scale = scale;
    setup.detectors = {&cord, &trace};
    RemoveOneInstance filter(pick ? *pick : InjectionPick{});
    if (pick) {
        setup.filter = &filter;
        setup.maxTicks = 500000000ULL;
    }
    const RunOutcome out = runWorkload(setup);

    Recording rec;
    rec.completed = out.completed;
    if (!out.completed)
        return rec;
    rec.wireLog = encodeOrderLog(cord.orderLog());
    rec.trace.events = trace.events();
    rec.trace.threadEnds = trace.threadEnds();
    return rec;
}

/** A racy cholesky recording (sync removal manifests races). */
const Recording &
racyRecording()
{
    static const Recording rec = [] {
        const InjectionPick pick{1, 6};
        Recording r = record("cholesky", 3, 2, &pick);
        if (r.completed)
            return r;
        return Recording{};
    }();
    return rec;
}

/** Hand-built trace: one sync word L, one data word X, three threads.
 *  HB orders t0's write before t2's via the accumulated sync clock of
 *  L; the W order only keeps t2's read-from edge to t1's write, so the
 *  pair is predicted but not detected. */
DecodedTrace
wBeyondHbTrace()
{
    constexpr Addr kX = 0x1000, kL = 0x2000;
    DecodedTrace t;
    auto ev = [&](Tick tick, ThreadId tid, Addr addr, AccessKind kind,
                  std::uint64_t instr) {
        MemEvent e;
        e.tick = tick;
        e.tid = tid;
        e.addr = addr;
        e.kind = kind;
        e.instrCount = instr;
        t.events.push_back(e);
    };
    ev(10, 0, kX, AccessKind::DataWrite, 1);
    ev(20, 0, kL, AccessKind::SyncWrite, 2);
    ev(30, 1, kL, AccessKind::SyncWrite, 1);
    ev(40, 2, kL, AccessKind::SyncRead, 1);
    ev(50, 2, kX, AccessKind::DataWrite, 2);
    t.threadEnds = {{0, 2}, {1, 1}, {2, 2}};
    return t;
}

TEST(PredictSuperset, CoversHbOnEveryWorkload)
{
    // The tentpole property: on every seeded workload the predicted
    // race set contains every happens-before race, field for field.
    for (const std::string &app : workloadNames()) {
        const Recording rec = record(app, 11, 4);
        ASSERT_TRUE(rec.completed) << app;

        const HbAnalysis hb = HbAnalysis::analyze(rec.trace);
        const PredictiveAnalysis pred =
            PredictiveAnalysis::analyze(rec.trace);

        std::set<RaceKey> predicted;
        for (const PredictedRace &r : pred.races())
            predicted.insert(keyOf(r));
        for (const HbRace &r : hb.races())
            EXPECT_TRUE(predicted.count(keyOf(r)))
                << app << ": HB race on word " << std::hex << r.word
                << " not predicted";
        for (Addr w : hb.racyWords())
            EXPECT_TRUE(pred.racyWords().count(w)) << app;
        EXPECT_GE(pred.pairs(), hb.pairs()) << app;
    }
}

TEST(PredictSuperset, RacyInjectionStaysCovered)
{
    const Recording &rec = racyRecording();
    ASSERT_TRUE(rec.completed);

    const HbAnalysis hb = HbAnalysis::analyze(rec.trace);
    ASSERT_GT(hb.pairs(), 0u);

    const PredictiveAnalysis pred =
        PredictiveAnalysis::analyze(rec.trace);
    std::set<RaceKey> predicted;
    for (const PredictedRace &r : pred.races())
        predicted.insert(keyOf(r));
    for (const HbRace &r : hb.races())
        EXPECT_TRUE(predicted.count(keyOf(r)));
}

TEST(PredictSuperset, WeakOrderSeesBeyondHappensBefore)
{
    const DecodedTrace t = wBeyondHbTrace();

    const HbAnalysis hb = HbAnalysis::analyze(t, 3);
    EXPECT_EQ(hb.pairs(), 0u);

    const PredictiveAnalysis pred = PredictiveAnalysis::analyze(t, 3);
    ASSERT_EQ(pred.pairs(), 1u);
    const PredictedRace &r = pred.races()[0];
    EXPECT_EQ(r.word, 0x1000u);
    EXPECT_EQ(r.accessor, 2u);
    EXPECT_EQ(r.other, 0u);
    EXPECT_TRUE(r.otherWasWrite);

    // The race comes with a verifiable reordering witness.
    ASSERT_EQ(pred.witnesses().size(), 1u);
    EXPECT_TRUE(verifyWitness(t, pred.witnesses()[0]));
}

TEST(EpochCompression, FieldIdenticalToFullVectors)
{
    std::vector<Recording> recs;
    for (const char *app : {"fft", "radix", "ocean"})
        recs.push_back(record(app, 11, 4));
    recs.push_back(racyRecording());

    for (const Recording &rec : recs) {
        ASSERT_TRUE(rec.completed);
        const HbAnalysis full = HbAnalysis::analyze(rec.trace);
        const HbAnalysis epoch = analyzeEpochCompressed(rec.trace);

        EXPECT_EQ(epoch.numThreads(), full.numThreads());
        ASSERT_EQ(epoch.pairs(), full.pairs());
        for (std::size_t i = 0; i < full.races().size(); ++i)
            EXPECT_EQ(keyOf(epoch.races()[i]), keyOf(full.races()[i]));
        EXPECT_EQ(epoch.racyWords(), full.racyWords());
        for (const HbRace &r : full.races())
            EXPECT_TRUE(epoch.racyEndpoint(r.tick, r.word, r.accessor));

        // The online front end of the same core agrees with the
        // offline pass on every trace.
        IdealDetector ideal(epoch.numThreads());
        runDetectorOnTrace(rec.trace, ideal);
        EXPECT_EQ(ideal.races().pairs(), epoch.pairs());
        EXPECT_EQ(ideal.races().words(), epoch.racyWords());
    }
}

/** Hand-built 70-thread trace: wider than the 64-bit accessor masks,
 *  with racing endpoints on both sides of thread 64. */
DecodedTrace
wideTrace()
{
    constexpr unsigned kThreads = 70;
    constexpr Addr kShared = 0x1000, kPair = 0x2000, kLocked = 0x3000,
                   kLock = 0x4000;
    DecodedTrace t;
    std::vector<std::uint64_t> instrs(kThreads, 0);
    Tick tick = 0;
    auto ev = [&](ThreadId tid, Addr addr, AccessKind kind) {
        MemEvent e;
        e.tick = tick += 10;
        e.tid = tid;
        e.addr = addr;
        e.kind = kind;
        e.instrCount = ++instrs[tid];
        t.events.push_back(e);
    };
    // Every thread reads kShared, then thread 64 writes it: one
    // write-after-read race per other thread, 0..63 and 65..69.
    for (ThreadId u = 0; u < kThreads; ++u)
        ev(u, kShared, AccessKind::DataRead);
    ev(64, kShared, AccessKind::DataWrite);
    // Unordered writes from threads above 64, then a low thread reads.
    ev(65, kPair, AccessKind::DataWrite);
    ev(69, kPair, AccessKind::DataWrite);
    ev(3, kPair, AccessKind::DataRead);
    ev(66, kPair, AccessKind::DataWrite);
    // Lock-ordered handoff between high threads: no race.
    ev(67, kLocked, AccessKind::DataWrite);
    ev(67, kLock, AccessKind::SyncWrite);
    ev(68, kLock, AccessKind::SyncRead);
    ev(68, kLocked, AccessKind::DataWrite);
    ev(68, kLocked, AccessKind::DataRead);
    for (ThreadId u = 0; u < kThreads; ++u)
        t.threadEnds.emplace_back(u, instrs[u]);
    return t;
}

TEST(EpochCompression, WideMachineBeyondSixtyFourThreads)
{
    const DecodedTrace t = wideTrace();
    const HbAnalysis full = HbAnalysis::analyze(t);
    const HbAnalysis epoch = analyzeEpochCompressed(t);
    ASSERT_EQ(full.numThreads(), 70u);
    EXPECT_EQ(epoch.numThreads(), full.numThreads());

    // 69 readers race the write of thread 64; on kPair, 69 vs 65,
    // 3 vs 69 and 65, then 66 vs 65, 69 (writes) and 3 (read).
    ASSERT_EQ(full.pairs(), 69u + 1u + 2u + 3u);
    EXPECT_EQ(full.racyWords(), (std::set<Addr>{0x1000, 0x2000}));
    bool highOther = false;
    for (const HbRace &r : full.races())
        highOther = highOther || r.other >= 64;
    EXPECT_TRUE(highOther);

    ASSERT_EQ(epoch.pairs(), full.pairs());
    for (std::size_t i = 0; i < full.races().size(); ++i)
        EXPECT_EQ(keyOf(epoch.races()[i]), keyOf(full.races()[i]));
    EXPECT_EQ(epoch.racyWords(), full.racyWords());
    for (const HbRace &r : full.races())
        EXPECT_TRUE(epoch.racyEndpoint(r.tick, r.word, r.accessor));

    IdealDetector ideal(70);
    runDetectorOnTrace(t, ideal);
    EXPECT_EQ(ideal.races().pairs(), full.pairs());
    EXPECT_EQ(ideal.races().words(), full.racyWords());
}

TEST(EpochCompression, DerivesThreadsBeyondDeclaredCount)
{
    // Satellite: a trace using thread IDs past the declared count must
    // be analyzed with the derived count, not indexed out of range.
    DecodedTrace t = wBeyondHbTrace();
    const HbAnalysis hb = HbAnalysis::analyze(t, 1);
    EXPECT_EQ(hb.numThreads(), 3u);
    EXPECT_EQ(hb.declaredThreads(), 1u);
    EXPECT_TRUE(hb.threadCountOverridden());

    const HbAnalysis epoch = analyzeEpochCompressed(t, 1);
    EXPECT_EQ(epoch.numThreads(), 3u);
    EXPECT_TRUE(epoch.threadCountOverridden());
}

TEST(PredictWitness, AllMaterializedWitnessesVerify)
{
    const Recording &rec = racyRecording();
    ASSERT_TRUE(rec.completed);

    const PredictiveAnalysis pred =
        PredictiveAnalysis::analyze(rec.trace);
    ASSERT_GT(pred.pairs(), 0u);
    ASSERT_FALSE(pred.witnesses().empty());
    for (const RaceWitness &w : pred.witnesses()) {
        EXPECT_TRUE(pred.racyWords().count(w.word));
        EXPECT_TRUE(verifyWitness(rec.trace, w));
    }

    // A tampered witness must not verify: point the racing access one
    // event early so the replayed next-step check fails.
    RaceWitness bad = pred.witnesses()[0];
    const ThreadId tid = rec.trace.events[bad.secondIndex].tid;
    ASSERT_GT(bad.cutoffs[tid], 0u);
    bad.cutoffs[tid] -= 1;
    EXPECT_FALSE(verifyWitness(rec.trace, bad));
}

/** FNV-1a, folded one integer at a time. */
void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

/** Digest of everything a prediction pass reports: every race field
 *  in order, the racy words, and every witness. */
void
digestPrediction(std::uint64_t &h, const PredictiveAnalysis &p)
{
    fnvMix(h, p.pairs());
    for (const PredictedRace &r : p.races()) {
        fnvMix(h, r.tick);
        fnvMix(h, r.word);
        fnvMix(h, r.accessor);
        fnvMix(h, static_cast<std::uint64_t>(r.kind));
        fnvMix(h, r.other);
        fnvMix(h, r.otherTick);
        fnvMix(h, r.otherWasWrite);
    }
    fnvMix(h, p.racyWords().size());
    for (Addr w : p.racyWords())
        fnvMix(h, w);
    fnvMix(h, p.witnesses().size());
    for (const RaceWitness &w : p.witnesses()) {
        fnvMix(h, w.word);
        fnvMix(h, w.firstIndex);
        fnvMix(h, w.secondIndex);
        fnvMix(h, w.cutoffs.size());
        for (std::uint64_t c : w.cutoffs)
            fnvMix(h, c);
    }
}

// Recorded before prediction moved onto the shared access-history
// core; see the file comment for the re-record rule.
constexpr std::uint64_t kGoldenPredict = 0x4f4697b3f514939aULL;

TEST(PredictGolden, DigestOfInjectedRecordings)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::uint64_t predicted = 0;
    for (const char *app : {"fft", "lu", "radix", "water-n2"}) {
        const InjectionPick pick{1, 2};
        const Recording rec = record(app, 11, 2, &pick);
        ASSERT_TRUE(rec.completed) << app;
        for (unsigned rate : {1u, 3u}) {
            PredictOptions opt;
            opt.sampleRate = rate;
            const PredictiveAnalysis p =
                PredictiveAnalysis::analyze(rec.trace, 0, opt);
            predicted += p.pairs();
            digestPrediction(h, p);
        }
    }
    EXPECT_GT(predicted, 0u);
    const char *print = std::getenv("CORD_PRINT_GOLDEN");
    if (print && *print && *print != '0')
        std::fprintf(stderr, "GOLDEN kGoldenPredict = 0x%016llxULL\n",
                     static_cast<unsigned long long>(h));
    EXPECT_EQ(h, kGoldenPredict)
        << "predictive analysis output changed vs. the golden";
}

TEST(PredictSampling, DeterministicAndAccounted)
{
    const Recording rec = record("fft", 11, 4);
    ASSERT_TRUE(rec.completed);

    PredictOptions all;
    const PredictiveAnalysis full =
        PredictiveAnalysis::analyze(rec.trace, 0, all);
    EXPECT_EQ(full.accessesSkipped(), 0u);

    PredictOptions sampled;
    sampled.sampleRate = 8;
    const PredictiveAnalysis a =
        PredictiveAnalysis::analyze(rec.trace, 0, sampled);
    const PredictiveAnalysis b =
        PredictiveAnalysis::analyze(rec.trace, 0, sampled);
    EXPECT_GT(a.accessesSkipped(), 0u);
    EXPECT_LT(a.accessesAnalyzed(), full.accessesAnalyzed());
    EXPECT_EQ(a.accessesAnalyzed(), b.accessesAnalyzed());
    EXPECT_EQ(a.accessesSkipped(), b.accessesSkipped());
    EXPECT_EQ(a.pairs(), b.pairs());

    // The filter is a pure address hash.
    for (Addr w : {Addr{0x40}, Addr{0x1234560}, Addr{0xdeadbee0}}) {
        EXPECT_EQ(predictSampled(w, 8), predictSampled(w, 8));
        EXPECT_TRUE(predictSampled(w, 1));
        EXPECT_TRUE(predictSampled(w, 0));
    }
}

TEST(PredictGate, EveryCorruptionKindRejected)
{
    const Recording rec = record("fft", 11, 2);
    ASSERT_TRUE(rec.completed);
    ASSERT_FALSE(rec.wireLog.empty());

    {
        LintReport report;
        EXPECT_TRUE(predictInputsValid(rec.wireLog, rec.trace, 0, 1,
                                       report));
        EXPECT_EQ(report.errors(), 0u);
    }

    for (LogCorruptionKind kind : kAllLogCorruptions) {
        SCOPED_TRACE(logCorruptionName(kind));
        bool rejectedOnce = false;
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            std::vector<std::uint8_t> bytes = rec.wireLog;
            Rng rng(seed * 977);
            const LogCorruptionOutcome out =
                corruptWireLog(bytes, kind, rng);
            if (!out.applied)
                continue;
            LintReport report;
            const bool ok =
                predictInputsValid(bytes, rec.trace, 0, 1, report);
            EXPECT_FALSE(ok) << out.description;
            EXPECT_GT(report.errors(), 0u) << out.description;
            rejectedOnce = true;
        }
        EXPECT_TRUE(rejectedOnce);
    }
}

TEST(PredictXval, SupersetHoldsOnRacyCholesky)
{
    XvalSpec spec;
    spec.explore.workload = "cholesky";
    spec.explore.params.numThreads = 4;
    spec.explore.params.scale = 2;
    spec.explore.params.seed = 3;
    spec.explore.schedules = 8;
    spec.explore.jobs = 2;
    spec.explore.haveInjection = true;
    spec.explore.pick = InjectionPick{1, 6};

    const XvalResult r = runXval(spec);
    EXPECT_EQ(r.schedules, 8u);
    EXPECT_TRUE(r.baselineCompleted);
    EXPECT_GT(r.completed, 0u);
    EXPECT_GT(r.predictedPairs, 0u);
    EXPECT_FALSE(r.manifestedWords.empty());
    EXPECT_TRUE(r.superset())
        << r.missedWords.size() << " manifested words missed";

    LintReport report;
    reportXval(r, report);
    EXPECT_EQ(report.errors(), 0u);
    EXPECT_EQ(report.metrics().at("xval.missedWords"), 0.0);
}

TEST(PredictXval, EscapesAreClassifiedOnVolrend)
{
    // volrend's known race (the unlocked opacity-histogram update) is
    // lock-protected in the baseline schedule with every conflicting
    // pair ordered by the observed acquisition order; a different
    // schedule flips that order and races.  This is the documented
    // single-trace limit of reads-from prediction, so the word must
    // escape -- and the escape must be *classified*, with a witness,
    // as ordered-in-baseline.
    XvalSpec spec;
    spec.explore.workload = "volrend";
    spec.explore.params.numThreads = 4;
    spec.explore.params.scale = 1;
    spec.explore.params.seed = 1;
    spec.explore.params.includeKnownRaces = true;
    spec.explore.schedules = 8;
    spec.explore.jobs = 2;

    const XvalResult r = runXval(spec);
    ASSERT_TRUE(r.baselineCompleted);
    ASSERT_FALSE(r.superset()) << "expected the volrend escape";
    ASSERT_EQ(r.escapes.size(), r.missedWords.size())
        << "every miss must be classified";
    for (std::size_t i = 0; i < r.escapes.size(); ++i) {
        const XvalEscape &e = r.escapes[i];
        EXPECT_EQ(e.word, r.missedWords[i]);
        EXPECT_EQ(e.kind, EscapeKind::OrderedInBaseline);
        EXPECT_GE(e.baselineThreads, 2u)
            << "ordered-in-baseline requires a cross-thread witness";
        EXPECT_GT(e.baselineWrites, 0u);
        EXPECT_GE(e.baselineAccesses, e.baselineWrites);
        EXPECT_GT(e.firstSchedule, 0u)
            << "the baseline itself cannot manifest an escaped word";
    }

    // Default report: structured warnings, no errors (the limit is
    // documented, not a finding against the predictor).
    LintReport lenient;
    reportXval(r, lenient);
    EXPECT_EQ(lenient.errors(), 0u) << lenient.renderText();
    EXPECT_GT(lenient.warnings(), 0u);
    EXPECT_EQ(lenient.metrics().at("xval.escape.ordered"),
              static_cast<double>(r.escapes.size()));
    EXPECT_NE(lenient.renderText().find("ordered-in-baseline"),
              std::string::npos);

    // --fail-on-escape promotes the same findings to errors.
    LintReport strict;
    reportXval(r, strict, /*failOnEscape=*/true);
    EXPECT_GT(strict.errors(), 0u);
}

} // namespace
} // namespace cord
