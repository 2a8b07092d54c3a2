/**
 * @file
 * Workload `offline`: the cordlint pipeline over artifacts recorded in
 * set-up.  Set-up records one manifesting injection run each of radix,
 * ocean, cholesky and water-n2 (trace, wire order log, CORD's online
 * report); a pass decodes each trace and log, lints it, and runs the
 * epoch, full-HB and predictive analyses.  One op is one analysis call.
 */

#include <map>
#include <numeric>
#include <optional>

#include "analysis/epoch_analyzer.h"
#include "analysis/hb_analyzer.h"
#include "analysis/lint.h"
#include "analysis/predict.h"
#include "common.h"
#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "cord/log_codec.h"
#include "harness/runner.h"
#include "harness/trace.h"
#include "inject/injector.h"
#include "sim/rng.h"

namespace cordbench
{

namespace
{

struct App
{
    const char *name;
    unsigned scale;
};

// water-n2's trace grows quadratically with scale, the others about
// linearly; these scales keep the four traces within a factor of ~3
// of each other so no single trace dominates the pass.
constexpr App kApps[] = {
    {"radix", 8}, {"ocean", 8}, {"cholesky", 8}, {"water-n2", 2}};

/** The recorded artifacts of one manifesting injection run. */
struct Artifact
{
    std::string app;
    unsigned numThreads = 0;
    std::vector<std::uint8_t> trace;
    std::vector<std::uint8_t> log;
    cord::RaceReport online;

    /** FNV-1a digest of the recorded bytes and the report size. */
    std::uint64_t
    digest() const
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        auto mix = [&h](std::uint8_t b) {
            h = (h ^ b) * 0x100000001b3ull;
        };
        for (std::uint8_t b : trace)
            mix(b);
        for (std::uint8_t b : log)
            mix(b);
        for (unsigned k = 0; k < 8; ++k)
            mix(static_cast<std::uint8_t>(online.pairs() >> (8 * k)));
        return h;
    }
};

/** Map flat instance index @p n of @p census to its (thread, seq). */
cord::InjectionPick
pickAt(const std::vector<std::uint64_t> &census, std::uint64_t n)
{
    cord::InjectionPick pick;
    while (n >= census[pick.tid])
        n -= census[pick.tid++];
    pick.seqInThread = n;
    return pick;
}

/**
 * Record the first injection run of @p app in which Ideal sees a race
 * (the cordsim --inject path: a clean census run, then single
 * removals).  The removals are tried in a seeded random order without
 * repeats, so only an app none of whose instances manifests records
 * nothing.  The first kSample removals are always tried, even after
 * one has manifested: how many removals it takes to find a race
 * depends on the seed (about five for cholesky), and a fixed sample
 * keeps the set-up work, and so setup_s, about the same for every
 * seed.  A removal that runs past twice the clean run's ticks is
 * skipped as a likely deadlock.  nullopt when no removal manifests or
 * the recorded repeat does not complete.
 */
std::optional<Artifact>
recordArtifact(const Options &opt, std::size_t i, unsigned &tries)
{
    constexpr std::size_t kSample = 8;
    const App &app = kApps[i];
    cord::RunSetup census;
    census.workload = app.name;
    census.params.scale = opt.tiny ? 1 : app.scale;
    census.params.seed = streamSeed(opt.seed, 0x0ff000 + i);
    const cord::RunOutcome clean = cord::runWorkload(census);
    const unsigned threads = census.params.numThreads;

    // Incremental Fisher-Yates shuffle of every instance index.
    std::vector<std::uint64_t> order(std::accumulate(
        clean.syncCensus.begin(), clean.syncCensus.end(), std::uint64_t{0}));
    std::iota(order.begin(), order.end(), std::uint64_t{0});
    cord::RunSetup run = census;
    run.maxTicks = clean.ticks * 2 + 100000;
    cord::Rng rng(streamSeed(opt.seed, 0x0fe000 + i));
    std::optional<cord::InjectionPick> found;
    for (std::size_t k = 0; k < order.size() && (k < kSample || !found);
         ++k) {
        std::swap(order[k], order[k + rng.below(order.size() - k)]);
        const cord::InjectionPick pick = pickAt(clean.syncCensus, order[k]);
        tries = static_cast<unsigned>(k + 1);
        cord::RemoveOneInstance filter(pick);
        cord::IdealDetector ideal(threads);
        run.filter = &filter;
        run.detectors = {&ideal};
        if (cord::runWorkload(run).completed &&
            ideal.races().problemDetected() && !found)
            found = pick;
    }
    if (!found)
        return std::nullopt;

    // Runs are deterministic and the detectors passive, so the
    // manifesting run is repeated with the recorders attached; tries
    // that spin until the tick limit never grow a trace.
    cord::RemoveOneInstance again(*found);
    run.filter = &again;
    cord::CordDetector cordDet(
        cord::CordConfig::forMachine(census.machine, threads));
    cord::TraceRecorder trace;
    run.detectors = {&cordDet, &trace};
    if (!cord::runWorkload(run).completed)
        return std::nullopt;
    Artifact art;
    art.app = app.name;
    art.numThreads = threads;
    art.trace = cord::encodeTrace(trace);
    art.log = cord::encodeOrderLog(cordDet.orderLog());
    art.online = cordDet.races();
    return art;
}

/** Set-up: record and encode every artifact. */
std::vector<Artifact>
recordArtifacts(const Options &opt, Report &r)
{
    std::vector<Artifact> arts;
    for (std::size_t i = 0; i < std::size(kApps); ++i) {
        const auto t0 = Clock::now();
        unsigned tries = 0;
        std::optional<Artifact> a = recordArtifact(opt, i, tries);
        std::fprintf(stderr, "cordbench: offline artifact %s: %zu trace "
                     "bytes, %zu log bytes, %u removals tried, %.2f s\n",
                     kApps[i].name, a ? a->trace.size() : 0,
                     a ? a->log.size() : 0, tries, secondsSince(t0));
        if (!a) {
            r.fail(std::string("no manifesting injection run of ") +
                   kApps[i].name + " was recorded");
            continue;
        }
        arts.push_back(std::move(*a));
    }
    return arts;
}

bool
sameRaces(const cord::HbAnalysis &a, const cord::HbAnalysis &b)
{
    if (a.racyWords() != b.racyWords() || a.pairs() != b.pairs())
        return false;
    for (std::size_t k = 0; k < a.races().size(); ++k) {
        const cord::HbRace &x = a.races()[k];
        const cord::HbRace &y = b.races()[k];
        if (x.tick != y.tick || x.word != y.word ||
            x.accessor != y.accessor || x.kind != y.kind ||
            x.other != y.other || x.otherTick != y.otherTick ||
            x.otherWasWrite != y.otherWasWrite)
            return false;
    }
    return true;
}

/** Host ns per stage, summed over passes, per artifact. */
struct StageNs
{
    double decode = 0, lint = 0, epoch = 0, hb = 0, predict = 0;
};

struct Pass
{
    double seconds = 0.0;
    std::uint64_t accesses = 0;
    std::vector<double> opMs;
    std::map<std::string, double> sim;
};

Pass
runPass(const std::vector<Artifact> &arts, std::vector<StageNs> &stages,
        Report &r)
{
    Pass p;
    const auto t0 = Clock::now();
    auto timed = [&](double &acc, auto &&fn) {
        const auto t = Clock::now();
        fn();
        const double ns = static_cast<double>(nsSince(t));
        acc += ns;
        p.opMs.push_back(ns / 1e6);
        r.attempt();
    };
    for (std::size_t i = 0; i < arts.size(); ++i) {
        const Artifact &a = arts[i];
        StageNs &st = stages[i];

        cord::DecodedTrace trace;
        cord::LenientDecode log;
        timed(st.decode, [&] {
            trace = cord::decodeTrace(a.trace);
            log = cord::decodeOrderLogLenient(a.log);
        });
        if (!log.problems.empty())
            r.fail("order log of " + a.app + " does not decode cleanly");

        cord::LintReport lint;
        timed(st.lint, [&] {
            cord::LintInput in;
            in.wireLog = &a.log;
            in.trace = &trace;
            in.onlineReport = &a.online;
            in.numThreads = a.numThreads;
            lint = cord::runLint(in);
        });
        if (!lint.clean())
            r.fail("lint of " + a.app + " reports " +
                   std::to_string(lint.errors()) + " errors and " +
                   std::to_string(lint.warnings()) + " warnings");

        std::optional<cord::HbAnalysis> epoch, hb;
        timed(st.epoch, [&] {
            epoch = cord::analyzeEpochCompressed(trace, a.numThreads);
        });
        timed(st.hb,
              [&] { hb = cord::HbAnalysis::analyze(trace, a.numThreads); });
        if (!sameRaces(*epoch, *hb))
            r.fail("epoch race set of " + a.app + " differs from HB's");

        std::optional<cord::PredictiveAnalysis> pred;
        timed(st.predict, [&] {
            pred = cord::PredictiveAnalysis::analyze(trace, a.numThreads);
        });

        p.accesses += trace.events.size();
        p.sim[a.app + ".accesses"] = static_cast<double>(trace.events.size());
        p.sim[a.app + ".hbPairs"] = static_cast<double>(hb->pairs());
        p.sim[a.app + ".predictedPairs"] = static_cast<double>(pred->pairs());
        p.sim[a.app + ".findings"] =
            static_cast<double>(lint.findings().size());
    }
    p.seconds = secondsSince(t0);
    return p;
}

/** ns per access of @p det driven over every artifact's trace;
 *  timed outside the pass envelope. */
template <typename Make>
double
streamNsPerAccess(const std::vector<Artifact> &arts, Make &&make)
{
    double ns = 0.0, acc = 0.0;
    for (const Artifact &a : arts) {
        const cord::DecodedTrace trace = cord::decodeTrace(a.trace);
        auto det = make(a.numThreads);
        const auto t0 = Clock::now();
        cord::runDetectorOnTrace(trace, *det);
        ns += static_cast<double>(nsSince(t0));
        acc += static_cast<double>(trace.events.size());
    }
    return ns / acc;
}

} // namespace

void
runOfflineWorkload(const Options &opt, Report &r)
{
    // Set-up is repeated; every repetition must produce the same bytes.
    // The previous repetition's artifacts are released first so the
    // repetitions do not stack up in peak memory.
    std::vector<double> setup;
    std::vector<Artifact> arts;
    std::vector<std::uint64_t> first;
    for (int k = 0; k < 5; ++k) {
        arts = {};
        const auto t0 = Clock::now();
        arts = recordArtifacts(opt, r);
        setup.push_back(secondsSince(t0));
        std::vector<std::uint64_t> digests;
        for (const Artifact &a : arts)
            digests.push_back(a.digest());
        if (k == 0)
            first = digests;
        else if (digests != first)
            r.fail("offline set-up recorded different artifacts");
    }
    if (arts.empty()) {
        r.attempt();
        return;
    }

    std::vector<StageNs> plainStages(arts.size());
    const double untracedBudget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::vector<Pass> plain = repeatPasses(
        "offline", untracedBudget,
        [&] { return runPass(arts, plainStages, r); });
    for (const Pass &p : plain)
        if (p.sim != plain.front().sim)
            r.fail("offline repeated pass changed an analysis result");

    if (!opt.trace) {
        std::vector<double> opMs;
        for (const Pass &p : plain)
            opMs.insert(opMs.end(), p.opMs.begin(), p.opMs.end());
        reportEndToEnd(r, medianAccessRate(plain), opMs, setup);
        return;
    }

    // The per-stage timings are the ops themselves, so the traced pass
    // adds no instrument inside the envelope.
    std::vector<StageNs> stages(arts.size());
    const std::vector<Pass> traced =
        repeatPasses("offline traced", opt.seconds - untracedBudget,
                     [&] { return runPass(arts, stages, r); });
    for (const Pass &p : traced)
        if (p.sim != plain.front().sim)
            r.fail("offline traced pass changed an analysis result");
    double acc = 0.0;
    for (const Pass &p : traced)
        acc += static_cast<double>(p.accesses);
    StageNs total;
    for (std::size_t i = 0; i < arts.size(); ++i) {
        const StageNs &s = stages[i];
        total.decode += s.decode;
        total.lint += s.lint;
        total.epoch += s.epoch;
        total.hb += s.hb;
        total.predict += s.predict;
        r.metric("analysis.epoch_speedup." + arts[i].app, s.hb / s.epoch,
                 "x");
    }
    r.metric("analysis.decode_ns_per_access", total.decode / acc, "ns");
    r.metric("analysis.lint_ns_per_access", total.lint / acc, "ns");
    r.metric("analysis.epoch_ns_per_access", total.epoch / acc, "ns");
    r.metric("analysis.hb_ns_per_access", total.hb / acc, "ns");
    r.metric("analysis.predict_ns_per_access", total.predict / acc, "ns");
    r.metric("analysis.epoch_speedup", total.hb / total.epoch, "x");
    r.metric("trace.overhead_accesses_per_s",
             medianAccessRate(traced) - medianAccessRate(plain), "1/s");

    // Detectors streamed over the recorded traces (outside the pass).
    r.metric("ideal.ns_per_access", streamNsPerAccess(arts, [](unsigned n) {
                 return std::make_unique<cord::IdealDetector>(n);
             }),
             "ns");
    r.metric("cord.stream_ns_per_access",
             streamNsPerAccess(arts, [](unsigned n) {
                 cord::MachineConfig m;
                 return std::make_unique<cord::CordDetector>(
                     cord::CordConfig::forMachine(m, n));
             }),
             "ns");
}

} // namespace cordbench
