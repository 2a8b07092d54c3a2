/**
 * @file
 * Workload `campaign`: a Figure-12 injection campaign at jobs = 2 with
 * passive CORD D=16, VC-L2 and the built-in Ideal over a lock-dense,
 * barrier-dense, access-dense and rwlock-dense app mix (README.md says
 * why each app is there).  One op is one injection run; its host time
 * comes from the campaign's FlightRecorder heartbeat.
 */

#include <filesystem>
#include <fstream>
#include <map>

#include "common.h"
#include "harness/experiments.h"
#include "obs/json.h"

namespace cordbench
{

namespace
{

struct App
{
    const char *name;
    unsigned scale;
    unsigned load; //!< offered load (server family only)
};

// Lock-dense (barnes, water-n2), barrier-dense and timeout-heavy
// (lu, radix), access-dense (fft) and the server family's rwlocks
// (kvstore at twice its nominal arrival rate).
constexpr App kApps[] = {
    {"barnes", 1, 100}, {"fft", 3, 100},      {"lu", 2, 100},
    {"radix", 3, 100},  {"water-n2", 1, 100}, {"kvstore", 16, 200},
};

constexpr unsigned kJobs = 2;

unsigned
injections(const Options &opt)
{
    return opt.tiny ? 3 : 30;
}

/** One pass over every app. */
struct Pass
{
    double seconds = 0.0;
    std::uint64_t accesses = 0;      //!< every injection run
    std::uint64_t doneAccesses = 0;  //!< runs that completed
    double doneSec = 0.0;            //!< host time of those runs
    std::vector<double> doneMs;      //!< host time of each of those runs
    double runSec = 0.0;
    double timeoutSec = 0.0;
    double censusSec = 0.0;
    unsigned runs = 0;
    unsigned timeouts = 0;
    /** Simulated results; must repeat exactly for a seed. */
    std::map<std::string, double> sim;
};

struct Heartbeat
{
    double censusSec = 0.0;
    std::vector<double> runSec;
    std::vector<bool> timedOut;
};

Heartbeat
readHeartbeat(const std::string &path, Report &r)
{
    Heartbeat hb;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const auto v = cord::JsonValue::parse(line);
        if (!v || !v->isObject()) {
            r.fail("heartbeat line does not parse: " + line);
            continue;
        }
        const std::string ev = v->str("event");
        if (ev == "campaign_begin") {
            hb.censusSec = v->num("t");
        } else if (ev == "run_finished") {
            hb.runSec.push_back(v->num("wallSeconds"));
            const cord::JsonValue *t = v->find("timedOut");
            hb.timedOut.push_back(t && t->isBool() && t->asBool());
        }
    }
    return hb;
}

cord::DetectorSpec
timed(cord::DetectorSpec spec, LayerClock *clock)
{
    if (!clock)
        return spec;
    auto make = spec.make;
    spec.make = [make, clock](const cord::MachineConfig &m,
                              unsigned threads)
        -> std::unique_ptr<cord::Detector> {
        return std::make_unique<TimedDetector>(make(m, threads), *clock);
    };
    return spec;
}

Pass
runPass(const Options &opt, LayerClock *cordClock, LayerClock *vcClock,
        Report &r)
{
    const std::string hbPath = opt.workdir + "/campaign.heartbeat.jsonl";
    std::atomic<std::uint64_t> accesses{0};
    const std::vector<cord::DetectorSpec> specs = {
        timed(cord::cordSpec(16), cordClock),
        timed(cord::vcL2CacheSpec(), vcClock),
        cord::DetectorSpec{"access-count",
                           [&accesses](const cord::MachineConfig &,
                                       unsigned) {
                               return std::make_unique<AccessCounter>(
                                   accesses);
                           }},
    };

    Pass p;
    std::uint64_t manifested = 0, cordProblems = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < std::size(kApps); ++i) {
        const App &app = kApps[i];
        cord::CampaignConfig cfg;
        cfg.workload = app.name;
        cfg.params.scale = opt.tiny ? 1 : app.scale;
        cfg.params.loadPercent = app.load;
        cfg.params.seed = streamSeed(opt.seed, 0xca000 + i);
        cfg.seed = streamSeed(opt.seed, 0xcb000 + i);
        cfg.injections = injections(opt);
        cfg.jobs = kJobs;
        cfg.onRunDone = [&p](const cord::CampaignRunView &v) {
            p.doneAccesses += v.outcome.accesses;
        };

        cord::CampaignResult res;
        {
            cord::FlightRecorder flight(hbPath);
            cfg.flight = &flight;
            res = cord::runCampaign(cfg, specs);
        }
        const Heartbeat hb = readHeartbeat(hbPath, r);

        // Ops: the census run plus every injection run.
        r.attempt(1 + res.injections);
        if (res.cleanIdealRaces != 0)
            r.fail(std::string("census Ideal found ") +
                   std::to_string(res.cleanIdealRaces) + " races in " +
                   app.name);
        if (hb.runSec.size() != res.injections)
            r.fail(std::string("heartbeat of ") + app.name + " has " +
                   std::to_string(hb.runSec.size()) + " runs, expected " +
                   std::to_string(res.injections));

        p.censusSec += hb.censusSec;
        for (std::size_t k = 0; k < hb.runSec.size(); ++k) {
            p.runSec += hb.runSec[k];
            if (hb.timedOut[k]) {
                p.timeoutSec += hb.runSec[k];
            } else {
                p.doneSec += hb.runSec[k];
                p.doneMs.push_back(hb.runSec[k] * 1e3);
            }
        }
        p.runs += res.injections;
        p.timeouts += res.timeouts;
        manifested += res.manifested;
        cordProblems += res.problems["CORD-D16"];

        const std::string k = std::string("sim.") + app.name + ".";
        p.sim[k + "manifested"] = res.manifested;
        p.sim[k + "timeouts"] = res.timeouts;
        p.sim[k + "instances"] = static_cast<double>(res.totalInstances);
        p.sim[k + "idealRaw"] = static_cast<double>(res.idealRawRaces);
        for (const auto &[label, n] : res.problems)
            p.sim[k + "problems." + label] = n;
        for (const auto &[label, n] : res.rawRaces)
            p.sim[k + "raw." + label] = static_cast<double>(n);
    }
    p.seconds = secondsSince(t0);
    p.accesses = accesses.load();
    p.sim["accesses"] = static_cast<double>(p.accesses);
    p.sim["cord_problem_pct"] =
        manifested ? 100.0 * static_cast<double>(cordProblems) /
                         static_cast<double>(manifested)
                   : 0.0;
    return p;
}

/**
 * Committed accesses per host second of the injection runs that
 * complete, median over passes.  Runs the watchdog stops spin until a
 * tick limit derived from the census; their count swings with the seed
 * (4 to 11 % of the runs) and they take most of the host time when
 * they occur, so they are left out of accesses_per_s and the run-time
 * quantiles (a p90 at the edge of that share would jump by 6x from seed
 * to seed) and reported as harness.watchdog_share_pct instead.
 */
double
completedAccessRate(const std::vector<Pass> &passes)
{
    std::vector<double> rates;
    for (const Pass &p : passes)
        rates.push_back(static_cast<double>(p.doneAccesses) / p.doneSec);
    return median(rates);
}

void
checkSame(const Pass &ref, const Pass &p, const char *what, Report &r)
{
    if (p.sim != ref.sim)
        r.fail(std::string("campaign ") + what +
               " pass changed a simulated result");
}

} // namespace

void
runCampaignWorkload(const Options &opt, Report &r)
{
    std::filesystem::create_directories(opt.workdir);
    const double untracedBudget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::vector<Pass> plain =
        repeatPasses("campaign", untracedBudget,
                     [&] { return runPass(opt, nullptr, nullptr, r); });
    for (const Pass &p : plain)
        checkSame(plain.front(), p, "repeated", r);

    if (!opt.trace) {
        std::vector<double> doneMs, census;
        for (const Pass &p : plain) {
            doneMs.insert(doneMs.end(), p.doneMs.begin(), p.doneMs.end());
            census.push_back(p.censusSec);
        }
        reportEndToEnd(r, completedAccessRate(plain), doneMs, census);
        return;
    }

    LayerClock cordClock, vcClock;
    const std::vector<Pass> traced =
        repeatPasses("campaign traced", opt.seconds - untracedBudget, [&] {
            return runPass(opt, &cordClock, &vcClock, r);
        });
    double runSec = 0.0, timeoutSec = 0.0, passSec = 0.0;
    std::uint64_t accesses = 0;
    std::vector<double> census;
    for (const Pass &p : traced) {
        checkSame(plain.front(), p, "traced", r);
        runSec += p.runSec;
        timeoutSec += p.timeoutSec;
        passSec += p.seconds;
        accesses += p.accesses;
        census.push_back(p.censusSec * 1e3);
    }
    const Pass &ref = plain.front();
    r.metric("harness.pool_busy_pct", 100.0 * runSec / (kJobs * passSec),
             "%");
    r.metric("harness.watchdog_share_pct", 100.0 * timeoutSec / runSec,
             "%");
    r.metric("harness.census_ms", median(census), "ms");
    r.metric("harness.runs", ref.runs, "count");
    r.metric("harness.timeouts", ref.timeouts, "count");
    r.metric("cord.passive_ns_per_access", cordClock.nsPerAccess(), "ns");
    r.metric("vc.ns_per_access", vcClock.nsPerAccess(), "ns");
    const double detNs = static_cast<double>(cordClock.ns.load()) +
                         static_cast<double>(vcClock.ns.load());
    r.metric("sim.residual_ns_per_access",
             (runSec * 1e9 - detNs) / static_cast<double>(accesses), "ns");
    r.metric("cord_problem_pct", ref.sim.at("cord_problem_pct"), "%");
    r.metric("trace.overhead_accesses_per_s",
             completedAccessRate(traced) - completedAccessRate(plain), "1/s");
}

} // namespace cordbench
