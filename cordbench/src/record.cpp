/**
 * @file
 * Workload `record`: the paper's order-recording path end to end.  Per
 * SPLASH app on the Figure-11 machine (computeScale 256): a baseline
 * run with no detector, a CORD run whose traffic is charged to the
 * buses and which records the order log, and a ReplayGate replay of
 * that log.  One op is one of those three runs.
 */

#include <map>

#include "common.h"
#include "cord/cord_detector.h"
#include "cord/log_codec.h"
#include "cord/replay.h"
#include "harness/runner.h"
#include "obs/profiler.h"
#include "workloads/workload.h"

namespace cordbench
{

namespace
{

constexpr unsigned kComputeScale = 256;

unsigned
scaleFor(const Options &opt)
{
    return opt.tiny ? 1 : 4;
}

cord::MachineConfig
figure11Machine()
{
    cord::MachineConfig m;
    m.computeScale = kComputeScale;
    return m;
}

cord::WorkloadParams
paramsFor(const Options &opt, std::size_t app)
{
    cord::WorkloadParams p;
    p.scale = scaleFor(opt);
    p.seed = streamSeed(opt.seed, 0x4ec000 + app);
    return p;
}

/** Host-time accumulators of the traced pass. */
struct Layers
{
    double baselineNs = 0.0;
    std::uint64_t baselineEvents = 0;
    std::uint64_t baselineAccesses = 0;
    double replayNs = 0.0;
    std::uint64_t replayAccesses = 0;
    double encodeNs = 0.0;
    std::uint64_t logEntries = 0;
    LayerClock cord;
};

struct Pass
{
    double seconds = 0.0;
    std::uint64_t accesses = 0;
    std::vector<double> opMs;
    std::map<std::string, double> sim;
};

double
msSince(Clock::time_point t0)
{
    return static_cast<double>(nsSince(t0)) / 1e6;
}

Pass
runPass(const Options &opt, Layers *layers, Report &r)
{
    const std::vector<std::string> &apps = cord::workloadNames("splash");
    const cord::MachineConfig machine = figure11Machine();
    Pass p;
    double baseTicks = 0.0, cordTicks = 0.0, wireBytes = 0.0,
           instrs = 0.0;
    std::map<std::string, double> counts;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const std::string &app = apps[i];
        const cord::WorkloadParams params = paramsFor(opt, i);

        // Baseline: no order recording, no detection hardware.
        cord::RunSetup base;
        base.workload = app;
        base.params = params;
        base.machine = machine;
        auto t = Clock::now();
        const cord::RunOutcome baseOut = cord::runWorkload(base);
        const double baseMs = msSince(t);
        p.opMs.push_back(baseMs);
        r.attempt();
        if (!baseOut.completed)
            r.fail("record baseline run of " + app + " did not complete");

        // CORD attached, its traffic charged to the buses.
        cord::CordDetector cordDet(
            cord::CordConfig::forMachine(machine, params.numThreads));
        std::unique_ptr<TimedDetector> timed;
        if (layers)
            timed = std::make_unique<TimedDetector>(cordDet, layers->cord);
        cord::RunSetup rec = base;
        rec.detectors = {timed ? static_cast<cord::Detector *>(timed.get())
                               : &cordDet};
        rec.timingCord = &cordDet;
        t = Clock::now();
        const cord::RunOutcome cordOut = cord::runWorkload(rec);
        p.opMs.push_back(msSince(t));
        r.attempt();
        if (!cordOut.completed)
            r.fail("record CORD run of " + app + " did not complete");
        timed.reset();

        // Encode the log to its wire form and decode it back, as a
        // replay from a dumped log would.
        t = Clock::now();
        std::vector<std::uint8_t> wire =
            cord::encodeOrderLog(cordDet.orderLog());
        const double encNs = static_cast<double>(nsSince(t));
        if (opt.corruptLog && wire.size() >= 16)
            wire.resize(wire.size() - 8);
        const cord::LenientDecode dec = cord::decodeOrderLogLenient(wire);

        // Replay under the recorded order.
        cord::ReplayGate gate(dec.log, params.numThreads);
        cord::RunSetup rep = base;
        rep.gate = &gate;
        rep.maxTicks = cordOut.ticks * 500 + 10000000;
        t = Clock::now();
        const cord::RunOutcome replayOut = cord::runWorkload(rep);
        const double repMs = msSince(t);
        p.opMs.push_back(repMs);
        r.attempt();
        const bool replayOk = dec.problems.empty() && replayOut.completed &&
                              gate.overrunInstrs() == 0 &&
                              gate.drained() &&
                              replayOut.readChecksums == cordOut.readChecksums;
        if (!replayOk)
            r.fail("replay of " + app +
                   " did not reproduce the recorded run (overrun " +
                   std::to_string(gate.overrunInstrs()) + " instrs)");

        p.accesses += baseOut.accesses + cordOut.accesses + replayOut.accesses;
        baseTicks += static_cast<double>(baseOut.ticks);
        cordTicks += static_cast<double>(cordOut.ticks);
        const cord::StatRegistry &cs = cordDet.stats();
        wireBytes += static_cast<double>(cs.get("cord.logWireBytes"));
        for (std::uint64_t n : cordOut.instrs)
            instrs += static_cast<double>(n);
        counts["accesses"] += static_cast<double>(cordOut.accesses);
        counts["raceChecks"] += static_cast<double>(cs.get("cord.raceChecks"));
        counts["filteredChecks"] +=
            static_cast<double>(cs.get("cord.filteredChecks"));
        counts["memTsUpdates"] +=
            static_cast<double>(cs.get("cord.memTsUpdates"));
        counts["invalidation"] +=
            static_cast<double>(cs.get("cord.coherenceInvalidations"));
        counts["lineDisplacement"] +=
            static_cast<double>(cs.get("cord.lineDisplacements"));
        counts["entryDisplacement"] +=
            static_cast<double>(cs.get("cord.entryDisplacements"));
        counts["walkerEviction"] +=
            static_cast<double>(cs.get("cord.walkerEvictions"));
        counts["addrBusBusy"] +=
            static_cast<double>(cordOut.stats.get("mem.bus.addr.busyCycles"));
        counts["addrBusWait"] +=
            static_cast<double>(cordOut.stats.get("mem.bus.addr.waitCycles"));
        p.sim["ticks.base." + app] = static_cast<double>(baseOut.ticks);
        p.sim["ticks.cord." + app] = static_cast<double>(cordOut.ticks);
        p.sim["ticks.replay." + app] = static_cast<double>(replayOut.ticks);
        p.sim["events.base." + app] = static_cast<double>(baseOut.events);

        if (layers) {
            layers->baselineNs += baseMs * 1e6;
            layers->baselineEvents += baseOut.events;
            layers->baselineAccesses += baseOut.accesses;
            layers->replayNs += repMs * 1e6;
            layers->replayAccesses += replayOut.accesses;
            layers->encodeNs += encNs;
            layers->logEntries += cordDet.orderLog().size();
        }
    }
    p.seconds = secondsSince(t0);
    for (const auto &[k, v] : counts)
        p.sim["count." + k] = v;
    p.sim["cord_overhead_pct"] = 100.0 * (cordTicks / baseTicks - 1.0);
    p.sim["log_bytes_per_kinstr"] = wireBytes / (instrs / 1e3);
    return p;
}

/** Set-up: generate every app's input (shared data and sync
 *  variables), as runWorkload does before its first event. */
double
setupOnce(const Options &opt)
{
    const std::vector<std::string> &apps = cord::workloadNames("splash");
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < apps.size(); ++i) {
        auto w = cord::makeWorkload(apps[i]);
        cord::AddressSpace as;
        w->setup(paramsFor(opt, i), as);
    }
    return secondsSince(t0);
}

/**
 * Profile one CORD run per app with the existing Profiler at
 * wallPeriod 1 (every call timed); outside the pass envelope.
 * Returns ns per committed access for each profiler domain.
 */
std::map<cord::ProfDomain, double>
profileDomains(const Options &opt)
{
    const std::vector<std::string> &apps = cord::workloadNames("splash");
    const cord::MachineConfig machine = figure11Machine();
    cord::Profiler prof(1);
    std::uint64_t accesses = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const cord::WorkloadParams params = paramsFor(opt, i);
        cord::CordDetector cordDet(
            cord::CordConfig::forMachine(machine, params.numThreads));
        cord::RunSetup rec;
        rec.workload = apps[i];
        rec.params = params;
        rec.machine = machine;
        rec.detectors = {&cordDet};
        rec.timingCord = &cordDet;
        cord::ProfilerScope scope(prof);
        accesses += cord::runWorkload(rec).accesses;
    }
    std::map<cord::ProfDomain, double> out;
    for (unsigned d = 0; d < cord::kProfDomains; ++d) {
        const auto dom = static_cast<cord::ProfDomain>(d);
        out[dom] = static_cast<double>(prof.wallEstimateNs(dom)) /
                   static_cast<double>(accesses);
    }
    return out;
}

} // namespace

void
runRecordWorkload(const Options &opt, Report &r)
{
    std::vector<double> setup;
    for (int i = 0; i < 15; ++i)
        setup.push_back(setupOnce(opt));

    const double untracedBudget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::vector<Pass> plain = repeatPasses(
        "record", untracedBudget, [&] { return runPass(opt, nullptr, r); });
    for (const Pass &p : plain)
        if (p.sim != plain.front().sim)
            r.fail("record repeated pass changed a simulated result");

    if (!opt.trace) {
        std::vector<double> opMs;
        for (const Pass &p : plain)
            opMs.insert(opMs.end(), p.opMs.begin(), p.opMs.end());
        reportEndToEnd(r, medianAccessRate(plain), opMs, setup);
        return;
    }

    Layers layers;
    const std::vector<Pass> traced =
        repeatPasses("record traced", opt.seconds - untracedBudget,
                     [&] { return runPass(opt, &layers, r); });
    for (const Pass &p : traced)
        if (p.sim != plain.front().sim)
            r.fail("record traced pass changed a simulated result");
    const std::map<std::string, double> &sim = plain.front().sim;
    const double acc = sim.at("count.accesses");
    const double perK = 1e3 / acc;

    r.metric("sim.ns_per_event",
             layers.baselineNs / static_cast<double>(layers.baselineEvents),
             "ns");
    r.metric("sim.events_per_access",
             static_cast<double>(layers.baselineEvents) /
                 static_cast<double>(layers.baselineAccesses),
             "event/access");
    r.metric("cord.timed_ns_per_access", layers.cord.nsPerAccess(), "ns");
    r.metric("cord.race_checks_per_kaccess", sim.at("count.raceChecks") * perK,
             "count/kaccess");
    const double checks =
        sim.at("count.raceChecks") + sim.at("count.filteredChecks");
    r.metric("cord.filtered_check_pct",
             100.0 * sim.at("count.filteredChecks") / checks, "%");
    r.metric("cord.memts_updates_per_kaccess",
             sim.at("count.memTsUpdates") * perK, "count/kaccess");
    r.metric("cord.folds.invalidation", sim.at("count.invalidation"),
             "count");
    r.metric("cord.folds.line_displacement",
             sim.at("count.lineDisplacement"), "count");
    r.metric("cord.folds.entry_displacement",
             sim.at("count.entryDisplacement"), "count");
    r.metric("cord.folds.walker_eviction", sim.at("count.walkerEviction"),
             "count");
    r.metric("mem.addr_bus_busy_cycles", sim.at("count.addrBusBusy"),
             "cycles");
    r.metric("mem.addr_bus_wait_cycles", sim.at("count.addrBusWait"),
             "cycles");
    r.metric("replay.ns_per_access",
             layers.replayNs / static_cast<double>(layers.replayAccesses),
             "ns");
    r.metric("log.encode_ns_per_entry",
             layers.encodeNs / static_cast<double>(layers.logEntries), "ns");
    r.metric("cord_overhead_pct", sim.at("cord_overhead_pct"), "%");
    r.metric("log_bytes_per_kinstr", sim.at("log_bytes_per_kinstr"),
             "B/kinstr");
    r.metric("trace.overhead_accesses_per_s",
             medianAccessRate(traced) - medianAccessRate(plain), "1/s");

    // Existing profiler domains, outside the pass envelope.
    const auto prof = profileDomains(opt);
    using D = cord::ProfDomain;
    r.metric("prof.kernel_dispatch_ns_per_access",
             prof.at(D::KernelDispatch), "ns");
    r.metric("prof.mem_service_ns_per_access", prof.at(D::MemService),
             "ns");
    r.metric("prof.cord_check_ns_per_access", prof.at(D::CordCheck), "ns");
    r.metric("prof.cord_log_ns_per_access", prof.at(D::CordLog), "ns");
    r.metric("prof.cord_timestamp_ns_per_access", prof.at(D::CordTimestamp),
             "ns");
    r.metric("prof.cord_history_ns_per_access", prof.at(D::CordHistory),
             "ns");
}

} // namespace cordbench
