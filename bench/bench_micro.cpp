/**
 * @file
 * Microbenchmarks (google-benchmark) of CORD's hot hardware-model
 * operations: windowed 16-bit clock comparisons, vector-clock joins
 * and compares, set-associative tag lookups, event-queue scheduling,
 * and the detectors' per-access cost on real access streams.
 *
 * The detector benchmarks (`BM_TraceDetector/<app>/<detector>`) record
 * one clean run of barnes (scale 1) and fft (scale 3) -- the scales
 * cordbench's `campaign` workload runs them at -- with a TraceRecorder,
 * then re-drive each stream through a fresh CORD (D = 16, L2
 * residency), VC-L2Cache or Ideal per iteration.  `ns_per_access` is
 * host nanoseconds per committed access; detector construction is not
 * timed.
 *
 *   bench_micro --benchmark_filter=TraceDetector --benchmark_repetitions=5 \
 *       --micro-out BENCH_micro.json
 *
 * `--micro-out PATH` also writes a run manifest with one gauge per
 * stream x detector, `metrics.<app>.<detector>.nsPerAccess`, sampled
 * once per repetition (count, mean, min, max), ready for
 * `cordstat bench-history record`.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cord/clock.h"
#include "cord/ideal_detector.h"
#include "cord/vector_clock.h"
#include "harness/experiments.h"
#include "harness/runner.h"
#include "harness/trace.h"
#include "mem/cache_array.h"
#include "obs/manifest.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace
{

using namespace cord;

void
BM_ScalarWindowCompare(benchmark::State &state)
{
    Rng rng(7);
    Ts64 clock = 100000;
    Ts16 ts = static_cast<Ts16>(clock - 37);
    for (auto _ : state) {
        benchmark::DoNotOptimize(reconstructTs(clock, ts));
        benchmark::DoNotOptimize(isSynchronized(clock, clock - 37, 16));
        clock += rng.below(3);
    }
}
BENCHMARK(BM_ScalarWindowCompare);

void
BM_VectorClockJoin(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    VectorClock a(n);
    VectorClock b(n);
    for (unsigned i = 0; i < n; ++i)
        b.setComponent(i, i * 3 + 1);
    for (auto _ : state) {
        a.join(b);
        benchmark::DoNotOptimize(a.lessEq(b));
    }
}
BENCHMARK(BM_VectorClockJoin)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void
BM_CacheArrayLookup(benchmark::State &state)
{
    CacheArray<int> cache(CacheGeometry::paperL2());
    Rng rng(3);
    for (unsigned i = 0; i < 2048; ++i) {
        const Addr a = rng.below(1 << 20) * kLineBytes;
        if (!cache.find(a))
            cache.insert(a);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.touch(rng.below(1 << 20) * kLineBytes));
    }
}
BENCHMARK(BM_CacheArrayLookup);

void
BM_EventQueueScheduleStep(benchmark::State &state)
{
    EventQueue q;
    Rng rng(17);
    for (auto _ : state) {
        for (int i = 0; i < 16; ++i)
            q.scheduleIn(rng.below(1000), [] {});
        while (q.step()) {
        }
    }
}
BENCHMARK(BM_EventQueueScheduleStep);

/** The committed access stream of one clean run of @p app, recorded
 *  once per process. */
const DecodedTrace &
recordedStream(const std::string &app, unsigned scale)
{
    static std::map<std::string, DecodedTrace> streams;
    auto it = streams.find(app);
    if (it != streams.end())
        return it->second;
    TraceRecorder rec;
    RunSetup run;
    run.workload = app;
    run.params.scale = scale;
    run.params.seed = 1;
    run.detectors = {&rec};
    const RunOutcome out = runWorkload(run);
    cord_assert(out.completed, "stream recording did not complete: ", app);
    return streams[app] = DecodedTrace{rec.events(), rec.threadEnds()};
}

/** Re-drive @p app's stream through a fresh detector per iteration. */
void
BM_TraceDetector(benchmark::State &state, const std::string &app,
                 unsigned scale, const DetectorSpec &spec)
{
    const DecodedTrace &trace = recordedStream(app, scale);
    const MachineConfig machine;
    double drivenNs = 0.0;
    for (auto _ : state) {
        state.PauseTiming();
        std::unique_ptr<Detector> det =
            spec.make(machine, kDefaultNumThreads);
        state.ResumeTiming();
        const auto start = std::chrono::steady_clock::now();
        runDetectorOnTrace(trace, *det);
        drivenNs += std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        benchmark::DoNotOptimize(det->races().pairs());
    }
    const double accesses = static_cast<double>(trace.events.size()) *
                            static_cast<double>(state.iterations());
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
    state.counters["ns_per_access"] = drivenNs / accesses;
}

/** Console output that also keeps every repetition's ns_per_access,
 *  keyed by registered benchmark name. */
class SpreadReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            const auto it = r.counters.find("ns_per_access");
            if (r.run_type == Run::RT_Iteration && it != r.counters.end())
                samples[r.run_name.function_name].push_back(
                    it->second.value);
        }
        ConsoleReporter::ReportRuns(runs);
    }

    std::map<std::string, std::vector<double>> samples;
};

/** Value of `--micro-out PATH` / `--micro-out=PATH`, removed from argv;
 *  "" when absent.  A missing path is a usage error (exit 2). */
std::string
takeMicroOut(int &argc, char **argv)
{
    std::string path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--micro-out") == 0) {
            if (i + 1 == argc) {
                std::fprintf(stderr, "bench_micro: --micro-out needs a "
                                     "path\n");
                std::exit(2);
            }
            path = argv[++i];
        } else if (std::strncmp(argv[i], "--micro-out=", 12) == 0) {
            path = argv[i] + 12;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return path;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string microOut = takeMicroOut(argc, argv);
    const std::pair<const char *, unsigned> apps[] = {{"barnes", 1},
                                                      {"fft", 3}};
    std::vector<DetectorSpec> specs;
    specs.push_back(cordSpec(16, "CORD"));
    specs.push_back(vcL2CacheSpec());
    specs.push_back(DetectorSpec{
        "Ideal", [](const MachineConfig &, unsigned numThreads) {
            return std::make_unique<IdealDetector>(numThreads);
        }});
    std::map<std::string, std::string> metricKey; //!< bench -> metric
    for (const auto &[app, scale] : apps) {
        for (const DetectorSpec &spec : specs) {
            const std::string name = std::string("BM_TraceDetector/") +
                                     app + "/" + spec.label;
            benchmark::RegisterBenchmark(name.c_str(), BM_TraceDetector,
                                         std::string(app), scale, spec)
                ->Unit(benchmark::kMillisecond);
            metricKey[name] = std::string(app) + "." + spec.label;
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    SpreadReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!microOut.empty()) {
        if (reporter.samples.empty()) {
            std::fprintf(stderr, "bench_micro: --micro-out needs per-"
                                 "repetition results; run a TraceDetector "
                                 "benchmark without "
                                 "--benchmark_report_aggregates_only\n");
            return 1;
        }
        RunManifest manifest;
        manifest.tool = "bench_micro";
        manifest.seed = 1;
        manifest.stampTime();
        for (const auto &[name, ns] : reporter.samples) {
            const auto key = metricKey.find(name);
            if (key == metricKey.end())
                continue;
            StatRegistry reg;
            Gauge g = reg.gaugeHandle("nsPerAccess");
            for (const double v : ns)
                g.sample(v);
            manifest.metrics.add(key->second, reg);
        }
        manifest.save(microOut);
        std::printf("manifest: %s\n", microOut.c_str());
    }
    return 0;
}
