/**
 * @file
 * Shared plumbing of the cordbench binary: options, the result line,
 * host-time helpers, and the two bench-owned Detector wrappers that
 * count and time calls into a layer from outside the simulator.
 */

#ifndef CORDBENCH_COMMON_H
#define CORDBENCH_COMMON_H

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cord/detector.h"

namespace cordbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Nanoseconds elapsed since @p t0. */
std::uint64_t nsSince(Clock::time_point t0);

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;

    /** Self-test size: every workload shrunk to a pass of about a
     *  second, so all metrics can be checked quickly. */
    bool tiny = false;

    /** Self-test: truncate every recorded order log by one entry
     *  before the replay check; each replay must then count as a
     *  failed op. */
    bool corruptLog = false;

    /** Scratch directory for heartbeat files (created on demand). */
    std::string workdir = ".bench_build/work";
};

/** Derive an independent stream seed from the benchmark seed. */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t tag);

/** Op accounting and named metrics; prints the final result line. */
class Report
{
  public:
    /** One op (a simulated run or an analysis call) was attempted. */
    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** One attempted op produced a wrong output; @p what goes to
     *  stderr so the failing op can be named. */
    void fail(const std::string &what);

    /** Record metric @p name; a repeated name overwrites. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** The result line: {"correct", "attempted", "failed", "metrics"}. */
    std::string json() const;

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, std::string>> metrics_;
};

/** Median (mean of the two middle values for even counts). */
double median(std::vector<double> v);

/** Linearly interpolated quantile @p q in [0, 1]. */
double quantile(std::vector<double> v, double q);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMiB();

/** Host cost of one steady_clock::now() pair, in ns (calibrated once
 *  per process and subtracted from every per-call layer timing). */
double clockPairNs();

/** Shared accumulator of one layer's host time; wrappers add their
 *  totals when they are destroyed, from any worker thread. */
struct LayerClock
{
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> accesses{0};

    /** Host ns per observed access, net of the timer's own cost. */
    double nsPerAccess() const;
};

/**
 * Times every call into a wrapped detector.  Detector::races() and
 * stats() are non-virtual, so finish() copies the inner detector's
 * report and counters into this object; geometry() is forwarded and
 * pureObserver() stays false, so the runner treats the pair exactly
 * like the inner detector.
 */
class TimedDetector final : public cord::Detector
{
  public:
    TimedDetector(std::unique_ptr<cord::Detector> inner, LayerClock &clock);
    TimedDetector(cord::Detector &inner, LayerClock &clock);
    ~TimedDetector() override;

    void onAccess(const cord::MemEvent &ev) override;
    void onThreadEnd(cord::ThreadId tid,
                     std::uint64_t totalInstrs) override;
    void finish() override;
    cord::DetectorGeometry geometry() const override;

  private:
    std::unique_ptr<cord::Detector> owned_;
    cord::Detector *inner_;
    LayerClock &clock_;
    std::uint64_t ns_ = 0;
    std::uint64_t calls_ = 0;
    std::uint64_t accesses_ = 0;
};

/** Counts committed accesses into a shared total (no timing). */
class AccessCounter final : public cord::Detector
{
  public:
    explicit AccessCounter(std::atomic<std::uint64_t> &total)
        : Detector("access-count"), total_(total)
    {
    }
    ~AccessCounter() override { total_ += n_; }

    void onAccess(const cord::MemEvent &) override { ++n_; }

  private:
    std::atomic<std::uint64_t> &total_;
    std::uint64_t n_ = 0;
};

/**
 * Call @p pass until @p budget seconds have been spent, at least once.
 * A pass that would likely end more than half a pass past the budget
 * is not started, so a run measures close to its budget.
 */
template <typename PassFn>
auto
repeatPasses(const char *workload, double budget, PassFn &&pass)
{
    std::vector<decltype(pass())> passes;
    const auto t0 = Clock::now();
    for (;;) {
        passes.push_back(pass());
        const double spent = secondsSince(t0);
        if (spent + spent / static_cast<double>(passes.size()) / 2 >= budget)
            break;
    }
    std::fprintf(stderr, "cordbench: %s: %zu passes in %.1f s\n", workload,
                 passes.size(), secondsSince(t0));
    return passes;
}

/** Accesses per host second of each pass, median over passes. */
template <typename Pass>
double
medianAccessRate(const std::vector<Pass> &passes)
{
    std::vector<double> rates;
    for (const Pass &p : passes)
        rates.push_back(static_cast<double>(p.accesses) / p.seconds);
    return median(rates);
}

/** Print the end-to-end metrics of an untraced run: @p opMs are the
 *  host times of every op of every pass, @p setupSec the repeated
 *  set-up times. */
void reportEndToEnd(Report &r, double accessesPerSec,
                    const std::vector<double> &opMs,
                    const std::vector<double> &setupSec);

/** The three workloads; each fills @p r with its metrics. */
void runCampaignWorkload(const Options &opt, Report &r);
void runRecordWorkload(const Options &opt, Report &r);
void runOfflineWorkload(const Options &opt, Report &r);

/** Every per-layer metric name with its unit, in print order.  A
 *  traced run prints all of them; a workload that does not exercise a
 *  layer reports 0 for that layer's metrics. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

} // namespace cordbench

#endif // CORDBENCH_COMMON_H
