#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/rng.h"

namespace cordbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t tag)
{
    return cord::Rng::deriveSeed(seed, tag);
}

void
Report::fail(const std::string &what)
{
    ++failed_;
    std::fprintf(stderr, "cordbench: FAILED %s\n", what.c_str());
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!metrics_.count(name))
        order_.push_back(name);
    metrics_[name] = {value, unit};
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    bool first = true;
    for (const std::string &name : order_) {
        const auto &[value, unit] = metrics_.at(name);
        char num[64];
        // Non-finite values cannot appear in JSON; a ratio without a
        // base is reported as 0.
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << num << ", \"unit\": \"" << unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMiB()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kib = 0.0;
            is >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

void
reportEndToEnd(Report &r, double accessesPerSec,
               const std::vector<double> &opMs,
               const std::vector<double> &setupSec)
{
    r.metric("accesses_per_s", accessesPerSec, "1/s");
    r.metric("run_ms_p50", quantile(opMs, 0.5), "ms");
    r.metric("run_ms_p90", quantile(opMs, 0.9), "ms");
    r.metric("setup_s", median(setupSec), "s");
    r.metric("peak_rss_mb", peakRssMiB(), "MiB");
}

double
clockPairNs()
{
    static const double ns = [] {
        constexpr int kPairs = 200000;
        const auto t0 = Clock::now();
        for (int i = 0; i < kPairs; ++i) {
            (void)Clock::now();
            (void)Clock::now();
        }
        return static_cast<double>(nsSince(t0)) / kPairs;
    }();
    return ns;
}

double
LayerClock::nsPerAccess() const
{
    const double acc = static_cast<double>(accesses.load());
    if (acc == 0.0)
        return 0.0;
    const double net = static_cast<double>(ns.load()) -
                       clockPairNs() * static_cast<double>(calls.load());
    return std::max(net, 0.0) / acc;
}

TimedDetector::TimedDetector(std::unique_ptr<cord::Detector> inner,
                             LayerClock &clock)
    : Detector(inner->name()), owned_(std::move(inner)),
      inner_(owned_.get()), clock_(clock)
{
}

TimedDetector::TimedDetector(cord::Detector &inner, LayerClock &clock)
    : Detector(inner.name()), inner_(&inner), clock_(clock)
{
}

TimedDetector::~TimedDetector()
{
    clock_.ns += ns_;
    clock_.calls += calls_;
    clock_.accesses += accesses_;
}

void
TimedDetector::onAccess(const cord::MemEvent &ev)
{
    const auto t0 = Clock::now();
    inner_->onAccess(ev);
    ns_ += nsSince(t0);
    ++calls_;
    ++accesses_;
}

void
TimedDetector::onThreadEnd(cord::ThreadId tid, std::uint64_t totalInstrs)
{
    const auto t0 = Clock::now();
    inner_->onThreadEnd(tid, totalInstrs);
    ns_ += nsSince(t0);
    ++calls_;
}

void
TimedDetector::finish()
{
    const auto t0 = Clock::now();
    inner_->finish();
    ns_ += nsSince(t0);
    ++calls_;
    report_ = inner_->races();
    stats_ = inner_->stats();
}

cord::DetectorGeometry
TimedDetector::geometry() const
{
    return inner_->geometry();
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        // harness, campaign
        {"harness.pool_busy_pct", "%"},
        {"harness.watchdog_share_pct", "%"},
        {"harness.census_ms", "ms"},
        {"harness.runs", "count"},
        {"harness.timeouts", "count"},
        // detectors inside campaign runs
        {"cord.passive_ns_per_access", "ns"},
        {"vc.ns_per_access", "ns"},
        {"sim.residual_ns_per_access", "ns"},
        {"cord_problem_pct", "%"},
        // sim / cpu, record baseline runs
        {"sim.ns_per_event", "ns"},
        {"sim.events_per_access", "event/access"},
        // cord timing-coupled, record
        {"cord.timed_ns_per_access", "ns"},
        {"prof.kernel_dispatch_ns_per_access", "ns"},
        {"prof.mem_service_ns_per_access", "ns"},
        {"prof.cord_check_ns_per_access", "ns"},
        {"prof.cord_log_ns_per_access", "ns"},
        {"prof.cord_timestamp_ns_per_access", "ns"},
        {"prof.cord_history_ns_per_access", "ns"},
        {"cord.race_checks_per_kaccess", "count/kaccess"},
        {"cord.filtered_check_pct", "%"},
        {"cord.memts_updates_per_kaccess", "count/kaccess"},
        {"cord.folds.invalidation", "count"},
        {"cord.folds.line_displacement", "count"},
        {"cord.folds.entry_displacement", "count"},
        {"cord.folds.walker_eviction", "count"},
        {"mem.addr_bus_busy_cycles", "cycles"},
        {"mem.addr_bus_wait_cycles", "cycles"},
        {"replay.ns_per_access", "ns"},
        {"log.encode_ns_per_entry", "ns"},
        {"cord_overhead_pct", "%"},
        {"log_bytes_per_kinstr", "B/kinstr"},
        // analysis, offline
        {"analysis.decode_ns_per_access", "ns"},
        {"analysis.lint_ns_per_access", "ns"},
        {"analysis.epoch_ns_per_access", "ns"},
        {"analysis.hb_ns_per_access", "ns"},
        {"analysis.predict_ns_per_access", "ns"},
        {"analysis.epoch_speedup", "x"},
        {"analysis.epoch_speedup.radix", "x"},
        {"analysis.epoch_speedup.ocean", "x"},
        {"analysis.epoch_speedup.cholesky", "x"},
        {"analysis.epoch_speedup.water-n2", "x"},
        {"ideal.ns_per_access", "ns"},
        {"cord.stream_ns_per_access", "ns"},
        // every workload
        {"trace.overhead_accesses_per_s", "1/s"},
    };
    return m;
}

} // namespace cordbench
