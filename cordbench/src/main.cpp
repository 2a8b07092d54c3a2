/**
 * @file
 * cordbench: the repository benchmark program (see ../README.md).
 *
 *   cordbench --workload campaign|record|offline --seed N --seconds S
 *             --trace 0|1 [--tiny] [--corrupt-log] [--workdir DIR]
 *
 * Prints progress on stderr and, as the last line of stdout, one JSON
 * object {"correct", "attempted", "failed", "metrics"}.  A malformed
 * argument or an unknown workload is a one-line error and exit 2.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

#include "common.h"

namespace
{

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "cordbench: %s\n", msg.c_str());
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const char *text)
{
    std::uint64_t v = 0;
    const char *end = text + std::strlen(text);
    const auto [p, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || p != end || p == text)
        usageError(flag + " needs an unsigned integer, got '" + text +
                   "'");
    return v;
}

double
parseSeconds(const char *text)
{
    double v = 0.0;
    const char *end = text + std::strlen(text);
    const auto [p, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || p != end || p == text || !std::isfinite(v) ||
        v <= 0.0 || v > 3600.0)
        usageError(std::string("--seconds needs a number in (0, 3600], "
                               "got '") +
                   text + "'");
    return v;
}

cordbench::Options
parseArgs(int argc, char **argv)
{
    cordbench::Options o;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
            if (o.workload != "campaign" && o.workload != "record" &&
                o.workload != "offline")
                usageError("unknown workload '" + o.workload +
                           "' (campaign, record, offline)");
        } else if (arg == "--seed") {
            o.seed = parseU64(arg, value());
            haveSeed = true;
        } else if (arg == "--seconds") {
            o.seconds = parseSeconds(value());
            haveSeconds = true;
        } else if (arg == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                usageError("--trace needs 0 or 1, got '" + t + "'");
            o.trace = t == "1";
            haveTrace = true;
        } else if (arg == "--tiny") {
            o.tiny = true;
        } else if (arg == "--corrupt-log") {
            o.corruptLog = true;
        } else if (arg == "--workdir") {
            o.workdir = value();
        } else {
            usageError("unknown argument '" + arg + "'");
        }
    }
    if (o.workload.empty())
        usageError("--workload is required");
    if (!haveSeed || !haveSeconds || !haveTrace)
        usageError("--seed, --seconds and --trace are required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const cordbench::Options opt = parseArgs(argc, argv);
    cordbench::Report r;
    if (opt.trace)
        for (const auto &[name, unit] : cordbench::perLayerMetrics())
            r.metric(name, 0.0, unit);

    if (opt.workload == "campaign")
        cordbench::runCampaignWorkload(opt, r);
    else if (opt.workload == "record")
        cordbench::runRecordWorkload(opt, r);
    else
        cordbench::runOfflineWorkload(opt, r);

    std::printf("%s\n", r.json().c_str());
    std::fflush(stdout);
    return 0;
}
