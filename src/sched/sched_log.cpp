#include "sched/sched_log.h"

#include <cstdio>

#include "cord/log_codec.h"
#include "sim/logging.h"

namespace cord
{

namespace
{

constexpr std::uint8_t kMagic[4] = {'C', 'S', 'L', '1'};
constexpr std::uint64_t kVersion = 1;

bool
fail(std::string *err, const std::string &what)
{
    if (err)
        *err = what;
    return false;
}

} // namespace

std::vector<std::uint8_t>
encodeScheduleLog(const ScheduleLog &log)
{
    std::vector<std::uint8_t> out;
    out.reserve(32 + log.size());
    out.insert(out.end(), kMagic, kMagic + 4);
    putVarint(out, kVersion);
    putVarint(out, log.policyKind);
    putVarint(out, log.seed);
    putVarint(out, log.numThreads);
    putVarint(out, log.signature);
    putVarint(out, log.size());
    for (const ScheduleDecision &d : log.entries()) {
        cord_assert(d.value <= (~std::uint64_t{0} >> 1),
                    "schedule decision value overflows the tag bit");
        putVarint(out, (d.value << 1) |
                           static_cast<std::uint64_t>(d.point));
    }
    return out;
}

bool
decodeScheduleLog(const std::vector<std::uint8_t> &bytes,
                  ScheduleLog &out, std::string *err)
{
    out.clear();
    if (bytes.size() < 4 || bytes[0] != kMagic[0] ||
        bytes[1] != kMagic[1] || bytes[2] != kMagic[2] ||
        bytes[3] != kMagic[3])
        return fail(err, "not a cord-schedlog-v1 file (bad magic)");
    std::size_t off = 4;
    std::uint64_t version = 0, count = 0;
    if (!getVarint(bytes, off, version))
        return fail(err, "truncated header (version)");
    if (version != kVersion)
        return fail(err, "unsupported schedule-log version " +
                             std::to_string(version));
    if (!getVarint(bytes, off, out.policyKind) ||
        !getVarint(bytes, off, out.seed) ||
        !getVarint(bytes, off, out.numThreads) ||
        !getVarint(bytes, off, out.signature) ||
        !getVarint(bytes, off, count))
        return fail(err, "truncated header");
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t packed = 0;
        if (!getVarint(bytes, off, packed))
            return fail(err, "truncated at decision #" +
                                 std::to_string(i) + " of " +
                                 std::to_string(count));
        out.push(static_cast<SchedPoint>(packed & 1), packed >> 1);
    }
    if (off != bytes.size())
        return fail(err, std::to_string(bytes.size() - off) +
                             " trailing bytes after the last decision");
    return true;
}

void
saveScheduleLog(const ScheduleLog &log, const std::string &path)
{
    const std::vector<std::uint8_t> bytes = encodeScheduleLog(log);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        cord_fatal("cannot open '", path, "' for writing");
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (written != bytes.size())
        cord_fatal("short write to '", path, "'");
}

bool
loadScheduleLog(const std::string &path, ScheduleLog &out,
                std::string *err)
{
    std::vector<std::uint8_t> bytes;
    if (!readFileBytes(path, bytes, err))
        return false;
    return decodeScheduleLog(bytes, out, err);
}

} // namespace cord
