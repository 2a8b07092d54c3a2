#include "harness/trace.h"

#include <cstdio>
#include <cstring>

#include "cord/log_codec.h"
#include "sim/logging.h"

namespace cord
{

namespace
{

constexpr std::uint32_t kMagic = 0xC07D72AC;
constexpr std::uint32_t kVersion = 1;

/** Fixed-size on-disk record (little-endian, packed manually). */
struct WireEvent
{
    std::uint64_t tick;
    std::uint64_t addr;
    std::uint64_t instrCount;
    std::uint64_t value;
    std::uint16_t tid;
    std::uint16_t core;
    std::uint8_t kind;
    std::uint8_t pad[3];
};
static_assert(sizeof(WireEvent) == 40, "unexpected trace record size");

template <typename T>
void
putRaw(std::vector<std::uint8_t> &out, const T &v)
{
    const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof(T));
}

/** Thread-end record: tid (u16) then total instructions (u64). */
constexpr std::size_t kEndWireBytes =
    sizeof(std::uint16_t) + sizeof(std::uint64_t);

/** Read a T at @p off; the caller has checked the bounds. */
template <typename T>
T
readAt(const std::vector<std::uint8_t> &in, std::size_t off)
{
    T v;
    std::memcpy(&v, in.data() + off, sizeof(T));
    return v;
}

bool
fail(std::string *err, const std::string &what)
{
    if (err)
        *err = what;
    return false;
}

} // namespace

std::vector<std::uint8_t>
encodeTrace(const TraceRecorder &trace)
{
    std::vector<std::uint8_t> out;
    out.reserve(32 + trace.events().size() * sizeof(WireEvent));
    putRaw(out, kMagic);
    putRaw(out, kVersion);
    putRaw(out, static_cast<std::uint64_t>(trace.events().size()));
    putRaw(out, static_cast<std::uint64_t>(trace.threadEnds().size()));
    for (const MemEvent &ev : trace.events()) {
        WireEvent w{};
        w.tick = ev.tick;
        w.addr = ev.addr;
        w.instrCount = ev.instrCount;
        w.value = ev.value;
        w.tid = ev.tid;
        w.core = ev.core;
        w.kind = static_cast<std::uint8_t>(ev.kind);
        putRaw(out, w);
    }
    for (const auto &[tid, instrs] : trace.threadEnds()) {
        putRaw(out, static_cast<std::uint16_t>(tid));
        putRaw(out, static_cast<std::uint64_t>(instrs));
    }
    return out;
}

bool
decodeTrace(const std::vector<std::uint8_t> &bytes, DecodedTrace &out,
            std::string *err)
{
    out = DecodedTrace{};
    constexpr std::size_t kHeaderBytes = 24;
    if (bytes.size() < sizeof(kMagic) ||
        readAt<std::uint32_t>(bytes, 0) != kMagic)
        return fail(err, "not a CORD trace (bad magic)");
    if (bytes.size() < kHeaderBytes)
        return fail(err, "truncated trace header (" +
                             std::to_string(bytes.size()) + " bytes)");
    const auto version = readAt<std::uint32_t>(bytes, 4);
    if (version != kVersion)
        return fail(err,
                    "unsupported trace version " + std::to_string(version));
    const auto nEvents = readAt<std::uint64_t>(bytes, 8);
    const auto nEnds = readAt<std::uint64_t>(bytes, 16);

    // Check the declared counts against the bytes actually present
    // before reserving anything: a damaged count must be reported, not
    // turned into a huge allocation or a read past the end.
    const std::size_t body = bytes.size() - kHeaderBytes;
    const std::size_t eventBytes = sizeof(WireEvent);
    if (nEvents > body / eventBytes ||
        nEnds > (body - nEvents * eventBytes) / kEndWireBytes)
        return fail(err, "truncated trace: header declares " +
                             std::to_string(nEvents) + " events and " +
                             std::to_string(nEnds) + " thread ends, but " +
                             std::to_string(body) +
                             " body bytes follow");
    const std::size_t used = nEvents * eventBytes + nEnds * kEndWireBytes;
    if (used != body)
        return fail(err, std::to_string(body - used) +
                             " trailing bytes after the last thread end");

    std::size_t off = kHeaderBytes;
    out.events.reserve(nEvents);
    for (std::uint64_t i = 0; i < nEvents; ++i, off += eventBytes) {
        const auto w = readAt<WireEvent>(bytes, off);
        if (w.kind > static_cast<std::uint8_t>(AccessKind::SyncWrite))
            return fail(err, "corrupt trace: bad access kind " +
                                 std::to_string(w.kind) + " at event #" +
                                 std::to_string(i));
        MemEvent ev;
        ev.tick = w.tick;
        ev.addr = w.addr;
        ev.instrCount = w.instrCount;
        ev.value = w.value;
        ev.tid = w.tid;
        ev.core = w.core;
        ev.kind = static_cast<AccessKind>(w.kind);
        out.events.push_back(ev);
    }
    out.threadEnds.reserve(nEnds);
    for (std::uint64_t i = 0; i < nEnds; ++i, off += kEndWireBytes)
        out.threadEnds.emplace_back(
            readAt<std::uint16_t>(bytes, off),
            readAt<std::uint64_t>(bytes, off + sizeof(std::uint16_t)));
    return true;
}

DecodedTrace
decodeTrace(const std::vector<std::uint8_t> &bytes)
{
    DecodedTrace out;
    std::string err;
    if (!decodeTrace(bytes, out, &err))
        cord_fatal(err);
    return out;
}

void
saveTrace(const TraceRecorder &trace, const std::string &path)
{
    const std::vector<std::uint8_t> bytes = encodeTrace(trace);
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
loadTrace(const std::string &path, DecodedTrace &out, std::string *err)
{
    std::vector<std::uint8_t> bytes;
    if (!readFileBytes(path, bytes, err))
        return false;
    return decodeTrace(bytes, out, err);
}

void
runDetectorOnTrace(const DecodedTrace &trace, Detector &detector)
{
    for (const MemEvent &ev : trace.events)
        detector.onAccess(ev);
    for (const auto &[tid, instrs] : trace.threadEnds)
        detector.onThreadEnd(tid, instrs);
    detector.finish();
}

} // namespace cord
