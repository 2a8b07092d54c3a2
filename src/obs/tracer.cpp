#include "obs/tracer.h"

#include <cstdio>
#include <set>

#include "obs/json.h"
#include "sim/logging.h"

namespace cord
{

namespace
{

/** Which Chrome-trace process a kind's track belongs to. */
enum TrackPid : int
{
    kPidCpu = 0,
    kPidThreads = 1,
    kPidBuses = 2,
};

struct KindInfo
{
    const char *name;
    const char *category;
    int pid;
    const char *argA;
    const char *argB;
};

constexpr KindInfo kKinds[kTraceEventKinds] = {
    {"clock_update", "cord", kPidThreads, "clock", "prev"},
    {"race_report", "cord", kPidThreads, "addr", "conflictTs"},
    {"log_append", "cord", kPidThreads, "clock", "entries"},
    {"history_lookup", "cord", kPidCpu, "addr", "write"},
    {"history_displacement", "cord", kPidCpu, "addr", "ts"},
    {"bus_transaction", "mem", kPidBuses, "waitCycles", "occupancy"},
    {"cache_fill", "mem", kPidCpu, "addr", "source"},
    {"cache_evict", "mem", kPidCpu, "addr", "dirty"},
    {"sync_acquire", "sync", kPidThreads, "addr", "clock"},
    {"sync_release", "sync", kPidThreads, "addr", "clock"},
    {"sched_decision", "sched", kPidThreads, "kind", "value"},
};

const char *kBusNames[] = {"addr/ts bus", "data bus", "mem bus"};

void
writeMetaEvent(JsonWriter &w, const char *name, int pid, int tid,
               const std::string &label)
{
    w.beginObject();
    w.field("name", name);
    w.field("ph", "M");
    w.field("pid", pid);
    if (tid >= 0)
        w.field("tid", tid);
    w.key("args");
    w.beginObject();
    w.field("name", label);
    w.endObject();
    w.endObject();
}

} // namespace

const char *
traceEventKindName(TraceEventKind k)
{
    const unsigned i = static_cast<unsigned>(k);
    cord_assert(i < kTraceEventKinds, "bad trace event kind ", i);
    return kKinds[i].name;
}

std::vector<TraceEvent>
EventTracer::snapshot() const
{
    std::vector<TraceEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    const std::uint64_t first = total_ - n;
    for (std::uint64_t i = 0; i < n; ++i)
        out.push_back(ring_[(first + i) % capacity_]);
    return out;
}

std::string
renderChromeTrace(const EventTracer &tracer)
{
    const std::vector<TraceEvent> events = tracer.snapshot();

    // Collect the tracks in use so every one gets a name.
    std::set<std::pair<int, int>> tracks;
    for (const TraceEvent &ev : events) {
        const KindInfo &ki = kKinds[static_cast<unsigned>(ev.kind)];
        const int tid = ki.pid == kPidThreads ? ev.tid : ev.core;
        tracks.insert({ki.pid, tid});
    }

    JsonWriter w;
    w.beginObject();
    w.field("displayTimeUnit", "ns");
    w.key("cordTrace");
    w.beginObject();
    w.field("schema", "cord-trace-v1");
    w.field("totalEvents", tracer.total());
    w.field("droppedEvents", tracer.dropped());
    w.key("countsByKind");
    w.beginObject();
    for (unsigned k = 0; k < kTraceEventKinds; ++k)
        w.field(kKinds[k].name,
                tracer.count(static_cast<TraceEventKind>(k)));
    w.endObject();
    w.endObject();
    w.key("traceEvents");
    w.beginArray();

    writeMetaEvent(w, "process_name", kPidCpu, -1, "cpu");
    writeMetaEvent(w, "process_name", kPidThreads, -1, "threads");
    writeMetaEvent(w, "process_name", kPidBuses, -1, "buses");
    for (const auto &[pid, tid] : tracks) {
        std::string label;
        switch (pid) {
          case kPidCpu:
            label = "core " + std::to_string(tid);
            break;
          case kPidThreads:
            label = "thread " + std::to_string(tid);
            break;
          default:
            label = tid < 3 ? kBusNames[tid]
                            : "bus " + std::to_string(tid);
        }
        writeMetaEvent(w, "thread_name", pid, tid, label);
    }

    for (const TraceEvent &ev : events) {
        const KindInfo &ki = kKinds[static_cast<unsigned>(ev.kind)];
        w.beginObject();
        w.field("name", ki.name);
        w.field("cat", ki.category);
        w.field("ph", "i");
        w.field("s", "t");
        // Timestamps are simulated processor cycles, reported in the
        // JSON microsecond field: 1 us in the viewer == 1 cycle.
        w.field("ts", ev.tick);
        w.field("pid", ki.pid);
        w.field("tid",
                ki.pid == kPidThreads ? static_cast<int>(ev.tid)
                                      : static_cast<int>(ev.core));
        w.key("args");
        w.beginObject();
        w.field(ki.argA, ev.a);
        w.field(ki.argB, ev.b);
        if (ki.pid == kPidThreads)
            w.field("core", static_cast<int>(ev.core));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

void
saveChromeTrace(const EventTracer &tracer, const std::string &path)
{
    const std::string json = renderChromeTrace(tracer);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        cord_fatal("cannot open trace output file ", path);
    const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    if (n != json.size())
        cord_fatal("short write to trace output file ", path);
}

} // namespace cord
