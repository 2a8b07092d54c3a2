/**
 * @file
 * Access-trace tooling: record the committed access stream of a run to
 * a compact binary buffer or file, and re-drive detectors from it
 * offline.  Useful for (a) regression-testing detectors on frozen
 * interleavings and (b) comparing many detector configurations without
 * re-simulating the machine.
 */

#ifndef CORD_HARNESS_TRACE_H
#define CORD_HARNESS_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "cord/detector.h"
#include "mem/access.h"

namespace cord
{

/** A detector that records every committed access. */
class TraceRecorder : public Detector
{
  public:
    TraceRecorder() : Detector("trace") {}

    void
    onAccess(const MemEvent &ev) override
    {
        events_.push_back(ev);
    }

    void
    onThreadEnd(ThreadId tid, std::uint64_t totalInstrs) override
    {
        threadEnds_.emplace_back(tid, totalInstrs);
    }

    const std::vector<MemEvent> &events() const { return events_; }

    const std::vector<std::pair<ThreadId, std::uint64_t>> &
    threadEnds() const
    {
        return threadEnds_;
    }

  private:
    std::vector<MemEvent> events_;
    std::vector<std::pair<ThreadId, std::uint64_t>> threadEnds_;
};

/** Serialize a trace to a binary byte buffer. */
std::vector<std::uint8_t> encodeTrace(const TraceRecorder &trace);

/** Decoded trace contents. */
struct DecodedTrace
{
    std::vector<MemEvent> events;
    std::vector<std::pair<ThreadId, std::uint64_t>> threadEnds;
};

/**
 * Parse a binary trace buffer.  The header's counts are checked against
 * the buffer size before anything is reserved or read, so truncation,
 * trailing bytes and damaged counts are reported, whatever the
 * CORD_ASSERT_LEVEL.
 * @return false (with @p err set when non-null) on malformed input
 */
bool decodeTrace(const std::vector<std::uint8_t> &bytes, DecodedTrace &out,
                 std::string *err = nullptr);

/** Parse a binary trace buffer (fatal on malformed input). */
DecodedTrace decodeTrace(const std::vector<std::uint8_t> &bytes);

/** Encode @p trace and write it to @p path (fatal on I/O error). */
void saveTrace(const TraceRecorder &trace, const std::string &path);

/**
 * Read and decode the trace file @p path.
 * @return false (with @p err set when non-null) when the file cannot
 *         be read or does not decode
 */
bool loadTrace(const std::string &path, DecodedTrace &out,
               std::string *err = nullptr);

/** Drive a detector from a decoded trace (offline detection). */
void runDetectorOnTrace(const DecodedTrace &trace, Detector &detector);

} // namespace cord

#endif // CORD_HARNESS_TRACE_H
