/**
 * @file
 * Unit tests for the access-trace tooling (harness/trace.h): binary
 * round trip, file I/O, offline detector equivalence (a detector
 * driven from a trace must report exactly what it reported online),
 * and the decoder's handling of damaged input: every malformed buffer
 * is reported through the non-fatal decoder, and a seeded mutation
 * fuzz checks that no mutant of a real recording crashes it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "harness/runner.h"
#include "harness/trace.h"
#include "inject/injector.h"
#include "mutation.h"
#include "sim/rng.h"

namespace cord
{
namespace
{

TEST(Trace, EncodeDecodeRoundTrip)
{
    TraceRecorder rec;
    MemEvent ev;
    ev.tick = 5;
    ev.tid = 2;
    ev.core = 1;
    ev.addr = 0x1234;
    ev.kind = AccessKind::SyncWrite;
    ev.instrCount = 99;
    ev.value = 0xdeadbeef;
    rec.onAccess(ev);
    ev.tick = 6;
    ev.kind = AccessKind::DataRead;
    rec.onAccess(ev);
    rec.onThreadEnd(2, 100);

    const DecodedTrace dec = decodeTrace(encodeTrace(rec));
    ASSERT_EQ(dec.events.size(), 2u);
    EXPECT_EQ(dec.events[0].tick, 5u);
    EXPECT_EQ(dec.events[0].tid, 2);
    EXPECT_EQ(dec.events[0].core, 1);
    EXPECT_EQ(dec.events[0].addr, 0x1234u);
    EXPECT_EQ(dec.events[0].kind, AccessKind::SyncWrite);
    EXPECT_EQ(dec.events[0].instrCount, 99u);
    EXPECT_EQ(dec.events[0].value, 0xdeadbeefu);
    EXPECT_EQ(dec.events[1].kind, AccessKind::DataRead);
    ASSERT_EQ(dec.threadEnds.size(), 1u);
    EXPECT_EQ(dec.threadEnds[0].first, 2);
    EXPECT_EQ(dec.threadEnds[0].second, 100u);
}

TEST(Trace, CorruptBufferIsFatal)
{
    std::vector<std::uint8_t> junk(24, 0xab);
    EXPECT_EXIT(decodeTrace(junk), ::testing::ExitedWithCode(1),
                "bad magic");
}

TEST(Trace, OfflineDetectionMatchesOnline)
{
    // Run an injected workload online with CORD + Ideal + recorder,
    // then re-drive fresh detector instances from the trace: the race
    // counts and the order log must match exactly.
    RemoveOneInstance filter({1, 3});
    TraceRecorder trace;
    CordConfig cc;
    CordDetector onlineCord(cc);
    IdealDetector onlineIdeal(4);

    RunSetup run;
    run.workload = "cholesky";
    run.params.seed = 23;
    run.filter = &filter;
    run.maxTicks = 500000000ULL;
    run.detectors = {&trace, &onlineCord, &onlineIdeal};
    const RunOutcome out = runWorkload(run);
    ASSERT_TRUE(out.completed);

    const DecodedTrace dec = decodeTrace(encodeTrace(trace));
    EXPECT_EQ(dec.events.size(), out.accesses);

    CordDetector offlineCord(cc);
    IdealDetector offlineIdeal(4);
    runDetectorOnTrace(dec, offlineCord);
    runDetectorOnTrace(dec, offlineIdeal);

    EXPECT_EQ(offlineCord.races().pairs(), onlineCord.races().pairs());
    EXPECT_EQ(offlineIdeal.races().pairs(),
              onlineIdeal.races().pairs());
    EXPECT_EQ(offlineCord.orderLog().size(),
              onlineCord.orderLog().size());
    for (std::size_t i = 0; i < offlineCord.orderLog().size(); ++i) {
        EXPECT_EQ(offlineCord.orderLog().entries()[i].clock,
                  onlineCord.orderLog().entries()[i].clock);
    }
}

TEST(Trace, FileRoundTrip)
{
    TraceRecorder rec;
    MemEvent ev;
    ev.addr = 0x42;
    ev.kind = AccessKind::DataWrite;
    for (int i = 0; i < 100; ++i) {
        ev.tick = i;
        ev.instrCount = i + 1;
        rec.onAccess(ev);
    }
    const std::string path = ::testing::TempDir() + "/cord_trace.bin";
    saveTrace(rec, path);
    DecodedTrace dec;
    std::string err;
    ASSERT_TRUE(loadTrace(path, dec, &err)) << err;
    EXPECT_EQ(dec.events.size(), 100u);
    EXPECT_EQ(dec.events[99].tick, 99u);
    std::remove(path.c_str());
}

/** A small but real recording: two threads' accesses and ends. */
std::vector<std::uint8_t>
smallTrace()
{
    TraceRecorder rec;
    MemEvent ev;
    for (int i = 0; i < 6; ++i) {
        ev.tick = i;
        ev.tid = static_cast<ThreadId>(i % 2);
        ev.addr = 0x40 * i;
        ev.kind = (i % 3 == 0) ? AccessKind::SyncWrite
                               : AccessKind::DataRead;
        ev.instrCount = i + 1;
        rec.onAccess(ev);
    }
    rec.onThreadEnd(0, 10);
    rec.onThreadEnd(1, 12);
    return encodeTrace(rec);
}

/** Decode @p bytes expecting rejection; returns the message. */
std::string
rejection(const std::vector<std::uint8_t> &bytes)
{
    DecodedTrace out;
    std::string err;
    EXPECT_FALSE(decodeTrace(bytes, out, &err));
    EXPECT_FALSE(err.empty());
    return err;
}

TEST(Trace, SmallTraceDecodes)
{
    DecodedTrace out;
    std::string err;
    ASSERT_TRUE(decodeTrace(smallTrace(), out, &err)) << err;
    EXPECT_EQ(out.events.size(), 6u);
    EXPECT_EQ(out.threadEnds.size(), 2u);
}

TEST(Trace, TruncatedBy17BytesIsReported)
{
    std::vector<std::uint8_t> bytes = smallTrace();
    bytes.resize(bytes.size() - 17);
    EXPECT_NE(rejection(bytes).find("truncated"), std::string::npos);
}

TEST(Trace, FlippedHighBitOfEventCountIsReported)
{
    // Byte 15 is the most significant byte of the little-endian event
    // count: the count now claims ~2^63 events.
    std::vector<std::uint8_t> bytes = smallTrace();
    bytes[15] ^= 0x80;
    EXPECT_NE(rejection(bytes).find("declares"), std::string::npos);
}

TEST(Trace, TrailingByteIsReported)
{
    std::vector<std::uint8_t> bytes = smallTrace();
    bytes.push_back(0);
    EXPECT_NE(rejection(bytes).find("1 trailing bytes"), std::string::npos);
}

TEST(Trace, BadAccessKindIsReported)
{
    std::vector<std::uint8_t> bytes = smallTrace();
    bytes[24 + 36] = 0xff; // kind byte of event #0
    EXPECT_NE(rejection(bytes).find("bad access kind"), std::string::npos);
}

TEST(Trace, DirectoryPathIsReported)
{
    const std::string dir = ::testing::TempDir() + "/cord_trace_dir";
    std::filesystem::create_directories(dir);
    DecodedTrace out;
    std::string err;
    EXPECT_FALSE(loadTrace(dir, out, &err));
    EXPECT_NE(err.find("cannot read"), std::string::npos) << err;
    std::filesystem::remove(dir);
}

TEST(TraceFuzz, MutatedRecordingDecodesOrIsRejected)
{
    TraceRecorder rec;
    RunSetup run;
    run.workload = "fft";
    run.params.seed = 11;
    run.detectors = {&rec};
    ASSERT_TRUE(runWorkload(run).completed);
    const std::vector<std::uint8_t> wire = encodeTrace(rec);
    // Keep the fuzz loop cheap: a prefix of the run's accesses, re-
    // encoded, is still a real recording.
    TraceRecorder head;
    for (std::size_t i = 0; i < rec.events().size() && i < 512; ++i)
        head.onAccess(rec.events()[i]);
    for (const auto &[tid, instrs] : rec.threadEnds())
        head.onThreadEnd(tid, instrs);
    const std::vector<std::uint8_t> base = encodeTrace(head);
    DecodedTrace clean;
    ASSERT_TRUE(decodeTrace(wire, clean));
    ASSERT_TRUE(decodeTrace(base, clean));

    Rng rng(0x7face0de);
    std::size_t rejected = 0;
    for (int m = 0; m < 2000; ++m) {
        std::vector<std::uint8_t> bytes = base;
        const std::uint64_t rounds = 1 + rng.below(3);
        for (std::uint64_t r = 0; r < rounds; ++r)
            mutateBytes(bytes, rng);

        DecodedTrace out;
        std::string err;
        if (decodeTrace(bytes, out, &err)) {
            // A decoded mutant accounts for every byte it was given.
            EXPECT_EQ(bytes.size(), 24 + out.events.size() * 40 +
                                        out.threadEnds.size() * 10)
                << "mutant " << m;
        } else {
            EXPECT_FALSE(err.empty()) << "mutant " << m;
            ++rejected;
        }
    }
    // Truncations and insertions change the length, which the header
    // counts pin exactly, so most mutants must be rejected.
    EXPECT_GT(rejected, 1000u);
}

} // namespace
} // namespace cord
