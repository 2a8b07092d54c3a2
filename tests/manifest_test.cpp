/**
 * @file
 * Run-manifest tests: schema round trip through the JSON parser,
 * byte-identical serialization for same-seed runs (with volatile
 * fields suppressed), and the shared table JSON emitter used by both
 * manifests and --json table output.  A seeded mutation fuzz feeds
 * damaged manifest bytes to the JSON parser, which must parse or reject
 * every mutant with a message.
 */

#include <gtest/gtest.h>

#include "cord/cord_detector.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "mutation.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "sim/rng.h"

using namespace cord;

namespace
{

RunManifest
manifestFromRun(std::uint64_t seed)
{
    CordConfig cc;
    cc.numCores = 4;
    cc.numThreads = 4;
    CordDetector cord(cc);

    RunSetup setup;
    setup.workload = "fft";
    setup.params.numThreads = 4;
    setup.params.scale = 1;
    setup.params.seed = seed;
    setup.detectors = {&cord};
    const RunOutcome out = runWorkload(setup);
    EXPECT_TRUE(out.completed);

    RunManifest m;
    m.tool = "manifest_test";
    m.workload = "fft";
    m.seed = seed;
    m.setConfig("threads", std::uint64_t(4));
    m.setConfig("scale", std::uint64_t(1));
    m.completed = out.completed;
    m.simTicks = out.ticks;
    m.metrics.add("", out.stats);
    m.metrics.add("detector.cord", cord.stats());
    return m;
}

TEST(Manifest, DeterministicForFixedSeed)
{
    const RunManifest a = manifestFromRun(11);
    const RunManifest b = manifestFromRun(11);
    // Volatile fields (timestamp, wallSeconds) suppressed: two runs of
    // the same seed must serialize byte-identically.
    EXPECT_EQ(a.renderJson(/*includeVolatile=*/false),
              b.renderJson(/*includeVolatile=*/false));

    // A different seed must actually change the document (guards
    // against the determinism being "everything is constant").
    const RunManifest c = manifestFromRun(12);
    EXPECT_NE(a.renderJson(false), c.renderJson(false));
}

TEST(Manifest, VolatileFieldsAreOptIn)
{
    RunManifest m;
    m.tool = "t";
    m.wallSeconds = 1.5;
    m.stampTime();
    EXPECT_NE(m.renderJson(true).find("timestamp"), std::string::npos);
    EXPECT_NE(m.renderJson(true).find("wallSeconds"),
              std::string::npos);
    EXPECT_EQ(m.renderJson(false).find("timestamp"), std::string::npos);
    EXPECT_EQ(m.renderJson(false).find("wallSeconds"),
              std::string::npos);
}

TEST(Manifest, JsonSchemaRoundTrip)
{
    RunManifest m = manifestFromRun(5);
    m.lintVerdict = "clean";
    m.tables.push_back({"demo", {"a", "b"}, {{"1", "2"}, {"3", "4"}}});

    std::string err;
    const auto v = JsonValue::parse(m.renderJson(), &err);
    ASSERT_TRUE(v.has_value()) << err;
    ASSERT_TRUE(v->isObject());

    EXPECT_EQ(v->str("schema"), kManifestSchema);
    EXPECT_EQ(v->str("tool"), "manifest_test");
    EXPECT_EQ(v->str("workload"), "fft");
    EXPECT_DOUBLE_EQ(v->num("seed"), 5.0);
    EXPECT_FALSE(v->str("git").empty());
    EXPECT_FALSE(v->str("build").empty());
    EXPECT_TRUE(v->find("completed")->asBool());
    EXPECT_GT(v->num("simTicks"), 0.0);
    EXPECT_EQ(v->str("lint"), "clean");

    const JsonValue *cfg = v->find("config");
    ASSERT_NE(cfg, nullptr);
    EXPECT_EQ(cfg->str("threads"), "4");

    const JsonValue *metrics = v->find("metrics");
    ASSERT_NE(metrics, nullptr);
    const auto flat = flattenMetricsJson(*metrics);
    EXPECT_GT(flat.at("sim.ticks"), 0.0);
    EXPECT_GT(flat.at("sim.committedAccesses"), 0.0);
    EXPECT_GT(flat.at("mem.bus.addr.transactions"), 0.0);
    EXPECT_GT(flat.at("detector.cord.cord.raceChecks"), 0.0);

    const JsonValue *tables = v->find("tables");
    ASSERT_NE(tables, nullptr);
    ASSERT_EQ(tables->size(), 1u);
    const JsonValue &t = tables->items()[0];
    EXPECT_EQ(t.str("title"), "demo");
    ASSERT_EQ(t.find("headers")->size(), 2u);
    ASSERT_EQ(t.find("rows")->size(), 2u);
    EXPECT_EQ(t.find("rows")->items()[1].items()[0].asString(), "3");
}

TEST(JsonFuzz, MutatedManifestParsesOrIsRejected)
{
    const std::string doc = manifestFromRun(11).renderJson();
    ASSERT_TRUE(JsonValue::parse(doc).has_value());
    const std::vector<std::uint8_t> base(doc.begin(), doc.end());

    Rng rng(0x15011f22);
    std::size_t rejected = 0;
    for (int m = 0; m < 2000; ++m) {
        std::vector<std::uint8_t> bytes = base;
        const std::uint64_t rounds = 1 + rng.below(3);
        for (std::uint64_t r = 0; r < rounds; ++r)
            mutateBytes(bytes, rng);

        const std::string text(bytes.begin(), bytes.end());
        std::string err;
        if (!JsonValue::parse(text, &err)) {
            EXPECT_FALSE(err.empty()) << "mutant " << m;
            ++rejected;
        }
    }
    // Almost every truncation cuts the document short.
    EXPECT_GT(rejected, 500u);
}

TEST(Table, JsonOutputMatchesContents)
{
    TextTable t({"App", "N"});
    t.addRow({"fft", "1"});
    t.addRow({"lu", "2"});

    std::string err;
    const auto v = JsonValue::parse(t.renderJson("title x"), &err);
    ASSERT_TRUE(v.has_value()) << err;
    EXPECT_EQ(v->str("title"), "title x");
    ASSERT_EQ(v->find("headers")->size(), 2u);
    EXPECT_EQ(v->find("headers")->items()[0].asString(), "App");
    ASSERT_EQ(v->find("rows")->size(), 2u);
    EXPECT_EQ(v->find("rows")->items()[0].items()[0].asString(), "fft");
    EXPECT_EQ(v->find("rows")->items()[1].items()[1].asString(), "2");

    EXPECT_EQ(t.headers().size(), 2u);
    EXPECT_EQ(t.rows().size(), 2u);
}

} // namespace
