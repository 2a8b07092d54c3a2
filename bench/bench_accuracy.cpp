/**
 * @file
 * Figures 10 and 12-17 and the ablation of CORD's design choices, all
 * from one injection campaign per app.  Every figure uses the paper's
 * Section 4 methodology, and the detectors are passive observers of
 * the same committed access stream, so a single run carrying the union
 * of the figures' detectors gives each one the counts it would get
 * alone.  One CORD D=16 instance serves Figure 12/13's "CORD", Figure
 * 16/17's "D16" and the ablation's "CORD" column.
 *
 * Sections, in print order (paper findings in brackets):
 *   Figure 10  injected sync removals causing >=1 race, per Ideal
 *              [strongly app-dependent: many removals are redundant]
 *   Figure 12  CORD problem detection vs VC-L2Cache and vs Ideal
 *              [~83% and ~77%; water-n2 is the hard case]
 *   Figure 13  the same for raw races [CORD's raw rate ~20% of Ideal]
 *   Figure 14  vector clocks with InfCache / L2Cache / L1Cache
 *              histories, problems vs Ideal [only L1 loses many]
 *   Figure 15  the same for raw races [most raw races are missed]
 *   Figure 16  scalar clocks, D in {1, 4, 16, 256}, problems vs
 *              VC-L2Cache [steep gain up to D = 16]
 *   Figure 17  the same for raw races
 *   Ablation   two timestamps per line vs one (Section 2.3), check
 *              filters off (Section 2.7.2), memory timestamps off
 *              (Section 2.5), no migration bump (Section 2.7.4)
 */

#include <cstdio>

#include "bench_common.h"

using namespace cord;

namespace
{

using Results = std::vector<std::pair<std::string, CampaignResult>>;

const std::string kCord = "CORD-D16";
const std::string kVcL2 = "VC-L2Cache";

/**
 * What a table counts: problems (manifested injections a detector
 * caught) or raw races (racing pairs), each against Ideal's total.
 */
struct Measure
{
    const char *baseHeader; //!< column holding Ideal's total
    std::uint64_t (*ideal)(const CampaignResult &);
    std::uint64_t (*count)(const CampaignResult &, const std::string &);
    double (CampaignResult::*vsIdeal)(const std::string &) const;
    double (CampaignResult::*vs)(const std::string &,
                                 const std::string &) const;

    /** @p label's rate relative to detector @p ref ("" = Ideal). */
    double
    rate(const CampaignResult &r, const std::string &label,
         const std::string &ref) const
    {
        return ref.empty() ? (r.*vsIdeal)(label) : (r.*vs)(label, ref);
    }
};

template <typename Map>
std::uint64_t
countOf(const Map &m, const std::string &label)
{
    const auto it = m.find(label);
    return it == m.end() ? 0 : it->second;
}

const Measure kProblems{
    "Manifested",
    [](const CampaignResult &r) -> std::uint64_t { return r.manifested; },
    [](const CampaignResult &r, const std::string &l) {
        return countOf(r.problems, l);
    },
    &CampaignResult::problemRateVsIdeal, &CampaignResult::problemRateVs};

const Measure kRaw{
    "IdealRaces",
    [](const CampaignResult &r) { return r.idealRawRaces; },
    [](const CampaignResult &r, const std::string &l) {
        return countOf(r.rawRaces, l);
    },
    &CampaignResult::rawRateVsIdeal, &CampaignResult::rawRateVs};

std::string
averagePercent(const Results &results, const Measure &m,
               const std::string &label, const std::string &ref)
{
    return TextTable::percent(bench::averageOver(
        results,
        [&](const CampaignResult &r) { return m.rate(r, label, ref); }));
}

void
figure10(const Results &results)
{
    std::printf("CORD reproduction -- Figure 10\n");
    TextTable t({"App", "Injections", "Manifested", "Rate", "Timeouts",
                 "SyncInstances"});
    for (const auto &[app, r] : results) {
        t.addRow({app, std::to_string(r.injections),
                  std::to_string(r.manifested),
                  TextTable::percent(r.manifestationRate()),
                  std::to_string(r.timeouts),
                  std::to_string(r.totalInstances)});
    }
    const double avg = bench::averageOver(
        results, [](const CampaignResult &r) {
            return r.manifestationRate();
        });
    t.addRow({"Average", "", "", TextTable::percent(avg), "", ""});
    t.print("Figure 10: injected sync removals causing >=1 data race "
            "(per Ideal)");
}

/** Figures 12 and 13: CORD and VC-L2Cache counts, then CORD's rate
 *  against each of VC-L2Cache and Ideal. */
void
cordVsVcTable(const Results &results, const Measure &m,
              const char *cordHeader, const char *vcHeader,
              const std::string &title)
{
    TextTable t({"App", m.baseHeader, cordHeader, vcHeader,
                 "vs VectorClock", "vs Ideal"});
    for (const auto &[app, r] : results) {
        t.addRow({app, std::to_string(m.ideal(r)),
                  std::to_string(m.count(r, kCord)),
                  std::to_string(m.count(r, kVcL2)),
                  TextTable::percent(m.rate(r, kCord, kVcL2)),
                  TextTable::percent(m.rate(r, kCord, ""))});
    }
    t.addRow({"Average", "", "", "",
              averagePercent(results, m, kCord, kVcL2),
              averagePercent(results, m, kCord, "")});
    t.print(title);
}

/** One column per detector in @p labels (headed by @p columns): its
 *  rate against @p ref ("" = Ideal).  @p withBase adds Ideal's total
 *  after the app name; @p withAverage appends the per-app mean. */
void
rateTable(const Results &results, const Measure &m,
          const std::vector<std::string> &labels,
          const std::vector<std::string> &columns, const std::string &ref,
          bool withBase, bool withAverage, const std::string &title)
{
    std::vector<std::string> headers{"App"};
    if (withBase)
        headers.push_back(m.baseHeader);
    headers.insert(headers.end(), columns.begin(), columns.end());
    TextTable t(headers);
    for (const auto &[app, r] : results) {
        std::vector<std::string> row{app};
        if (withBase)
            row.push_back(std::to_string(m.ideal(r)));
        for (const std::string &l : labels)
            row.push_back(TextTable::percent(m.rate(r, l, ref)));
        t.addRow(row);
    }
    if (withAverage) {
        std::vector<std::string> avgRow{"Average"};
        if (withBase)
            avgRow.emplace_back();
        for (const std::string &l : labels)
            avgRow.push_back(averagePercent(results, m, l, ref));
        t.addRow(avgRow);
    }
    t.print(title);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);

    CordConfig oneEntry; // D = 16, 2 entries/line, filters, memTs on
    oneEntry.entriesPerLine = 1;
    CordConfig noFilters;
    noFilters.checkFilterBits = false;
    CordConfig noMemTs;
    noMemTs.memTimestamps = false;
    CordConfig noMigration;
    noMigration.migrationIncrement = false;

    const Results results = bench::runAllCampaigns(
        {cordSpec(1), cordSpec(4), cordSpec(16), cordSpec(256),
         cordSpecWith(oneEntry, "1-entry/line"),
         cordSpecWith(noFilters, "no-filters"),
         cordSpecWith(noMemTs, "no-memTs"),
         cordSpecWith(noMigration, "no-migration"), vcInfCacheSpec(),
         vcL2CacheSpec(), vcL1CacheSpec()});

    figure10(results);

    std::printf("CORD reproduction -- Figure 12\n");
    cordVsVcTable(results, kProblems, "CORD", "VC-L2",
                  "Figure 12: problem detection rate "
                  "(paper: 83% vs vector clock, 77% vs Ideal)");
    std::printf("CORD reproduction -- Figure 13\n");
    cordVsVcTable(results, kRaw, "CORDRaces", "VCRaces",
                  "Figure 13: raw data race detection rate "
                  "(paper: ~20% of Ideal)");

    const std::vector<std::string> vcLabels{"VC-InfCache", "VC-L2Cache",
                                            "VC-L1Cache"};
    const std::vector<std::string> vcColumns{"InfCache", "L2Cache",
                                             "L1Cache"};
    std::printf("CORD reproduction -- Figure 14\n");
    rateTable(results, kProblems, vcLabels, vcColumns, "", true, true,
              "Figure 14: problem detection vs Ideal with limited access "
              "histories (vector clocks)");
    std::printf("CORD reproduction -- Figure 15\n");
    rateTable(results, kRaw, vcLabels, vcColumns, "", true, true,
              "Figure 15: raw race detection vs Ideal with limited "
              "access histories (vector clocks)");

    const std::vector<std::string> dLabels{"CORD-D1", "CORD-D4", kCord,
                                           "CORD-D256"};
    const std::vector<std::string> dColumns{"D1", "D4", "D16", "D256"};
    std::printf("CORD reproduction -- Figure 16\n");
    rateTable(results, kProblems, dLabels, dColumns, kVcL2, true, true,
              "Figure 16: problem detection with scalar clocks vs "
              "VC-L2Cache (D sweep)");
    std::printf("CORD reproduction -- Figure 17\n");
    rateTable(results, kRaw, dLabels, dColumns, kVcL2, true, true,
              "Figure 17: raw race detection with scalar clocks vs "
              "VC-L2Cache (D sweep)");

    const std::vector<std::string> ablationLabels{
        kCord, "1-entry/line", "no-filters", "no-memTs", "no-migration"};
    const std::vector<std::string> ablationColumns{
        "CORD", "1-entry/line", "no-filters", "no-memTs", "no-migration"};
    std::printf("CORD reproduction -- ablation of CORD design choices\n");
    rateTable(results, kProblems, ablationLabels, ablationColumns, "",
              false, true, "Ablation: problem detection vs Ideal");
    rateTable(results, kRaw, ablationLabels, ablationColumns, "", false,
              false, "Ablation: raw race detection vs Ideal");
    std::printf("\nNotes: a filtered access also skips the memory-timestamp"
                " order compare, so no-filters can differ; with memory"
                " timestamps off the two match.\n"
                "Disabling memory timestamps silently drops displaced"
                " histories; order-recording would be incorrect\n"
                "(see CordScenario.MemTimestampDisabledLosesOrdering in"
                " tests/cord_detector_test.cpp), while detection changes"
                " little.\n");
    return 0;
}
