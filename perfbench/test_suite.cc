#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "core/hintm.hh"
#include "sim/snapshot.hh"
#include "suite.hh"
#include "workloads/workloads.hh"

using namespace hintm;
using namespace hintm::perfbench;

TEST(PerfbenchArithmetic, QuantileOfRoundsSummedOverCases)
{
    EXPECT_DOUBLE_EQ(fastest({3.0, 1.5, 2.0}), 1.5);
    const std::vector<std::vector<double>> cases = {
        {3.0, 1.5, 2.0}, {0.25}, {4.0, 5.0}};
    EXPECT_DOUBLE_EQ(sumOfQuantiles(cases, 0.0), 1.5 + 0.25 + 4.0);
    EXPECT_DOUBLE_EQ(sumOfQuantiles(cases, 0.5), 2.0 + 0.25 + 4.5);
    EXPECT_DOUBLE_EQ(sumOfQuantiles(cases, 0.9), 2.8 + 0.25 + 4.9);
    EXPECT_DOUBLE_EQ(sumOfQuantiles(cases, 1.0), 3.0 + 0.25 + 5.0);
}

TEST(PerfbenchArithmetic, QuantileInterpolates)
{
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0, 5.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.9), 4.6);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(quantile({7.0}, 0.9), 7.0);
}

TEST(PerfbenchArithmetic, Geomean)
{
    const std::optional<double> g = geomean({2.0, 8.0});
    ASSERT_TRUE(g);
    EXPECT_NEAR(*g, 4.0, 1e-12);
    EXPECT_FALSE(geomean({}));
    EXPECT_FALSE(geomean({1.0, 0.0}));
    EXPECT_FALSE(geomean({1.0, -2.0}));
}

TEST(PerfbenchArithmetic, HintSpeedupNeedsABaselineFullPair)
{
    using core::Mechanism;
    using htm::HtmKind;
    const CaseSpec full{"kmeans", HtmKind::P8, Mechanism::Full};
    const CaseSpec base{"kmeans", HtmKind::P8, Mechanism::Baseline};
    const CaseSpec base_l1{"kmeans", HtmKind::L1TM, Mechanism::Baseline};
    const CaseSpec full_other{"genome", HtmKind::P8, Mechanism::Full};

    // No pair at all: undefined, never a default 0 or 1.
    EXPECT_FALSE(hintSpeedup({}, {}));
    EXPECT_FALSE(hintSpeedup({full}, {100}));
    EXPECT_FALSE(hintSpeedup({base, base_l1}, {100, 100}));
    // Mechanisms of different kernels or HTMs do not pair up.
    EXPECT_FALSE(hintSpeedup({base, full_other}, {300, 100}));
    EXPECT_FALSE(hintSpeedup({base_l1, full}, {300, 100}));

    const std::optional<double> s = hintSpeedup({base, full}, {300, 100});
    ASSERT_TRUE(s);
    EXPECT_DOUBLE_EQ(*s, 3.0);
    // Unpaired cases are ignored; the geomean runs over pairs only.
    const CaseSpec g_base{"genome", HtmKind::P8, Mechanism::Baseline};
    const std::optional<double> two = hintSpeedup(
        {base, full, g_base, full_other, base_l1}, {400, 100, 100, 100, 9});
    ASSERT_TRUE(two);
    EXPECT_NEAR(*two, 2.0, 1e-12);
    EXPECT_FALSE(hintSpeedup({base, full}, {300, 100}, HtmKind::L1TM));
}

TEST(PerfbenchNames, MetricNameValidity)
{
    for (const char *ok : {"sim_cpu_s", "htm.aborts.fallback_lock",
                           "mem.l1_miss_pct", "a", "0x", "A-b.c_d"})
        EXPECT_TRUE(validMetricName(ok)) << ok;
    for (const char *bad :
         {"", "_lead", ".lead", "-lead", "has space", "x/y", "pct%",
          "quote\"", "ümlaut"})
        EXPECT_FALSE(validMetricName(bad)) << bad;
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(PerfbenchSuite, WorkloadCaseLists)
{
    EXPECT_EQ(workloadCases("contended-64").size(), 6u);
    EXPECT_EQ(workloadCases("hinted-64").size(), 4u);
    EXPECT_EQ(workloadCases("paper-8").size(), 60u);
    EXPECT_EQ(workloadCases("observed-8").size(), 20u);
    EXPECT_TRUE(workloadCases("nope").empty());
    for (const char *w :
         {"contended-64", "hinted-64", "paper-8", "observed-8"}) {
        std::vector<CaseSpec> cases = workloadCases(w);
        std::vector<Cycle> cycles(cases.size(), 1);
        EXPECT_TRUE(hintSpeedup(cases, cycles)) << w;
        for (const CaseSpec &c : cases)
            EXPECT_EQ(c.observed, std::string(w) == "observed-8")
                << c.label();
    }
}

TEST(PerfbenchSuite, FastPathsAreOnByDefault)
{
    EXPECT_TRUE(fastPathsOn());
    core::SystemOptions::setDecodeCacheDefault(false);
    EXPECT_FALSE(fastPathsOn());
    core::SystemOptions::setDecodeCacheDefault(true);
    EXPECT_TRUE(fastPathsOn());
}

TEST(PerfbenchSuite, CountingControllerLeavesTheResultIdentical)
{
    // A tiny convoy: 64 contexts contend for the fallback lock, so the
    // controller sees spins as well as ties.
    workloads::Workload w =
        workloads::byName("intruder@64", workloads::Scale::Tiny);
    core::compileHints(w.module);
    const CaseSpec spec{"intruder@64", htm::HtmKind::P8,
                        core::Mechanism::Baseline, 64, 4};
    sim::MachineConfig cfg = core::makeMachineConfig(spec.options(7));

    sim::SimRun plain(cfg, w.module, w.threads);
    const sim::RunResult a = plain.finish();

    CountingController ctl;
    cfg.scheduleController = &ctl;
    sim::SimRun counted(cfg, w.module, w.threads);
    const sim::RunResult b = counted.finish();

    EXPECT_EQ(resultDigest(a), resultDigest(b));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.committedTxs, b.committedTxs);
    EXPECT_EQ(a.fallbackRuns, b.fallbackRuns);
    EXPECT_EQ(a.finalGlobals, b.finalGlobals);
    for (unsigned r = 0; r < htm::numAbortReasons; ++r) {
        EXPECT_EQ(a.htm.aborts[r], b.htm.aborts[r]);
        EXPECT_EQ(a.htm.cyclesLost[r], b.htm.cyclesLost[r]);
    }
    EXPECT_GT(ctl.tiePicks, 0u);
    EXPECT_GT(ctl.lockSpins, 0u);
    EXPECT_GE(ctl.tieWidthSum, ctl.tiePicks);
}

TEST(PerfbenchSuite, DigestSeesResultFields)
{
    sim::RunResult r;
    r.finalGlobals["g"] = {1, 2};
    const std::uint64_t base = resultDigest(r);
    sim::RunResult c = r;
    c.cycles = 1;
    EXPECT_NE(resultDigest(c), base);
    c = r;
    c.htm.aborts[unsigned(htm::AbortReason::Capacity)] = 1;
    EXPECT_NE(resultDigest(c), base);
    c = r;
    c.finalGlobals["g"][1] = 3;
    EXPECT_NE(resultDigest(c), base);
    c = r;
    c.committedTxs = 1;
    EXPECT_NE(resultDigest(c), base);
}
