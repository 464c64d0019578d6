/**
 * @file
 * Differential test of fallback-lock spin elision. The uncontrolled
 * indexed scheduler parks contexts that find the fallback lock held and
 * replays their periodic re-checks only where they are observable
 * (round-robin cursor, lock release, TLB shootdown, run exit). The
 * controller-driven loop steps every re-check individually, and with
 * DefaultScheduleController it is the reference schedule. On the
 * convoy-heavy 64-context kernels the two must produce the identical
 * RunResult, with enough re-checks in the reference run that the
 * comparison exercises what it guards.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <utility>

#include "../bench/result_store.hh"
#include "core/hintm.hh"
#include "sim/schedule.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

using namespace hintm;

namespace
{

/** The reference schedule, counting its LockSpin decision points. */
class SpinCounter : public sim::DefaultScheduleController
{
  public:
    bool
    onDecision(const sim::SchedDecision &d) override
    {
        if (d.event == sim::SchedEvent::LockSpin)
            ++spins;
        return false;
    }

    std::uint64_t spins = 0;
};

/** 64 cores in 4 NUMA nodes, P8, as in the scaling study. */
core::SystemOptions
convoyOptions(core::Mechanism mech)
{
    core::SystemOptions o;
    o.htmKind = htm::HtmKind::P8;
    o.mechanism = mech;
    o.numCores = 64;
    o.numaNodes = 4;
    o.collectTxSizes = true;
    o.collectRawStats = true;
    return o;
}

/** Run @p cfg with spin elision and under the per-spin reference; the
 * results must be identical. Returns the reference's spin count. */
std::uint64_t
expectElisionExact(sim::MachineConfig cfg, const workloads::Workload &wl,
                   const std::string &what)
{
    EXPECT_TRUE(cfg.schedIndex && !cfg.scheduleController) << what;
    const sim::RunResult elided =
        sim::runMachine(cfg, wl.module, wl.threads);

    SpinCounter ref_ctl;
    cfg.scheduleController = &ref_ctl;
    const sim::RunResult ref = sim::runMachine(cfg, wl.module, wl.threads);

    EXPECT_EQ(elided.cycles, ref.cycles) << what;
    EXPECT_EQ(elided.committedTxs, ref.committedTxs) << what;
    EXPECT_EQ(bench::encodeRunResult(elided), bench::encodeRunResult(ref))
        << what;
    return ref_ctl.spins;
}

class SpinElision : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(SpinElision, MatchesPerSpinReference)
{
    workloads::Workload wl = workloads::byName(GetParam() + "@64",
                                               workloads::Scale::Tiny);
    core::compileHints(wl.module);
    for (core::Mechanism mech :
         {core::Mechanism::Baseline, core::Mechanism::Full}) {
        core::SystemOptions o = convoyOptions(mech);
        // genome's Tiny TXs fit the default 64-entry buffer, so nothing
        // spins; a 4-entry buffer forms the convoy it has at Small.
        if (GetParam() == "genome")
            o.bufferEntries = 4;
        const std::string what =
            GetParam() + "@64 P8 " + core::mechanismName(mech);
        const std::uint64_t spins =
            expectElisionExact(core::makeMachineConfig(o), wl, what);
        EXPECT_GE(spins, 1000u) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConvoyKernels, SpinElision,
    ::testing::Values(std::string("intruder"), std::string("yada"),
                      std::string("tpcc-p"), std::string("genome")),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string id;
        for (char c : info.param)
            id += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
        return id;
    });

/** Elision holds for any re-check period: one cycle, an odd one, and
 * periods longer than most critical sections. Besides intruder, these
 * kernels hit parked spinners with TLB shootdowns several periods after
 * they parked, so the pending re-check differs from the parking one. */
TEST(SpinElisionPeriods, AnySpinPeriodMatchesPerSpinReference)
{
    const std::pair<const char *, Cycle> runs[] = {
        {"intruder", 1}, {"tpcc-p", 7}, {"vacation", 7}, {"labyrinth", 1000}};
    for (const auto &[kernel, period] : runs) {
        workloads::Workload wl = workloads::byName(
            std::string(kernel) + "@64", workloads::Scale::Tiny);
        core::compileHints(wl.module);
        sim::MachineConfig cfg =
            core::makeMachineConfig(convoyOptions(core::Mechanism::Full));
        cfg.fallbackSpinCycles = period;
        const std::string what = std::string(kernel) +
                                 "@64 spin period " +
                                 std::to_string(period);
        EXPECT_GE(expectElisionExact(cfg, wl, what), 100u) << what;
    }
}

/** With the seeded lazy-subscription bug, hardware TXs commit while the
 * lock is held, so a run chunked at every commit stops with spinners
 * still parked: each chunk's exit must hand back exactly the reference
 * readyAt, rr and now, and the chunked run must finish like both
 * uninterrupted ones. */
TEST(SpinElisionExit, ChunkedRunWithHeldLockMatchesPerSpinReference)
{
    workloads::Workload wl =
        workloads::byName("intruder@64", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    sim::MachineConfig cfg =
        core::makeMachineConfig(convoyOptions(core::Mechanism::Baseline));
    cfg.unsafeLazySubscription = true;
    const sim::RunResult cold = sim::runMachine(cfg, wl.module, wl.threads);
    ASSERT_GT(cold.subscriptionViolations, 0u);
    EXPECT_GE(expectElisionExact(cfg, wl, "lazy subscription"), 1000u);

    sim::DefaultScheduleController ref_ctl;
    sim::MachineConfig ref_cfg = cfg;
    ref_cfg.scheduleController = &ref_ctl;
    sim::SimRun ref(ref_cfg, wl.module, wl.threads);
    sim::SimRun elided(cfg, wl.module, wl.threads);
    unsigned held = 0;
    for (std::uint64_t k = 1; !ref.finished(); ++k) {
        ref.runUntilCommits(k);
        elided.runUntilCommits(k);
        const sim::MachineSnapshot e = elided.snapshot();
        const sim::MachineSnapshot r = ref.snapshot();
        ASSERT_EQ(e.now, r.now) << "commit " << k;
        ASSERT_EQ(e.rr, r.rr) << "commit " << k;
        for (unsigned c = 0; c < wl.threads; ++c)
            ASSERT_EQ(e.ctxs[c].readyAt, r.ctxs[c].readyAt)
                << "commit " << k << " ctx " << c;
        held += r.lockHolder >= 0;
    }
    EXPECT_GT(held, 0u);
    EXPECT_EQ(bench::encodeRunResult(elided.finish()),
              bench::encodeRunResult(cold));
}
