/**
 * @file
 * Property tests for machine snapshot/restore. The contract under test
 * is bit-identity: a machine restored from a mid-run snapshot must
 * produce exactly the RunResult of an uninterrupted cold run —
 * cycles, abort breakdowns, distributions, raw stats and final globals
 * included. encodeRunResult() serializes every persisted field, so
 * string equality of the encodings is a full-width comparison.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "../bench/result_store.hh"
#include "core/hintm.hh"
#include "sim/journal_io.hh"
#include "sim/schedule.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

using namespace hintm;

namespace
{

core::SystemOptions
observedOpts(htm::HtmKind kind)
{
    core::SystemOptions o;
    o.htmKind = kind;
    o.mechanism = core::Mechanism::Full;
    o.collectTxSizes = true;
    o.collectRawStats = true;
    o.profileSharing = true;
    return o;
}

void
expectSameResult(const sim::RunResult &a, const sim::RunResult &b,
                 const std::string &what)
{
    // Spot checks first (readable failures), then the full encoding.
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.committedTxs, b.committedTxs) << what;
    EXPECT_EQ(a.htm.totalAborts(), b.htm.totalAborts()) << what;
    EXPECT_EQ(a.rawStats, b.rawStats) << what;
    EXPECT_EQ(bench::encodeRunResult(a), bench::encodeRunResult(b))
        << what;
}

/** The per-spin reference schedule, tracking how many consecutive
 * LockSpin events each context has produced since its last other
 * event: a streak of two or more is a zero-cost re-check, which the
 * uncontrolled scheduler would have parked. */
class SpinStreaks : public sim::DefaultScheduleController
{
  public:
    explicit SpinStreaks(unsigned contexts) : streak_(contexts, 0) {}

    bool
    onDecision(const sim::SchedDecision &d) override
    {
        streak_[d.ctx] =
            d.event == sim::SchedEvent::LockSpin ? streak_[d.ctx] + 1 : 0;
        return false;
    }

    unsigned
    waiting() const
    {
        unsigned n = 0;
        for (unsigned s : streak_)
            n += s >= 2;
        return n;
    }

  private:
    std::vector<unsigned> streak_;
};

} // namespace

TEST(Snapshot, RestoreIntoFreshMachineResumesBitIdentical)
{
    workloads::Workload wl =
        workloads::byName("intruder", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    const core::SystemOptions opts = observedOpts(htm::HtmKind::P8);
    const sim::MachineConfig cfg = core::makeMachineConfig(opts);

    const sim::RunResult cold =
        sim::runMachine(cfg, wl.module, wl.threads);

    sim::SimRun a(cfg, wl.module, wl.threads);
    a.runUntilCommits(cold.committedTxs / 2);
    ASSERT_FALSE(a.finished());
    const sim::MachineSnapshot snap = a.snapshot();
    const sim::RunResult resumedSelf = a.finish();
    expectSameResult(cold, resumedSelf, "self-resume");

    sim::SimRun b(cfg, wl.module, wl.threads);
    b.restore(snap);
    const sim::RunResult resumedFresh = b.finish();
    expectSameResult(cold, resumedFresh, "fresh-restore");
}

TEST(Snapshot, DirectoryStateRidesThroughAtThirtyTwoContexts)
{
    // A mid-run snapshot on the 32-context directory machine carries
    // live sharer/owner/tracker state; restoring into a fresh machine
    // must still finish bit-identical to the uninterrupted run.
    workloads::Workload wl =
        workloads::byName("intruder@32", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions opts = observedOpts(htm::HtmKind::P8S);
    opts.numCores = 32;
    const sim::MachineConfig cfg = core::makeMachineConfig(opts);

    const sim::RunResult cold =
        sim::runMachine(cfg, wl.module, wl.threads);
    ASSERT_GT(cold.committedTxs, 0u);

    sim::SimRun a(cfg, wl.module, wl.threads);
    a.runUntilCommits(cold.committedTxs / 2);
    ASSERT_FALSE(a.finished());
    const sim::MachineSnapshot snap = a.snapshot();

    sim::SimRun b(cfg, wl.module, wl.threads);
    b.restore(snap);
    expectSameResult(cold, b.finish(), "32-context fresh-restore");
}

TEST(Snapshot, SchedulerIndexRidesThroughAtThirtyTwoContexts)
{
    // The event-driven scheduler index (bitmasks + readyAt heap) is
    // derived state: a snapshot stores only per-context
    // (done, atBarrier, readyAt) plus now/rr, and restore() rebuilds
    // the index from those. A mid-run restore on the 32-context
    // machine — heap populated, rotation pointer mid-cycle — must
    // finish bit-identical to the uninterrupted run, and the same
    // snapshot must also replay exactly under the reference scan
    // (cfg.schedIndex only selects how the identical schedule is
    // computed, so snapshots are interchangeable across it).
    workloads::Workload wl =
        workloads::byName("kmeans@32", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions opts = observedOpts(htm::HtmKind::P8);
    opts.numCores = 32;
    ASSERT_TRUE(opts.schedIndex);
    const sim::MachineConfig cfg = core::makeMachineConfig(opts);

    const sim::RunResult cold =
        sim::runMachine(cfg, wl.module, wl.threads);
    ASSERT_GT(cold.committedTxs, 0u);

    sim::SimRun a(cfg, wl.module, wl.threads);
    a.runUntilCommits(cold.committedTxs / 2);
    ASSERT_FALSE(a.finished());
    const sim::MachineSnapshot snap = a.snapshot();
    expectSameResult(cold, a.finish(), "32-context indexed self-resume");

    sim::SimRun b(cfg, wl.module, wl.threads);
    b.restore(snap);
    expectSameResult(cold, b.finish(),
                     "32-context indexed fresh-restore");

    sim::MachineConfig scan_cfg = cfg;
    scan_cfg.schedIndex = false;
    sim::SimRun c(scan_cfg, wl.module, wl.threads);
    c.restore(snap);
    expectSameResult(cold, c.finish(),
                     "32-context scan-restore of indexed snapshot");
}

TEST(Snapshot, AllBlockedContextsPanicWithDiagnosticsDump)
{
    // A snapshot doctored so every live context waits at a barrier no
    // arrival will ever release is undispatchable. Both schedulers
    // must refuse to spin: the pick comes back empty and the machine
    // panics with the per-context diagnostics dump (readyAt, barrier,
    // TX and fallback state) instead of hanging or silently finishing.
    workloads::Workload wl =
        workloads::byName("kmeans", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    const core::SystemOptions opts = observedOpts(htm::HtmKind::P8);
    sim::MachineConfig cfg = core::makeMachineConfig(opts);

    sim::SimRun probe(cfg, wl.module, wl.threads);
    probe.runUntilCommits(3);
    ASSERT_FALSE(probe.finished());
    sim::MachineSnapshot snap = probe.snapshot();
    for (sim::MachineContextSnapshot &cs : snap.ctxs)
        if (!cs.done)
            cs.atBarrier = true;

    for (const bool use_index : {true, false}) {
        cfg.schedIndex = use_index;
        sim::SimRun doomed(cfg, wl.module, wl.threads);
        doomed.restore(snap);
        try {
            doomed.finish();
            FAIL() << "deadlocked machine finished (schedIndex="
                   << use_index << ")";
        } catch (const std::logic_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("deadlock: all live contexts blocked"),
                      std::string::npos)
                << msg;
            // The dump must name every context with its
            // scheduler-visible state and the fallback-lock holder.
            EXPECT_NE(msg.find("fallbackLockHolder="),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("ctx 0: readyAt="), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("atBarrier=1"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("retries="), std::string::npos) << msg;
        }
    }
}

TEST(Snapshot, CarriesTheJournalAcrossRestore)
{
    workloads::Workload wl =
        workloads::byName("kmeans", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions opts = observedOpts(htm::HtmKind::P8);
    opts.journal = true;
    const sim::MachineConfig cfg = core::makeMachineConfig(opts);

    sim::SimRun a(cfg, wl.module, wl.threads);
    a.runUntilCommits(3);
    const sim::MachineSnapshot snap = a.snapshot();
    ASSERT_TRUE(snap.hasJournal);
    const sim::RunResult cold = a.finish();
    ASSERT_NE(cold.journal, nullptr);

    sim::SimRun b(cfg, wl.module, wl.threads);
    b.restore(snap);
    const sim::RunResult resumed = b.finish();
    ASSERT_NE(resumed.journal, nullptr);
    EXPECT_EQ(resumed.journal->size(), cold.journal->size());
    EXPECT_EQ(sim::journalSummary(resumed), sim::journalSummary(cold));
    EXPECT_EQ(bench::encodeRunResult(resumed),
              bench::encodeRunResult(cold));
}

TEST(Snapshot, CarriesTheMetricsAcrossRestore)
{
    // Same shape as the journal round-trip: a snapshot taken mid-run
    // must carry the metrics registry (and each context's in-flight
    // measurement) so a restored machine finishes with the exact
    // aggregates of the uninterrupted one.
    workloads::Workload wl =
        workloads::byName("intruder", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions opts = observedOpts(htm::HtmKind::P8);
    opts.metrics = true;
    const sim::MachineConfig cfg = core::makeMachineConfig(opts);

    sim::SimRun a(cfg, wl.module, wl.threads);
    a.runUntilCommits(3);
    const sim::MachineSnapshot snap = a.snapshot();
    ASSERT_TRUE(snap.hasMetrics);
    const sim::RunResult cold = a.finish();
    ASSERT_NE(cold.metrics, nullptr);

    sim::SimRun b(cfg, wl.module, wl.threads);
    b.restore(snap);
    const sim::RunResult resumed = b.finish();
    ASSERT_NE(resumed.metrics, nullptr);
    EXPECT_EQ(bench::encodeRunResult(resumed),
              bench::encodeRunResult(cold));

    // The registries themselves must match field for field, including
    // state that was mid-flight at snapshot time.
    const MetricsRegistry &mc = *cold.metrics;
    const MetricsRegistry &mr = *resumed.metrics;
    EXPECT_EQ(mr.capacityAborts, mc.capacityAborts);
    EXPECT_EQ(mr.hintSavedCommits, mc.hintSavedCommits);
    EXPECT_EQ(mr.skipStaticAccesses, mc.skipStaticAccesses);
    EXPECT_EQ(mr.skipDynAccesses, mc.skipDynAccesses);
    EXPECT_EQ(mr.trackedAtCommit.count, mc.trackedAtCommit.count);
    EXPECT_EQ(mr.trackedAtCommit.sum, mc.trackedAtCommit.sum);
    EXPECT_EQ(mr.sharersAtBus.count, mc.sharersAtBus.count);
    EXPECT_EQ(mr.fallbackSeries.samples(), mc.fallbackSeries.samples());
    EXPECT_EQ(mr.numaMatrix(), mc.numaMatrix());
    ASSERT_EQ(mr.sites().size(), mc.sites().size());
    for (const auto &kv : mc.sites()) {
        const auto it = mr.sites().find(kv.first);
        ASSERT_NE(it, mr.sites().end());
        EXPECT_EQ(it->second.commits, kv.second.commits);
        EXPECT_EQ(it->second.skippedBlocksSum,
                  kv.second.skippedBlocksSum);
        EXPECT_EQ(it->second.peakTrackedSum, kv.second.peakTrackedSum);
    }
    EXPECT_EQ(sim::metricsSummary(resumed), sim::metricsSummary(cold));
}

TEST(Snapshot, SnapshotItselfPerturbsNothing)
{
    workloads::Workload wl =
        workloads::byName("kmeans", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    const core::SystemOptions opts = observedOpts(htm::HtmKind::P8S);
    const sim::MachineConfig cfg = core::makeMachineConfig(opts);

    const sim::RunResult cold =
        sim::runMachine(cfg, wl.module, wl.threads);

    // Snapshot at several points along one run; the run must still
    // finish exactly like a never-observed one.
    sim::SimRun a(cfg, wl.module, wl.threads);
    for (std::uint64_t target = 1; target < 8; target += 3) {
        a.runUntilCommits(target);
        (void)a.snapshot();
    }
    expectSameResult(cold, a.finish(), "observed-run");
}

TEST(Snapshot, MidConvoySnapshotsMatchThePerSpinReference)
{
    // The indexed scheduler parks fallback-lock spinners and hands them
    // back with their exact pending re-checks when the lock is released
    // or the run loop exits. Chunked at every commit on the 64-context
    // convoy, its snapshots must carry exactly the per-context readyAt,
    // rr and now of the per-spin reference at the same commit count;
    // the snapshot with the most re-checking spinners must restore into
    // fresh indexed and scan machines that finish like the cold run.
    workloads::Workload wl =
        workloads::byName("tpcc-p@64", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions opts = observedOpts(htm::HtmKind::P8);
    opts.numCores = 64;
    opts.numaNodes = 4;
    const sim::MachineConfig cfg = core::makeMachineConfig(opts);
    ASSERT_TRUE(cfg.schedIndex);

    const sim::RunResult cold =
        sim::runMachine(cfg, wl.module, wl.threads);

    SpinStreaks streaks(wl.threads);
    sim::MachineConfig ref_cfg = cfg;
    ref_cfg.scheduleController = &streaks;
    sim::SimRun ref(ref_cfg, wl.module, wl.threads);
    sim::SimRun elided(cfg, wl.module, wl.threads);

    unsigned most_waiting = 0;
    sim::MachineSnapshot convoy;
    for (std::uint64_t k = 1; !ref.finished(); ++k) {
        ref.runUntilCommits(k);
        elided.runUntilCommits(k);
        ASSERT_EQ(elided.committedTxs(), ref.committedTxs());
        const sim::MachineSnapshot e = elided.snapshot();
        const sim::MachineSnapshot r = ref.snapshot();
        ASSERT_EQ(e.now, r.now) << "commit " << k;
        ASSERT_EQ(e.rr, r.rr) << "commit " << k;
        for (unsigned c = 0; c < wl.threads; ++c)
            ASSERT_EQ(e.ctxs[c].readyAt, r.ctxs[c].readyAt)
                << "commit " << k << " ctx " << c;
        if (streaks.waiting() > most_waiting) {
            most_waiting = streaks.waiting();
            convoy = e;
        }
    }
    EXPECT_GE(most_waiting, 8u);
    expectSameResult(cold, elided.finish(), "commit-chunked elided run");

    sim::SimRun indexed(cfg, wl.module, wl.threads);
    indexed.restore(convoy);
    expectSameResult(cold, indexed.finish(), "mid-convoy indexed restore");

    sim::MachineConfig scan_cfg = cfg;
    scan_cfg.schedIndex = false;
    sim::SimRun scanned(scan_cfg, wl.module, wl.threads);
    scanned.restore(convoy);
    expectSameResult(cold, scanned.finish(), "mid-convoy scan restore");
}
