#include "explorer.hh"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "sim/schedule.hh"
#include "sim/snapshot.hh"

namespace hintm
{
namespace sim
{

namespace
{

/** One schedule to run: a plan plus, in fork mode, the snapshot of the
 * machine at the newly-preempted decision point. */
struct Branch
{
    std::vector<std::uint32_t> plan;
    /** Divergence-point state (null = replay the plan from scratch). */
    std::shared_ptr<const MachineSnapshot> snap;
    /** Context the plan's last entry preempts (fork mode re-applies it
     * after restore, exactly as a replay would at that decision). */
    unsigned preemptCtx = 0;
    /** Decision index of the plan's last entry. */
    std::uint32_t branchIndex = 0;
};

/** A subtree's running totals after some number of its schedules: the
 * counters (issues left empty), how many issues it had found, and how
 * many branches were still pending. */
struct Mark
{
    ExploreReport totals;
    std::size_t issues = 0;
    std::size_t pending = 0;
};

/** Per-host-thread exploration state: the controller baked into the
 * machine config and the (reusable) machine behind it. */
struct Worker
{
    explicit Worker(const MachineConfig &base)
        : cfg(base)
    {
        cfg.scheduleController = &ctrl;
    }

    MachineConfig cfg;
    PlanScheduleController ctrl;
    std::unique_ptr<SimRun> run;
};

} // namespace

ExploreReport
exploreSchedules(const MachineConfig &cfg0, const tir::Module &module,
                 unsigned num_threads, const ExploreOptions &opt)
{
    HINTM_ASSERT(!cfg0.scheduleController,
                 "explorer installs its own schedule controller");
    MachineConfig base = cfg0;
    base.journal = true; // trace_check reconciles journal totals
    // The oracle's shadow state is outside the snapshot scope, so
    // oracle configs replay every branch from scratch instead of
    // forking at the divergence point.
    const bool can_fork = !base.hintOracle;

    ExploreReport rep;
    TraceCheckOptions chk;
    chk.livelockThreshold = opt.livelockThreshold;

    const std::uint64_t max_schedules =
        opt.maxSchedules ? opt.maxSchedules
                         : std::numeric_limits<std::uint64_t>::max();

    // Run one schedule on @p w, collecting child branches (plans that
    // extend b.plan with one later preemption) and issues into the
    // caller's accumulators. Branch candidates only extend to the
    // right of the last preemption — the canonical iterative-
    // context-bounding enumeration, which visits every plan once.
    const auto run_one = [&](Worker &w, const Branch &b,
                             std::vector<Branch> &children,
                             ExploreReport &local,
                             std::vector<ExploreIssue> &issues,
                             const TraceCheckOptions &check_opt) {
        const bool branchable = b.plan.size() < opt.preemptionBound;
        const std::uint32_t after =
            b.plan.empty() ? 0 : b.plan.back() + 1;
        w.ctrl.hook = [&](const SchedDecision &d, std::uint32_t idx) {
            if (!branchable || idx < after)
                return;
            if (idx >= opt.maxBranchPoints) {
                ++local.branchesCapped;
                return;
            }
            ++local.branchPoints;
            if (opt.dpor && !d.dependent) {
                ++local.branchesPruned;
                return;
            }
            Branch c;
            c.plan = b.plan;
            c.plan.push_back(idx);
            c.preemptCtx = d.ctx;
            c.branchIndex = idx;
            if (can_fork)
                c.snap = std::make_shared<MachineSnapshot>(
                    w.run->snapshot());
            children.push_back(std::move(c));
        };
        if (b.snap) {
            // Fork: resume from the divergence point and apply the
            // new preemption — bit-identical to replaying the full
            // plan from scratch (property-locked). A fresh worker
            // builds its machine once; every later fork reuses it.
            if (!w.run)
                w.run = std::make_unique<SimRun>(w.cfg, module,
                                                 num_threads);
            w.ctrl.reset(b.plan, b.branchIndex + 1);
            w.run->restore(*b.snap);
            w.run->preemptContext(b.preemptCtx);
            ++local.snapshotForks;
        } else {
            w.run = std::make_unique<SimRun>(w.cfg, module, num_threads);
            w.ctrl.reset(b.plan, 0);
            if (!b.plan.empty())
                ++local.scratchReplays;
        }
        const RunResult r = w.run->finish();
        w.ctrl.hook = nullptr;
        ++local.schedulesRun;
        for (TraceViolation &v : checkTrace(base, r, check_opt))
            issues.push_back(
                {std::move(v), b.plan, w.ctrl.nextIndex()});
        return r;
    };

    // Base trace: the reference interleaving (no preemptions). Its
    // final globals become the determinism reference for every branch.
    Worker base_worker(base);
    std::vector<Branch> top;
    std::vector<ExploreIssue> base_issues;
    const RunResult base_result = run_one(
        base_worker, Branch{}, top, rep, base_issues, chk);
    rep.issues = std::move(base_issues);
    if (opt.compareFinalState)
        chk.referenceGlobals = &base_result.finalGlobals;

    // Fan the top-level subtrees out over host threads (each subtree
    // explores its grandchildren depth-first on its own worker), then
    // merge in branch order. The schedule budget is charged at the
    // merge, in that order: subtree i gets what subtrees 0..i-1 left,
    // exactly as a one-job exploration would give it, so the report is
    // the same for any job count. A worker logs its running totals
    // after every schedule and the merge keeps the budgeted prefix.
    // While it runs, subtree i can only be granted what the earlier
    // subtrees have not yet used, so it stops speculating there.
    const std::uint64_t budget = max_schedules - 1; // base run charged
    std::vector<std::vector<Mark>> logs(top.size());
    std::vector<std::vector<ExploreIssue>> sub_issues(top.size());
    std::vector<std::atomic<std::uint64_t>> used(top.size());
    parallelFor(opt.jobs, top.size(), [&](std::size_t i) {
        const auto allowance = [&] {
            std::uint64_t before = 0;
            for (std::size_t j = 0; j < i; ++j)
                before += used[j].load();
            return before < budget ? budget - before : 0;
        };
        Worker w(base);
        ExploreReport local;
        std::vector<ExploreIssue> &issues = sub_issues[i];
        std::vector<Branch> stack;
        stack.push_back(std::move(top[i]));
        logs[i].push_back({local, 0, stack.size()});
        while (!stack.empty() && local.schedulesRun < allowance()) {
            const Branch b = std::move(stack.back());
            stack.pop_back();
            std::vector<Branch> children;
            run_one(w, b, children, local, issues, chk);
            for (Branch &c : children)
                stack.push_back(std::move(c));
            logs[i].push_back({local, issues.size(), stack.size()});
            ++used[i];
        }
    });
    std::uint64_t left = budget;
    for (std::size_t i = 0; i < top.size(); ++i) {
        const std::size_t k =
            std::size_t(std::min<std::uint64_t>(left, logs[i].size() - 1));
        const Mark &m = logs[i][k];
        // Pending branches at the cut are the ones the cap dropped.
        HINTM_ASSERT(m.pending == 0 || k == left,
                     "subtree stopped short of its schedule budget");
        left -= k;
        rep.schedulesRun += m.totals.schedulesRun;
        rep.branchPoints += m.totals.branchPoints;
        rep.branchesPruned += m.totals.branchesPruned;
        rep.branchesCapped += m.totals.branchesCapped + m.pending;
        rep.snapshotForks += m.totals.snapshotForks;
        rep.scratchReplays += m.totals.scratchReplays;
        for (std::size_t j = 0; j < m.issues; ++j)
            rep.issues.push_back(std::move(sub_issues[i][j]));
    }
    return rep;
}

} // namespace sim
} // namespace hintm
