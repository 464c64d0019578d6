/**
 * @file
 * Machine-state snapshot/restore. A MachineSnapshot is the complete
 * state of a running machine (caches, snoop filter, VM/TLBs, HTM
 * controllers, interpreter frames, partial results, journal, scheduler
 * clock). Restoring into a machine built from the *same* configuration
 * and resuming is bit-identical to never having stopped —
 * property-test-locked like the --no-snoop-filter / --no-decode-cache
 * equivalence checks. The schedule explorer forks its branches this
 * way.
 *
 * SimRun wraps the (internal) Machine with stepwise control so callers
 * can run partway, capture, restore and finish.
 */

#ifndef HINTM_SIM_SNAPSHOT_HH
#define HINTM_SIM_SNAPSHOT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_set.hh"
#include "common/journal.hh"
#include "common/metrics.hh"
#include "sim/machine.hh"
#include "tir/interp.hh"

namespace hintm
{
namespace sim
{

/*
 * The snapshot rule: a field is snapshotted by being declared in its
 * component's State. Each component stores its runtime state in exactly
 * that struct (the machine in ContextState and MachineState below, the
 * interpreter, HTM controller, memory system, TLBs and allocator in
 * their own State), so a snapshot is a whole-struct copy and restore
 * assigns it back before rebuilding derived data.
 */

/** The machine's own runtime state of one hardware context (its
 * interpreter and HTM controller keep theirs). */
struct ContextState
{
    Cycle readyAt = 0;
    Cycle finishedAt = 0;
    bool done = false;
    bool atBarrier = false;
    unsigned retries = 0;
    bool mustFallback = false;
    bool inFallback = false;
    // Fig. 6 footprints of the in-flight TX, in blocks. Open-addressing
    // sets: one insert per tracked access makes these hot.
    AddrSet fpAll, fpNoStatic, fpUnsafe;
    // Journal record of the in-flight TX attempt (journaling only).
    TxRecord rec;
    bool recOpen = false;
    bool recConverted = false;
    // Capacity-metrics measurement of the in-flight TX (metrics only).
    TxMetricsCtx mtx;
};

/** The machine's own machine-wide runtime state. */
struct MachineState
{
    /** Context holding the software fallback lock (-1 = free). */
    int lockHolder = -1;
    std::uint64_t shootdownCycles = 0;
    SharingProfiler profiler;
    /** Accumulated results so far. Its journal and metrics pointers are
     * set only when the run is finalized, so they are null here. */
    RunResult res;
    /** Scheduler clock and round-robin cursor. */
    Cycle now = 0;
    unsigned rr = 0;
};

/** Snapshot of one hardware context's runtime state. */
struct MachineContextSnapshot : ContextState
{
    tir::ThreadInterp::State interp;
    htm::HtmController::State htm;
};

/** Complete machine state at a scheduler boundary. The event-driven
 * scheduler index is deliberately absent: it is state derived entirely
 * from the per-context (done, atBarrier, readyAt) fields plus now/rr,
 * and the machine rebuilds it on restore(). */
struct MachineSnapshot : MachineState
{
    tir::Program::State program;
    mem::MemorySystem::State mem;
    vm::Vm::State vm;
    std::vector<MachineContextSnapshot> ctxs;
    /** Journal ring contents (journaling configs only). */
    TxJournal journal;
    bool hasJournal = false;
    /** Metrics registry contents (metrics configs only). */
    MetricsRegistry metrics;
    bool hasMetrics = false;
    const void *moduleTag = nullptr;
};

/**
 * A stepwise-controllable simulation. Equivalent to runMachine() when
 * driven straight to finish(); additionally supports partial execution
 * and snapshot/restore.
 */
class SimRun
{
  public:
    /** Build the machine and run its init phase. */
    SimRun(const MachineConfig &cfg, const tir::Module &module,
           unsigned num_threads);
    ~SimRun();

    SimRun(const SimRun &) = delete;
    SimRun &operator=(const SimRun &) = delete;

    /** Run until at least @p target TXs have committed (or the program
     * finishes). target == 0 returns immediately. */
    void runUntilCommits(std::uint64_t target);

    /** True once every context is done. */
    bool finished() const;

    /** Committed TXs so far. */
    std::uint64_t committedTxs() const;

    /**
     * Capture the complete machine state. Must not be used on
     * hint-oracle configs (the oracle's shadow state is not captured).
     */
    MachineSnapshot snapshot() const;

    /** Restore a snapshot captured from an identically-configured run.
     * Also un-finalizes a finished run, so one SimRun can be driven
     * through many restore()/finish() rounds (branch exploration). */
    void restore(const MachineSnapshot &s);

    /** Deschedule context @p ctx until another context is preempted in
     * its place or nothing else is runnable. Only meaningful under a
     * ScheduleController (schedule.hh); the explorer's branch move
     * after restoring a fork point. */
    void preemptContext(unsigned ctx);

    /** Current scheduler clock. */
    Cycle now() const;

    /** Run to completion and finalize the result. */
    RunResult finish();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace sim
} // namespace hintm

#endif // HINTM_SIM_SNAPSHOT_HH
