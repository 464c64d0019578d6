#include "machine.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <limits>
#include <memory>
#include <vector>

#include "common/flat_set.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "htm/hint_oracle.hh"
#include "mem/directory.hh"
#include "sim/sched_index.hh"
#include "sim/schedule.hh"
#include "sim/snapshot.hh"
#include "tir/interp.hh"
#include "tir/verifier.hh"

namespace hintm
{
namespace sim
{

namespace
{

/** The software fallback lock lives below the globals region. */
constexpr Addr fallbackLockAddr = 0xF000;

static_assert(maxContexts == SchedIndex::maxContexts,
              "the scheduler index must cover every context");
static_assert(htm::numAbortReasons <= TxJournal::maxReasons,
              "journal reason array too small for the abort taxonomy");

constexpr Cycle farFuture = std::numeric_limits<Cycle>::max();

/** One hardware context: its snapshotted ContextState plus identity
 * and the explorer's per-run scratch state. */
struct Context : ContextState
{
    std::unique_ptr<tir::ThreadInterp> interp;
    std::unique_ptr<htm::HtmController> htm;
    /** Descheduled by the ScheduleController: off the pick set until
     * another context is preempted in its place or nothing else is
     * runnable. Never true without a controller; deliberately outside
     * MachineSnapshot (a forked branch re-applies its preemption after
     * restore, which is exactly what a from-scratch replay does at the
     * same decision, so the two stay bit-identical). */
    bool preempted = false;
    /** Block footprints feeding the explorer's independence filter
     * (controller runs only): the in-flight hardware TX's blocks and
     * the previous attempt's, so a TxBegin decision can be judged by
     * what the context is about to touch. */
    AddrSet ctlFpCur, ctlFpLast;
};

class Machine
{
  public:
    Machine(const MachineConfig &cfg, const tir::Module &module,
            unsigned num_threads)
        : cfg_(cfg),
          prog_(module, num_threads, cfg.seed, cfg.decodeCache),
          moduleTag_(&module),
          ctrl_(cfg.scheduleController)
    {
        HINTM_ASSERT(num_threads <= maxContexts, "more than ",
                     maxContexts, " hardware contexts");
        if (auto err = tir::verify(module))
            HINTM_FATAL("module fails verification: ", *err);
        HINTM_ASSERT(module.threadFunc >= 0, "module has no threadFunc");
        HINTM_ASSERT(num_threads >= 1 &&
                         num_threads <= cfg.numCores * cfg.smtPerCore,
                     "thread count exceeds hardware contexts");
        if (cfg.dynamicHints) {
            HINTM_ASSERT(cfg.vm.dynamicClassification,
                         "dynamicHints requires vm.dynamicClassification");
        }
        prog_.validateSafeStores = cfg.validateSafeStores;
        trace::enableFromEnvironment();

        mem_ = std::make_unique<mem::MemorySystem>(cfg.mem, cfg.numCores);
        vm_ = std::make_unique<vm::Vm>(cfg.vm);

        if (cfg.journal) {
            journal_ = std::make_shared<TxJournal>(cfg.journalCapacity);
            std::vector<std::string> names;
            names.reserve(module.functions.size());
            for (const tir::Function &f : module.functions)
                names.push_back(f.name);
            journal_->setFunctionNames(std::move(names));
        }

        if (cfg.metrics) {
            metrics_ = std::make_shared<MetricsRegistry>();
            std::vector<std::string> names;
            names.reserve(module.functions.size());
            for (const tir::Function &f : module.functions)
                names.push_back(f.name);
            metrics_->setFunctionNames(std::move(names));
            mem_->setMetricsSink(metrics_.get());
        }

        if (cfg.hintOracle) {
            oracle_ = std::make_unique<htm::HintOracle>();
            mem_->setAccessObserver(oracle_.get());
            // Free clears shadow state: reuse of a heap address is
            // ordered through the allocator, not a race.
            prog_.allocator().onRelease =
                [o = oracle_.get()](Addr p, std::uint64_t bytes) {
                    o->onFree(p, bytes);
                };
        }

        runInitPhase(module);
        for (unsigned t = 0; t < num_threads; ++t) {
            const int mem_ctx = mem_->addContext(t % cfg.numCores);
            const int vm_ctx = vm_->addContext();
            HINTM_ASSERT(mem_ctx == int(t) && vm_ctx == int(t),
                         "context id skew");
            Context cs;
            cs.interp = std::make_unique<tir::ThreadInterp>(
                prog_, ThreadId(t), module.threadFunc,
                std::vector<std::int64_t>{std::int64_t(t)});
            cs.htm = std::make_unique<htm::HtmController>(
                cfg.htm, mem::ContextId(t), &st_.res.htm);
            tir::ThreadInterp *ip = cs.interp.get();
            cs.htm->setUndoHook([ip] { ip->undoStores(); });
            cs.htm->setHintOracle(oracle_.get());
            mem_->setListener(mem::ContextId(t), cs.htm.get());
            // Interest gating: the memory system only delivers coherence
            // events to this context while its controller is in a live TX.
            cs.htm->setInterestHook(
                [mem = mem_.get(), t](bool interested) {
                    mem->setListenerInterest(mem::ContextId(t),
                                             interested);
                });
            ctxs_.push_back(std::move(cs));
        }
        if (mem::Directory *dir = mem_->directory()) {
            // Directory mode: controllers register their tracked blocks
            // so bus events reach only contexts that can act on them.
            // Attached after every context exists — the directory is
            // only live once the final machine size is known.
            for (unsigned t = 0; t < num_threads; ++t) {
                ctxs_[t].htm->attachDirectory(dir);
                mem_->setListenerTxFiltered(mem::ContextId(t), true);
            }
        }
        useSchedIndex_ = cfg.schedIndex;
        if (useSchedIndex_) {
            rebuildSchedIndex();
            // Wake events: a controller signalling an abort into a
            // running TX invalidates any batched scheduling decision
            // (the victim's retry timing is about to change), so the
            // machine stops polling and lets the controllers publish.
            for (Context &cs : ctxs_)
                cs.htm->setWakeHook([this] { schedDirty_ = true; });
        }
        if (cfg.htm.kind == htm::HtmKind::L1TM) {
            // Transactional lines are sticky in L1TM: the replacement
            // policy evicts them only when a set holds nothing else.
            // Each L1's checker scans just its own SMT siblings.
            std::vector<std::vector<unsigned>> by_l1(cfg.numCores);
            for (unsigned t = 0; t < num_threads; ++t)
                by_l1[t % cfg.numCores].push_back(t);
            for (unsigned l1 = 0; l1 < cfg.numCores; ++l1) {
                mem_->setPinChecker(
                    l1, [this, siblings = std::move(by_l1[l1])](Addr block) {
                        for (unsigned t : siblings) {
                            const htm::HtmController &h = *ctxs_[t].htm;
                            if (h.inTx() && (h.readsBlock(block) ||
                                             h.writesBlock(block)))
                                return true;
                        }
                        return false;
                    });
            }
        }
    }

    /**
     * One scheduler iteration: pick the earliest-ready live context and
     * step it. @return false when every context is done.
     */
    bool
    stepOnce()
    {
        const unsigned n = unsigned(ctxs_.size());
        int best = -1;
        Cycle best_t = farFuture;
        unsigned live = 0;
        // Rotate the scan starting point round-robin. The wrap is a
        // compare, not a modulo — this loop runs once per context
        // per simulated step. Scan order (and so tie-breaking on
        // equal readyAt) is unchanged.
        unsigned c = st_.rr;
        for (unsigned i = 0; i < n; ++i) {
            const Context &cs = ctxs_[c];
            if (!cs.done) {
                ++live;
                if (!cs.atBarrier && cs.readyAt < best_t) {
                    best_t = cs.readyAt;
                    best = int(c);
                }
            }
            if (++c == n)
                c = 0;
        }
        if (live == 0)
            return false;
        if (best < 0)
            deadlockPanic();
        st_.now = std::max(st_.now, best_t);
        step(unsigned(best), st_.now);
        st_.rr = unsigned(best) + 1 == n ? 0 : unsigned(best) + 1;
        return true;
    }

    /**
     * Drive the machine until every context is done or at least
     * @p commit_target TXs have committed — exactly equivalent to
     * `while (committedTxs() < target && stepOnce()) {}`. The indexed
     * path picks through the event-driven index and keeps stepping the
     * picked context while it provably remains the unique earliest
     * (its readyAt strictly below every other eligible context's lower
     * bound and no cross-context mutation observed), touching the heap
     * once per batch instead of once per step. It also parks
     * fallback-lock spinners off the index instead of re-stepping
     * every re-check (parkSpinner).
     */
    void
    runLoop(std::uint64_t commit_target)
    {
        if (ctrl_) {
            runControlled(commit_target);
            return;
        }
        if (!useSchedIndex_) {
            while (st_.res.committedTxs < commit_target && stepOnce()) {
            }
            return;
        }
        while (st_.res.committedTxs < commit_target && sched_.anyLive()) {
            // With the lock free, a parked spinner's next re-check is a
            // real step: hand back every spinner due by the next pick.
            if (spinCount_ && st_.lockHolder < 0)
                unparkSpinners(sched_.minKey());
            const SchedIndex::Pick p = sched_.pick(
                st_.rr, [this](std::uint64_t mask, unsigned) {
                    return chooseAmidSpinners(mask, sched_.tieKey());
                });
            if (p.winner < 0) {
                unparkSpinners();
                deadlockPanic();
            }
            const unsigned w = unsigned(p.winner);
            Context &cs = ctxs_[w];
            // A context restored with a readyAt behind the clock (one
            // preempted in an explorer snapshot) steps late, off the
            // re-check grid the spinner ring assumes: never parked.
            const bool on_time = p.key >= st_.now;
            st_.now = std::max(st_.now, p.key);
            schedDirty_ = false;
            spunIdle_ = false;
            step(w, st_.now);
            st_.rr = rrAfter(w);
            // A batch also ends where a parked spinner re-checks the
            // free lock: that re-check is a real step to pick.
            while (!spunIdle_ && !schedDirty_ && !cs.done &&
                   !cs.atBarrier && cs.readyAt < p.bound &&
                   st_.res.committedTxs < commit_target &&
                   !(spinCount_ && st_.lockHolder < 0 &&
                     spinRing_[spinHead_].next <= cs.readyAt)) {
                st_.now = std::max(st_.now, cs.readyAt);
                // w is the only real step at now; this folds the
                // parked re-checks that precede it.
                chooseAmidSpinners(std::uint64_t(1) << w, st_.now);
                step(w, st_.now);
                st_.rr = rrAfter(w);
            }
            // Close the batch: republish w's scheduler state (its heap
            // entries at the picked key were consumed by pick()).
            if (cs.done)
                sched_.retire(w);
            else if (cs.atBarrier)
                sched_.block(w, cs.readyAt);
            else if (spunIdle_ && on_time)
                parkSpinner(w);
            else
                sched_.setReady(w, cs.readyAt);
        }
        // Hand the parked spinners back at their exact pending
        // re-checks, so snapshot() and a resumed runLoop see exactly the
        // reference state (rr and now already are).
        unparkSpinners();
    }

    /**
     * Controller-driven scheduler loop: one pick per step (no batching
     * — a preemption decision may follow any step), tie-breaks through
     * ScheduleController::chooseTie, and a decision point offered after
     * every transactional event. With the default tie-break and no
     * preemptions this produces exactly the reference step sequence
     * (test-locked against the controller-free paths).
     */
    void
    runControlled(std::uint64_t commit_target)
    {
        const unsigned n = unsigned(ctxs_.size());
        while (st_.res.committedTxs < commit_target) {
            int w = -1;
            Cycle key = 0;
            if (useSchedIndex_) {
                if (!sched_.anyLive())
                    break;
                const SchedIndex::Pick p = sched_.pick(
                    st_.rr, [this](std::uint64_t mask, unsigned r) {
                        return ctrl_->chooseTie(mask, r);
                    });
                if (p.winner < 0) {
                    // Everything else is blocked: hand the machine
                    // back to the preempted context.
                    if (releasePreempted())
                        continue;
                    deadlockPanic();
                }
                w = p.winner;
                key = p.key;
            } else {
                Cycle best_t = farFuture;
                std::uint64_t tie = 0;
                unsigned live = 0;
                for (unsigned c = 0; c < n; ++c) {
                    const Context &cs = ctxs_[c];
                    if (cs.done)
                        continue;
                    ++live;
                    if (cs.atBarrier || cs.preempted)
                        continue;
                    const std::uint64_t bit = std::uint64_t(1) << c;
                    if (cs.readyAt < best_t) {
                        best_t = cs.readyAt;
                        tie = bit;
                    } else if (cs.readyAt == best_t) {
                        tie |= bit;
                    }
                }
                if (live == 0)
                    break;
                if (tie == 0) {
                    if (releasePreempted())
                        continue;
                    deadlockPanic();
                }
                w = int(ctrl_->chooseTie(tie, st_.rr));
                HINTM_ASSERT(w >= 0 && w < int(n) && (tie >> w & 1),
                             "tie-break chose an ineligible context");
                key = best_t;
            }
            Context &cs = ctxs_[unsigned(w)];
            st_.now = std::max(st_.now, key);
            pendingEv_ = -1;
            step(unsigned(w), st_.now);
            st_.rr = unsigned(w) + 1 == n ? 0 : unsigned(w) + 1;
            if (useSchedIndex_) {
                if (cs.done)
                    sched_.retire(unsigned(w));
                else if (cs.atBarrier || cs.preempted)
                    sched_.block(unsigned(w), cs.readyAt);
                else
                    sched_.setReady(unsigned(w), cs.readyAt);
            }
            if (pendingEv_ >= 0)
                decisionPoint(unsigned(w), SchedEvent(pendingEv_));
        }
    }

    /** Deschedule @p c until another context is preempted in its place
     * or nothing else is runnable (at most one context is preempted at
     * a time). Also the explorer's branch move after a fork restore. */
    void
    preemptContext(unsigned c)
    {
        bool changed = releasePreemptedFlags();
        Context &cs = ctxs_[c];
        if (!cs.done && !cs.atBarrier && !cs.preempted) {
            cs.preempted = true;
            changed = true;
        }
        if (changed && useSchedIndex_)
            rebuildSchedIndex();
    }

    Cycle nowCycle() const { return st_.now; }

    RunResult
    run()
    {
        runLoop(std::numeric_limits<std::uint64_t>::max());
        return finishRun();
    }

    RunResult
    finishRun()
    {
        HINTM_ASSERT(!finalized_, "machine finalized twice");
        finalized_ = true;
        for (const Context &cs : ctxs_) {
            st_.res.cycles = std::max(st_.res.cycles, cs.finishedAt);
            st_.res.instructions += cs.interp->instrCount();
        }
        st_.res.safePages = vm_->pageTable().countPages(true);
        st_.res.totalPages = vm_->pageTable().totalPages();
        st_.res.pageModeOverheadCycles =
            st_.shootdownCycles +
            st_.res.htm.cyclesLost[unsigned(htm::AbortReason::PageMode)];
        if (cfg_.profileSharing) {
            st_.res.blockSharing = st_.profiler.blockSummary();
            st_.res.pageSharing = st_.profiler.pageSummary();
        }
        if (oracle_) {
            st_.res.oracleSafeChecked = oracle_->safeAccessesChecked();
            st_.res.oracleSafeSkips = oracle_->safeSkips();
            for (const htm::HintOracle::Witness &w : oracle_->witnesses())
                st_.res.oracleWitnesses.push_back(
                    htm::HintOracle::describe(w, prog_.module()));
        }
        if (journal_) {
            trace::event(trace::Category::Journal, st_.res.cycles,
                         "TX journal flush: ", journal_->pushed(),
                         " attempts recorded, ", journal_->dropped(),
                         " dropped (ring capacity ",
                         journal_->capacity(), ")");
            st_.res.journal = journal_;
        }
        if (metrics_)
            st_.res.metrics = metrics_;
        if (cfg_.collectRawStats) {
            std::ostringstream os;
            mem_->stats().dump(os);
            vm_->stats().dump(os);
            st_.res.rawStats = os.str();
        }
        for (const tir::Global &g : prog_.module().globals) {
            std::vector<std::int64_t> words;
            for (Addr off = 0; off < g.sizeBytes; off += 8)
                words.push_back(prog_.space().read(g.addr + off));
            st_.res.finalGlobals.emplace(g.name, std::move(words));
        }
        return st_.res;
    }

    std::uint64_t committedTxs() const { return st_.res.committedTxs; }

    bool
    finished() const
    {
        for (const Context &cs : ctxs_) {
            if (!cs.done)
                return false;
        }
        return true;
    }

    MachineSnapshot
    snapshot() const
    {
        // The oracle's shadow tracker is deliberately outside the
        // snapshot scope: it is observation-only and config-gated.
        HINTM_ASSERT(!cfg_.hintOracle,
                     "snapshot of a hint-oracle machine is unsupported");
        HINTM_ASSERT(!finalized_, "snapshot after finalization");
        HINTM_ASSERT(spinMask_ == 0, "snapshot with parked spinners");
        MachineSnapshot s;
        static_cast<MachineState &>(s) = st_;
        s.program = prog_.saveState();
        s.mem = mem_->saveState();
        s.vm = vm_->saveState();
        s.ctxs.reserve(ctxs_.size());
        for (const Context &cs : ctxs_)
            s.ctxs.push_back(
                {cs, cs.interp->saveState(), cs.htm->saveState()});
        if (journal_) {
            s.journal = *journal_;
            s.hasJournal = true;
        }
        if (metrics_) {
            s.metrics = *metrics_;
            s.hasMetrics = true;
        }
        s.moduleTag = moduleTag_;
        return s;
    }

    void
    restore(const MachineSnapshot &s)
    {
        HINTM_ASSERT(!cfg_.hintOracle,
                     "restore into a hint-oracle machine is unsupported");
        HINTM_ASSERT(s.moduleTag == moduleTag_ &&
                         s.ctxs.size() == ctxs_.size(),
                     "snapshot does not match this machine");
        HINTM_ASSERT(s.hasJournal == bool(journal_),
                     "snapshot journal mode mismatch");
        HINTM_ASSERT(s.hasMetrics == bool(metrics_),
                     "snapshot metrics mode mismatch");
        // Restoring un-finalizes: the explorer reuses one machine for
        // many branches, finishing each before restoring the next.
        finalized_ = false;
        st_ = s;
        prog_.loadState(s.program);
        mem_->loadState(s.mem);
        vm_->loadState(s.vm);
        // Controllers after the memory system: their loadState
        // re-publishes listener interest into the restored mem state.
        for (std::size_t i = 0; i < ctxs_.size(); ++i) {
            Context &cs = ctxs_[i];
            static_cast<ContextState &>(cs) = s.ctxs[i];
            cs.interp->loadState(s.ctxs[i].interp);
            cs.htm->loadState(s.ctxs[i].htm);
            // Snapshots never carry preemption or filter state; a
            // forked branch re-applies its preemption after restore and
            // rebuilds footprints conservatively.
            cs.preempted = false;
            cs.ctlFpCur.clear();
            cs.ctlFpLast.clear();
        }
        if (journal_)
            *journal_ = s.journal;
        if (metrics_)
            *metrics_ = s.metrics;
        if (useSchedIndex_)
            rebuildSchedIndex();
    }

  private:
    Cycle
    simpleCost(const tir::Step &st) const
    {
        return (st.simpleInstrs * cfg_.nonMemCyclesX100 + 99) / 100;
    }

    /** Execute the init function functionally (no simulated time). */
    void
    runInitPhase(const tir::Module &module)
    {
        if (module.initFunc < 0)
            return;
        tir::ThreadInterp init(prog_, prog_.initTid(), module.initFunc,
                               {});
        while (true) {
            const tir::Step st = init.next();
            switch (st.kind) {
              case tir::StepKind::Mem:
                init.completeMem();
                break;
              case tir::StepKind::TxBegin:
                init.enterTx(false);
                break;
              case tir::StepKind::TxEnd:
                init.completeTxEnd();
                break;
              case tir::StepKind::Barrier:
                HINTM_FATAL("barrier in init function");
              case tir::StepKind::Annotate:
                vm_->annotateRange(st.addr, st.annotateLen);
                init.passAnnotate();
                break;
              case tir::StepKind::Done:
                return;
              case tir::StepKind::Simple:
                break;
            }
        }
    }

    void
    step(unsigned c, Cycle now)
    {
        Context &cs = ctxs_[c];
        if (cs.htm->abortPending()) {
            handleAbort(c, now);
            return;
        }
        const tir::Step st = cs.interp->next();
        switch (st.kind) {
          case tir::StepKind::Done:
            cs.done = true;
            cs.finishedAt = now + simpleCost(st);
            cs.readyAt = cs.finishedAt;
            maybeReleaseBarrier(now);
            break;
          case tir::StepKind::Mem:
            handleMem(c, now, st);
            break;
          case tir::StepKind::TxBegin:
            handleTxBegin(c, now, st);
            break;
          case tir::StepKind::TxEnd:
            handleTxEnd(c, now, st);
            break;
          case tir::StepKind::Barrier:
            cs.atBarrier = true;
            cs.readyAt = now + simpleCost(st);
            maybeReleaseBarrier(now);
            break;
          case tir::StepKind::Annotate:
            // Notary-style page annotation: an madvise-like call.
            vm_->annotateRange(st.addr, st.annotateLen);
            cs.interp->passAnnotate();
            cs.readyAt = now + simpleCost(st) + 1;
            break;
          case tir::StepKind::Simple:
            cs.readyAt = now + simpleCost(st);
            break;
        }
    }

    /** Open a journal record for the TX attempt starting now. */
    void
    openRecord(Context &cs, unsigned c, Cycle now,
               const tir::Step &st, TxOutcome kind)
    {
        cs.rec = TxRecord{};
        cs.rec.begin = now;
        cs.rec.ctx = c;
        cs.rec.fn = st.fn;
        cs.rec.block = st.srcBlock;
        cs.rec.instr = st.srcInstr;
        cs.rec.retry =
            std::uint16_t(std::min(cs.retries, 0xFFFFu));
        cs.rec.outcome = kind;
        cs.recOpen = true;
        cs.recConverted = false;
    }

    void
    handleAbort(unsigned c, Cycle now)
    {
        Context &cs = ctxs_[c];
        if (journal_ && cs.recOpen) {
            // Footprints and attribution are read before the ack
            // clears the controller's tracking state.
            cs.rec.end = now;
            cs.rec.outcome = TxOutcome::Abort;
            cs.rec.reason = std::uint8_t(cs.htm->pendingReason());
            cs.rec.readBlocks =
                std::uint32_t(cs.htm->readSetBlocks());
            cs.rec.writeBlocks =
                std::uint32_t(cs.htm->writeSetBlocks());
            cs.rec.offendingAddr = cs.htm->lastAbortAddr();
            cs.rec.offendingValid = cs.htm->lastAbortAddrValid();
            cs.rec.offendingCtx = cs.htm->lastAbortCtx();
            journal_->push(cs.rec);
            cs.recOpen = false;
        }
        if (metrics_ && cs.mtx.open) {
            if (cs.htm->pendingReason() == htm::AbortReason::Capacity) {
                // Occupancy breakdown of the overflowing cache set,
                // read before the ack clears the tracking state. Only
                // aborts that name an offending address have a set to
                // scan (L1TM set conflicts always do; buffer-full
                // aborts on P8/P8S name the overflowing access).
                if (cs.htm->lastAbortAddrValid()) {
                    metrics_->recordOverflowScan();
                    mem_->forEachValidInL1Set(
                        mem::ContextId(c), cs.htm->lastAbortAddr(),
                        [&](Addr blk, const mem::CacheLine &) {
                            metrics_->recordOverflowLine(
                                cs.htm->readsBlock(blk) ||
                                    cs.htm->writesBlock(blk),
                                cs.mtx.skips.contains(blk));
                        });
                }
                metrics_->closeCapacityAbort(cs.mtx,
                                             cs.htm->trackedBlocks());
            } else {
                metrics_->closeOther(cs.mtx);
            }
        }
        const htm::AbortReason reason = cs.htm->acknowledgeAbort(now);
        trace::event(trace::Category::Tx, now, "ctx ", c, " abort (",
                     htm::abortReasonName(reason), "), retry ",
                     cs.retries + 1);
        noteEvent(SchedEvent::TxAbort);
        if (ctrl_) {
            cs.ctlFpLast = cs.ctlFpCur;
            cs.ctlFpCur.clear();
        }
        cs.interp->rollbackToTxBegin();
        cs.fpAll.clear();
        cs.fpNoStatic.clear();
        cs.fpUnsafe.clear();
        if (!htm::abortIsTransient(reason)) {
            // Capacity aborts recur deterministically: fall back now.
            cs.mustFallback = true;
        } else {
            ++cs.retries;
            if (cs.retries > cfg_.maxRetries)
                cs.mustFallback = true;
        }
        cs.readyAt = now + cfg_.htm.abortHandlerCycles +
                     Cycle(cs.retries) * cfg_.backoffCycles;
    }

    void
    handleTxBegin(unsigned c, Cycle now, const tir::Step &st)
    {
        Context &cs = ctxs_[c];
        Cycle cost = simpleCost(st);

        if (st_.lockHolder >= 0) {
            // Someone is in the software fallback: wait for release.
            cs.readyAt = now + cost + cfg_.fallbackSpinCycles;
            // A zero-cost re-check repeats with period
            // fallbackSpinCycles until release: parkable.
            spunIdle_ = cost == 0 && cfg_.fallbackSpinCycles > 0;
            noteEvent(SchedEvent::LockSpin);
            return;
        }

        if (cs.mustFallback) {
            ++st_.res.fallbackRuns;
            cost += acquireFallbackLock(c, now,
                                        " acquires the fallback lock") +
                    cfg_.htm.beginCycles;
            cs.interp->enterTx(/*htm_mode=*/false);
            cs.inFallback = true;
            if (journal_)
                openRecord(cs, c, now, st, TxOutcome::FallbackCommit);
        } else {
            cs.htm->beginTx(now);
            trace::event(trace::Category::Tx, now, "ctx ", c,
                         " begins hardware TX");
            if (journal_)
                openRecord(cs, c, now, st, TxOutcome::Commit);
            if (metrics_) {
                metrics_->beginTx(cs.mtx, now, st.fn, st.srcBlock,
                                  st.srcInstr);
            }
            // Lock subscription: the lock word joins the readset so a
            // fallback acquisition conflicts this TX out. The seeded
            // bug skips it — the Dice-et-al. lazy-subscription hazard
            // the explorer exists to expose.
            if (!cfg_.unsafeLazySubscription) {
                const auto ar = mem_->access(mem::ContextId(c),
                                             fallbackLockAddr,
                                             AccessType::Read);
                cs.htm->trackAccess(fallbackLockAddr, AccessType::Read,
                                    /*safe=*/false);
                cost += ar.latency;
            }
            cost += cfg_.htm.beginCycles;
            cs.interp->enterTx(/*htm_mode=*/true);
            noteEvent(SchedEvent::TxBegin);
        }
        cs.readyAt = now + cost;
    }

    /** Context @p c takes the free fallback lock at @p now: abort
     * every running hardware TX (they all subscribed to the lock word),
     * then write the lock word. The seeded lazy-subscription bug has no
     * subscribers to kill. @return the lock write's latency. */
    Cycle
    acquireFallbackLock(unsigned c, Cycle now, const char *what)
    {
        Context &cs = ctxs_[c];
        st_.lockHolder = int(c);
        if (metrics_) {
            cs.mtx.lockAcquiredAt = now;
            cs.mtx.lockHeld = true;
        }
        trace::event(trace::Category::Tx, now, "ctx ", c, what);
        if (!cfg_.unsafeLazySubscription) {
            for (unsigned o = 0; o < ctxs_.size(); ++o) {
                if (o != c && ctxs_[o].htm->inTx())
                    ctxs_[o].htm->requestAbort(
                        htm::AbortReason::FallbackLock, std::int32_t(c));
            }
        }
        noteEvent(SchedEvent::LockAcquire);
        return mem_->access(mem::ContextId(c), fallbackLockAddr,
                            AccessType::Write)
            .latency;
    }

    void
    handleTxEnd(unsigned c, Cycle now, const tir::Step &st)
    {
        Context &cs = ctxs_[c];
        Cycle cost = simpleCost(st) + cfg_.htm.commitCycles;

        if (journal_ && cs.recOpen) {
            cs.rec.end = now;
            if (cs.inFallback) {
                cs.rec.outcome = cs.recConverted
                                     ? TxOutcome::ConvertedCommit
                                     : TxOutcome::FallbackCommit;
                // Converted footprints were captured at conversion;
                // pure fallback runs track nothing.
            } else {
                cs.rec.outcome = TxOutcome::Commit;
                cs.rec.readBlocks =
                    std::uint32_t(cs.htm->readSetBlocks());
                cs.rec.writeBlocks =
                    std::uint32_t(cs.htm->writeSetBlocks());
            }
            journal_->push(cs.rec);
            cs.recOpen = false;
        }

        if (cs.inFallback) {
            HINTM_ASSERT(st_.lockHolder == int(c), "lock bookkeeping broken");
            st_.lockHolder = -1;
            if (metrics_) {
                if (cs.mtx.lockHeld) {
                    metrics_->fallbackSeries.addSpan(cs.mtx.lockAcquiredAt,
                                                     now);
                    ++metrics_->fallbackAcquisitions;
                    cs.mtx.lockHeld = false;
                }
                // A converted TX commits under the lock, not the HTM:
                // fold its hint accounting without a commit verdict.
                if (cs.mtx.open)
                    metrics_->closeOther(cs.mtx);
            }
            trace::event(trace::Category::Tx, now, "ctx ", c,
                         " releases the fallback lock");
            const auto ar =
                mem_->access(mem::ContextId(c), fallbackLockAddr,
                             AccessType::Write);
            cost += ar.latency;
            cs.inFallback = false;
            cs.mustFallback = false;
            noteEvent(SchedEvent::LockRelease);
        } else {
            // Mutual-exclusion breach: a hardware TX completing while
            // the fallback lock is held read a snapshot the critical
            // section may be mutating. Impossible with eager
            // subscription (the acquisition aborts every TX); the
            // seeded lazy-subscription bug makes it reachable.
            if (st_.lockHolder >= 0 && st_.lockHolder != int(c)) {
                ++st_.res.subscriptionViolations;
                trace::event(trace::Category::Tx, now, "ctx ", c,
                             " commits while ctx ", st_.lockHolder,
                             " holds the fallback lock");
            }
            trace::event(trace::Category::Tx, now, "ctx ", c, " commits (",
                         cs.htm->trackedBlocks(), " tracked blocks)");
            if (metrics_ && cs.mtx.open)
                metrics_->closeCommit(cs.mtx, hintSavedVerdict(cs));
            cs.htm->commitTx(now);
            noteEvent(SchedEvent::TxCommit);
            if (ctrl_) {
                cs.ctlFpLast = cs.ctlFpCur;
                cs.ctlFpCur.clear();
            }
            if (cfg_.collectTxSizes) {
                st_.res.txSizeAll.sample(cs.fpAll.size());
                st_.res.txSizeNoStatic.sample(cs.fpNoStatic.size());
                st_.res.txSizeUnsafe.sample(cs.fpUnsafe.size());
            }
        }
        cs.interp->completeTxEnd();
        cs.retries = 0;
        cs.fpAll.clear();
        cs.fpNoStatic.clear();
        cs.fpUnsafe.clear();
        ++st_.res.committedTxs;
        cs.readyAt = now + cost;
    }

    /**
     * Capacity-model verdict at commit time: did this TX's tracked
     * footprint fit the transactional structures only because safe
     * hints kept the skipped blocks out? Counts only skipped blocks the
     * TX never also tracked (a block read safely and written unsafely
     * occupies a slot regardless).
     *
     * P8/P8S: the tracked set fit the TX buffer, but tracked + skipped
     * would not have. (For P8S this is conservative: spilled reads live
     * in the signature, so a buffer-centric model may over-claim.)
     * L1TM: the tracked set fit every L1 set's associativity, but some
     * set would have overflowed with the skipped blocks included.
     * InfCap: never (nothing to overflow).
     */
    bool
    hintSavedVerdict(const Context &cs) const
    {
        if (cfg_.htm.kind == htm::HtmKind::InfCap)
            return false;
        const TxMetricsCtx &m = cs.mtx;
        if (m.skips.empty())
            return false;
        // Tracked membership is queried from the controller's own
        // read/write sets — the metrics layer keeps no shadow copy of
        // the footprint. Called before commitTx, so the sets are live.
        const auto in_tracked = [&](Addr b) {
            return cs.htm->readsBlock(b) || cs.htm->writesBlock(b);
        };
        if (cfg_.htm.kind != htm::HtmKind::L1TM) {
            const std::uint64_t cap = cfg_.htm.bufferEntries;
            std::uint64_t extra = 0;
            m.skips.forEach([&](Addr b) {
                if (!in_tracked(b))
                    ++extra;
            });
            const std::uint64_t used = cs.htm->trackedBlocks();
            return extra > 0 && used <= cap && used + extra > cap;
        }
        // L1TM: group tracked and (un-tracked) skipped blocks by L1 set.
        const mem::CacheGeometry &g = mem_->l1Geometry();
        std::map<std::uint64_t, std::pair<unsigned, unsigned>> sets;
        cs.htm->forEachTrackedBlock(
            [&](Addr b) { ++sets[g.indexOf(b)].first; });
        m.skips.forEach([&](Addr b) {
            if (!in_tracked(b))
                ++sets[g.indexOf(b)].second;
        });
        bool tracked_fits = true, combined_overflows = false;
        for (const auto &[set, counts] : sets) {
            if (counts.first > g.assoc())
                tracked_fits = false;
            if (counts.first + counts.second > g.assoc())
                combined_overflows = true;
        }
        return tracked_fits && combined_overflows;
    }

    void
    handleMem(unsigned c, Cycle now, const tir::Step &st)
    {
        Context &cs = ctxs_[c];
        Cycle cost = simpleCost(st);
        const bool suspended = cs.interp->suspended();
        const bool in_htm_tx =
            cs.interp->inTx() && cs.interp->htmMode() && !suspended;
        const bool in_any_tx = cs.interp->inTx() && !suspended;
        if (cs.interp->inTx() && suspended)
            ++st_.res.txAccessesSuspended;

        // 1. Address translation + dynamic classification. The memoized
        // probe covers the common TLB-hit/no-transition case; misses and
        // state-changing writes fall through to the full path.
        vm::TranslateResult tr;
        if (!vm_->translateFast(int(c), st.addr, st.accessType, tr)) {
            tr = vm_->translate(int(c), cs.interp->tid(), st.addr,
                                st.accessType);
        }
        cost += tr.cost;
        if (tr.becameUnsafe) {
            trace::event(trace::Category::Vm, now, "page ", tr.pageNum,
                         " became unsafe (ctx ", c, " write), ",
                         tr.slaveCosts.size(), " shootdown slaves");
            st_.shootdownCycles += cfg_.vm.shootdownInitiatorCycles;
            for (const auto &[victim, slave] : tr.slaveCosts) {
                Context &vs = ctxs_[std::size_t(victim)];
                if (spinMask_ >> victim & 1) {
                    // A parked spinner's readyAt is its next pending
                    // re-check; it rejoins the index from there.
                    vs.readyAt = unparkSpinner(unsigned(victim)) + slave;
                    st_.shootdownCycles += slave;
                    sched_.unblock(unsigned(victim), vs.readyAt);
                    schedDirty_ = true;
                    continue;
                }
                vs.readyAt = std::max(vs.readyAt, now) + slave;
                st_.shootdownCycles += slave;
                if (useSchedIndex_) {
                    sched_.setReady(unsigned(victim), vs.readyAt);
                    schedDirty_ = true;
                }
            }
            for (Context &other : ctxs_)
                other.htm->onPageBecameUnsafe(tr.pageNum);
        }
        if (cs.htm->abortPending()) {
            // The transition aborted our own TX: squash this access.
            cs.readyAt = now + cost;
            return;
        }

        // 2. Resolve the safety hint. Statically-hinted instructions
        // bypass the dynamic mechanism (§IV-B); dynamic hints only ever
        // cover reads. Programmer annotations are irrevocable hints,
        // honored under annotationHints or whenever the dynamic
        // mechanism is active.
        const bool is_read = st.accessType == AccessType::Read;
        const bool static_safe = cfg_.staticHints && st.staticSafe;
        const bool annot_safe =
            (cfg_.annotationHints || cfg_.dynamicHints) && !static_safe &&
            is_read && tr.safeRead && !tr.revocable;
        const bool dyn_safe = cfg_.dynamicHints && !static_safe &&
                              is_read && tr.safeRead && tr.revocable;
        const bool safe = static_safe || dyn_safe || annot_safe;

        // 3. HTM tracking (or hint-driven skip).
        if (in_htm_tx &&
            cfg_.htm.conflictPolicy ==
                htm::ConflictPolicy::RequesterLoses &&
            !safe) {
            // Requester-loses pre-flight: abort ourselves rather than
            // disturb a TX already holding the block.
            const Addr block = blockAlign(st.addr);
            if (mem::Directory *dir = mem_->directory()) {
                // conflictsWith() can only be true for contexts the
                // directory records as precise trackers of the block,
                // so probing the tracker mask is O(trackers).
                std::uint64_t m =
                    dir->txTrackers(block) & ~(std::uint64_t(1) << c);
                for (; m; m &= m - 1) {
                    const unsigned o = unsigned(std::countr_zero(m));
                    if (ctxs_[o].htm->conflictsWith(block,
                                                    st.accessType)) {
                        cs.htm->requestAbort(htm::AbortReason::Conflict);
                        cs.readyAt = now + cost;
                        return;
                    }
                }
            } else {
                for (unsigned o = 0; o < ctxs_.size(); ++o) {
                    if (o != c && ctxs_[o].htm->conflictsWith(
                                      block, st.accessType)) {
                        cs.htm->requestAbort(htm::AbortReason::Conflict);
                        cs.readyAt = now + cost;
                        return;
                    }
                }
            }
        }
        if (in_htm_tx) {
            const std::uint8_t newly =
                cs.htm->trackAccess(st.addr, st.accessType, safe);
            if (dyn_safe)
                cs.htm->noteSafePageRead(tr.pageNum);
            if (cs.htm->capacityPending()) {
                // Pre-abort handler: convert the overflowing TX into a
                // critical section when the fallback lock is free,
                // preserving the work done so far; else abort normally.
                if (st_.lockHolder < 0) {
                    cost += acquireFallbackLock(
                        c, now,
                        " converts overflowing TX to a critical section");
                    if (journal_ && cs.recOpen) {
                        // Footprint at the moment tracking stops.
                        cs.rec.readBlocks =
                            std::uint32_t(cs.htm->readSetBlocks());
                        cs.rec.writeBlocks =
                            std::uint32_t(cs.htm->writeSetBlocks());
                        cs.recConverted = true;
                    }
                    cs.htm->convertToCriticalSection();
                    cs.interp->convertToFallback();
                    cs.inFallback = true;
                    // Fall through: the access proceeds untracked.
                } else {
                    cs.htm->declineConversion();
                    cs.readyAt = now + cost;
                    return;
                }
            }
            if (cs.htm->abortPending()) {
                cs.readyAt = now + cost; // capacity: squash
                return;
            }
            if (metrics_ && cs.mtx.open && !cs.inFallback) {
                if (static_safe) {
                    metrics_->onSafeSkip(cs.mtx, blockAlign(st.addr),
                                         MetricsRegistry::SkipKind::Static);
                } else if (dyn_safe) {
                    metrics_->onSafeSkip(
                        cs.mtx, blockAlign(st.addr),
                        MetricsRegistry::SkipKind::Dynamic);
                } else if (annot_safe) {
                    metrics_->onSafeSkip(
                        cs.mtx, blockAlign(st.addr),
                        MetricsRegistry::SkipKind::Annotation);
                } else if (newly) {
                    metrics_->onTrackedGrowth(
                        cs.mtx, newly & htm::NewlyRead,
                        newly & htm::NewlyWritten, now);
                }
            }
            if (is_read) {
                if (static_safe)
                    ++st_.res.txReadsStaticSafe;
                else if (dyn_safe)
                    ++st_.res.txReadsDynSafe;
                else if (annot_safe)
                    ++st_.res.txReadsAnnotated;
                else
                    ++st_.res.txReadsUnsafe;
            } else {
                if (static_safe)
                    ++st_.res.txWritesStaticSafe;
                else
                    ++st_.res.txWritesUnsafe;
            }
            if (cfg_.collectTxSizes) {
                const Addr blk = blockNumber(st.addr);
                cs.fpAll.insert(blk);
                if (!static_safe)
                    cs.fpNoStatic.insert(blk);
                if (!safe)
                    cs.fpUnsafe.insert(blk);
            }
            if (ctrl_ && !cs.inFallback)
                cs.ctlFpCur.insert(blockAlign(st.addr));
        } else if (in_any_tx) {
            // Fallback-mode TX: everything is effectively unsafe.
            if (st.accessType == AccessType::Read)
                ++st_.res.txReadsUnsafe;
            else
                ++st_.res.txWritesUnsafe;
        }

        // 4. Timing + coherence (may abort other contexts; their undo
        // hooks run before we read). Under L1TM this access can also
        // abort *us*: filling the L1 may evict one of our own tracked
        // lines (set-conflict capacity abort). Squash in that case.
        // Stamp the oracle here and only here: every earlier exit is a
        // squashed access that never reaches the hierarchy. A context
        // that just converted to a critical section proceeds untracked,
        // so its access is no longer a hint-driven skip.
        if (oracle_) {
            oracle_->stamp(c, st.fn, st.srcBlock, st.srcInstr,
                           static_safe && in_htm_tx && !cs.inFallback);
        }
        const auto ar =
            mem_->access(mem::ContextId(c), st.addr, st.accessType);
        cost += ar.latency;
        if (cs.htm->abortPending()) {
            cs.readyAt = now + cost;
            return;
        }

        // 5. Architectural effect.
        cs.interp->completeMem();

        if (cfg_.profileSharing) {
            st_.profiler.record(cs.interp->tid(), st.addr, st.accessType,
                             in_any_tx);
        }
        cs.readyAt = now + cost;
    }

    void
    maybeReleaseBarrier(Cycle now)
    {
        unsigned live = 0, waiting = 0;
        for (const Context &cs : ctxs_) {
            if (cs.done)
                continue;
            ++live;
            if (cs.atBarrier)
                ++waiting;
        }
        if (live == 0 || waiting < live)
            return;
        trace::event(trace::Category::Sched, now, "barrier releases ",
                     waiting, " contexts");
        noteEvent(SchedEvent::Barrier);
        for (unsigned c = 0; c < ctxs_.size(); ++c) {
            Context &cs = ctxs_[c];
            if (cs.done || !cs.atBarrier)
                continue;
            cs.interp->passBarrier();
            cs.atBarrier = false;
            cs.readyAt = std::max(cs.readyAt, now) + 1;
            if (useSchedIndex_) {
                sched_.unblock(c, cs.readyAt);
                schedDirty_ = true;
            }
        }
        if (oracle_)
            oracle_->onBarrier();
    }

    /** Mark a transactional event on the stepping context; the
     * controlled loop turns it into a decision point once the step has
     * fully completed. No-op without a controller. */
    void
    noteEvent(SchedEvent e)
    {
        if (ctrl_)
            pendingEv_ = int(e);
    }

    /** Clear preemption flags without touching the index; true if any
     * context was released. Released contexts keep their stale readyAt
     * (they were ready all along), which also makes a fork-restored
     * branch and a from-scratch replay of the same plan bit-identical. */
    bool
    releasePreemptedFlags()
    {
        bool any = false;
        for (Context &cs : ctxs_) {
            if (cs.preempted) {
                cs.preempted = false;
                any = true;
            }
        }
        return any;
    }

    bool
    releasePreempted()
    {
        const bool any = releasePreemptedFlags();
        // Preemption changes are rare (bounded per run) and can move a
        // readyAt behind an open tie bucket, so re-derive the index
        // rather than teaching its monotone fast paths about the past.
        if (any && useSchedIndex_)
            rebuildSchedIndex();
        return any;
    }

    /** Offer the completed event on @p c to the controller. Runs at a
     * quiescent boundary: the step is done and the index republished,
     * so a controller may snapshot the machine from inside the hook. */
    void
    decisionPoint(unsigned c, SchedEvent ev)
    {
        const Context &cs = ctxs_[c];
        if (cs.done)
            return; // a Done step released a barrier: nothing to preempt
        bool other_runnable = false;
        for (unsigned o = 0; o < ctxs_.size(); ++o) {
            if (o != c && !ctxs_[o].done && !ctxs_[o].atBarrier) {
                other_runnable = true;
                break;
            }
        }
        if (!other_runnable)
            return; // preempting the only runnable context decides nothing
        // A spinner waiting on a preempted lock holder would spin
        // forever (spinning counts as runnable, so the nothing-else-
        // runnable release never fires): model the OS eventually
        // rescheduling the holder. Purely state-driven, so forked and
        // replayed branches release at the same step.
        if (ev == SchedEvent::LockSpin && st_.lockHolder >= 0 &&
            ctxs_[unsigned(st_.lockHolder)].preempted)
            releasePreempted();
        SchedDecision d;
        d.event = ev;
        d.ctx = c;
        d.cycle = st_.now;
        d.dependent = decisionDependent(c, ev);
        if (ctrl_->onDecision(d))
            preemptContext(c);
    }

    /**
     * Independence filter for DPOR-style pruning: false only when the
     * event's context provably cannot interact with any peer — no lock
     * traffic, and every block its current and previous TX footprints
     * touch is cached (directory mode) or tracked (broadcast mode) by
     * no one else. Conservative on missing information: an empty
     * footprint (first attempt, untracked fallback) stays dependent.
     */
    bool
    decisionDependent(unsigned c, SchedEvent ev) const
    {
        switch (ev) {
          case SchedEvent::LockAcquire:
          case SchedEvent::LockRelease:
          case SchedEvent::Barrier:
            return true;
          case SchedEvent::TxBegin:
            // A transaction's future footprint is unknowable at begin;
            // the last-TX proxy below would misclassify a TX about to
            // touch shared state, so begins are never pruned.
            return true;
          case SchedEvent::LockSpin:
            return false; // the spinner re-arrives here until release
          default:
            break;
        }
        if (st_.lockHolder >= 0)
            return true;
        const Context &cs = ctxs_[c];
        if (cs.ctlFpCur.empty() && cs.ctlFpLast.empty())
            return true;
        bool dep = false;
        const mem::Directory *dir = mem_->directory();
        const auto overlaps = [&](Addr blk) {
            if (dep)
                return;
            if (dir) {
                if (dir->sharers(blk) & ~(std::uint64_t(1) << c))
                    dep = true;
                return;
            }
            for (unsigned o = 0; o < ctxs_.size() && !dep; ++o) {
                if (o == c)
                    continue;
                const Context &po = ctxs_[o];
                if ((po.htm->inTx() &&
                     (po.htm->readsBlock(blk) ||
                      po.htm->writesBlock(blk))) ||
                    po.ctlFpCur.contains(blk) ||
                    po.ctlFpLast.contains(blk))
                    dep = true;
            }
        };
        cs.ctlFpCur.forEach(overlaps);
        cs.ctlFpLast.forEach(overlaps);
        return dep;
    }

    /** (Re)derive the scheduler index from context state. The index is
     * derived state: built here at construction and again on snapshot
     * restore (MachineSnapshot carries nothing for it). */
    void
    rebuildSchedIndex()
    {
        sched_.reset(unsigned(ctxs_.size()));
        for (unsigned c = 0; c < ctxs_.size(); ++c) {
            sched_.sync(c, ctxs_[c].done,
                        ctxs_[c].atBarrier || ctxs_[c].preempted,
                        ctxs_[c].readyAt);
        }
        schedDirty_ = false;
    }

    /*
     * Fallback-lock spin elision (the uncontrolled indexed runLoop).
     *
     * A context whose TxBegin finds the lock held, at no cost beyond the
     * re-check, is stepped again every P = fallbackSpinCycles until the
     * lock frees, and each of those steps changes nothing but its own
     * readyAt and the round-robin cursor rr. parkSpinner() takes such a
     * context off the index; its re-checks become virtual steps at
     * t0 + P, t0 + 2P, ... Parked spinners sit in groups of equal next
     * re-check, in a ring ordered by that cycle. All of a ring's cycles
     * lie in one window [head.next, head.next + P), so a group that
     * re-checks moves from the head to the tail.
     *
     * A re-check is virtual only while the lock is held, and then rr is
     * its only visible effect; every place that can observe one
     * reconstructs it:
     *  - fold: before each real step at cycle t with the lock held, every
     *    group due before t is passed in order; stepping a group in
     *    rotation from rr leaves rr one past the member that rotation
     *    visits last.
     *  - same cycle: spinners due at t interleave with the contexts tied
     *    at t in rotation order. The real pick is the first tied context
     *    at or after the folded rr; the due spinners between rr and it
     *    step first and leave spinDue_.
     *  - free lock: after a release, a re-check is a real step again.
     *    Before each pick, the spinners due by the index's earliest
     *    readyAt go back to it at their pending re-checks, and a batch
     *    stops short of a spinner's re-check. Spinners due only after the
     *    next acquisition never leave the ring.
     *  - a TLB shootdown on a spinner sends it back at its pending
     *    re-check plus the slave cost, as the reference bump would.
     *  - runLoop exit sends all of them back, so the context state a
     *    snapshot records is the reference's.
     */

    /** rr after stepping context @p c. */
    unsigned
    rrAfter(unsigned c) const
    {
        return c + 1 == ctxs_.size() ? 0 : c + 1;
    }

    /** Contexts a rotation starting at @p from visits before @p to. */
    static std::uint64_t
    rotationBefore(unsigned from, unsigned to)
    {
        const std::uint64_t lo = (std::uint64_t(1) << from) - 1;
        const std::uint64_t hi = (std::uint64_t(1) << to) - 1;
        return from <= to ? hi & ~lo : hi | ~lo;
    }

    /** The indexed loop's tie-break for a real step at cycle @p t among
     * the tied contexts @p mask: the reference rule, applied after the
     * parked spinners' virtual steps that precede it. */
    unsigned
    chooseAmidSpinners(std::uint64_t mask, Cycle t)
    {
        if (spinCount_ == 0)
            return defaultTieBreak(mask, st_.rr);
        // Nothing parked is due by t unless the lock is held (runLoop
        // hands spinners back first while it is free).
        while (spinRing_[spinHead_].next < t)
            passSpinGroup();
        const unsigned w = defaultTieBreak(mask, st_.rr);
        if (spinRing_[spinHead_].next == t)
            spinDue_ &= ~rotationBefore(st_.rr, w);
        return w;
    }

    /** Step the head group's due spinners virtually and requeue the
     * group at its next re-check. */
    void
    passSpinGroup()
    {
        SpinGroup g = spinRing_[spinHead_];
        if (spinDue_) {
            // The last spinner the rotation from rr visits: the highest
            // below rr, else the highest overall.
            const std::uint64_t below =
                spinDue_ & ((std::uint64_t(1) << st_.rr) - 1);
            st_.rr = rrAfter(
                unsigned(63 - std::countl_zero(below ? below : spinDue_)));
        }
        g.next += cfg_.fallbackSpinCycles;
        spinHead_ = (spinHead_ + 1) % spinRingSize;
        spinRing_[(spinHead_ + spinCount_ - 1) % spinRingSize] = g;
        spinDue_ = spinRing_[spinHead_].mask;
    }

    /** Take context @p c off the index after a zero-cost spin at now
     * (its readyAt is now + P). */
    void
    parkSpinner(unsigned c)
    {
        const std::uint64_t bit = std::uint64_t(1) << c;
        const Cycle next = ctxs_[c].readyAt;
        HINTM_ASSERT(next == st_.now + cfg_.fallbackSpinCycles,
                     "parked spinner off its re-check period");
        sched_.block(c, next);
        spinMask_ |= bit;
        if (spinCount_) {
            SpinGroup &head = spinRing_[spinHead_];
            if (head.next == st_.now) {
                // Same phase as the head group, which is due now: join
                // it for its next round (not due now: not in spinDue_).
                head.mask |= bit;
                return;
            }
            // Every group is due in (now, next]; only one parked this
            // cycle can be due at next itself, and it is the tail.
            SpinGroup &tail =
                spinRing_[(spinHead_ + spinCount_ - 1) % spinRingSize];
            if (tail.next == next) {
                tail.mask |= bit;
                if (spinCount_ == 1)
                    spinDue_ |= bit;
                return;
            }
        }
        HINTM_ASSERT(spinCount_ < spinRingSize,
                     "spinner ring overflow");
        spinRing_[(spinHead_ + spinCount_) % spinRingSize] = {next, bit};
        if (spinCount_++ == 0)
            spinDue_ = bit;
    }

    /** Pending re-check of parked spinner @p c in ring slot @p i. */
    Cycle
    spinnerDue(unsigned i, unsigned c) const
    {
        const SpinGroup &g = spinRing_[(spinHead_ + i) % spinRingSize];
        return i == 0 && !(spinDue_ >> c & 1)
                   ? g.next + cfg_.fallbackSpinCycles
                   : g.next;
    }

    /** Remove parked spinner @p c from the ring; returns its pending
     * re-check. The caller puts it back on the index. */
    Cycle
    unparkSpinner(unsigned c)
    {
        const std::uint64_t bit = std::uint64_t(1) << c;
        spinMask_ &= ~bit;
        for (unsigned i = 0; i < spinCount_; ++i) {
            SpinGroup &g = spinRing_[(spinHead_ + i) % spinRingSize];
            if (!(g.mask & bit))
                continue;
            const Cycle due = spinnerDue(i, c);
            g.mask &= ~bit;
            if (i == 0)
                spinDue_ &= ~bit;
            if (g.mask == 0) {
                for (unsigned j = i; j + 1 < spinCount_; ++j)
                    spinRing_[(spinHead_ + j) % spinRingSize] =
                        spinRing_[(spinHead_ + j + 1) % spinRingSize];
                --spinCount_;
                if (i == 0)
                    spinDue_ =
                        spinCount_ ? spinRing_[spinHead_].mask : 0;
            }
            return due;
        }
        HINTM_PANIC("parked spinner missing from the ring");
    }

    /** Put the parked spinners of every group due by cycle @p by back
     * on the index at their pending re-checks. */
    void
    unparkSpinners(Cycle by = farFuture)
    {
        while (spinCount_ && spinRing_[spinHead_].next <= by) {
            const SpinGroup &g = spinRing_[spinHead_];
            for (std::uint64_t m = g.mask; m; m &= m - 1) {
                const unsigned c = unsigned(std::countr_zero(m));
                ctxs_[c].readyAt = spinnerDue(0, c);
                sched_.unblock(c, ctxs_[c].readyAt);
            }
            spinMask_ &= ~g.mask;
            spinHead_ = (spinHead_ + 1) % spinRingSize;
            spinDue_ = --spinCount_ ? spinRing_[spinHead_].mask : 0;
        }
    }

    /** The scheduler found live contexts but nothing runnable — a
     * simulator bug. Dump every context's scheduler-visible state
     * before going down. */
    [[noreturn]] void
    deadlockPanic() const
    {
        std::ostringstream os;
        os << "deadlock: all live contexts blocked (now=" << st_.now
           << " rr=" << st_.rr << " fallbackLockHolder=" << st_.lockHolder
           << ")";
        for (unsigned c = 0; c < ctxs_.size(); ++c) {
            const Context &cs = ctxs_[c];
            os << "\n  ctx " << c << ": readyAt=" << cs.readyAt
               << " done=" << cs.done << " atBarrier=" << cs.atBarrier
               << " inTx=" << cs.htm->inTx()
               << " abortPending=" << cs.htm->abortPending()
               << " retries=" << cs.retries
               << " mustFallback=" << cs.mustFallback
               << " inFallback=" << cs.inFallback
               << " preempted=" << cs.preempted;
        }
        // Replay recipe: the seed pins the reference interleaving; a
        // controller's decision trace pins any explored one.
        os << "\n  schedule: seed=" << cfg_.seed << " "
           << (ctrl_ ? ctrl_->describe()
                     : std::string("default (no controller)"));
        HINTM_PANIC(os.str());
    }

    MachineConfig cfg_;
    tir::Program prog_;
    const void *moduleTag_;
    std::unique_ptr<mem::MemorySystem> mem_;
    std::unique_ptr<vm::Vm> vm_;
    std::unique_ptr<htm::HintOracle> oracle_;
    std::shared_ptr<TxJournal> journal_;
    std::shared_ptr<MetricsRegistry> metrics_;
    std::vector<Context> ctxs_;
    /** Lock holder, results so far, scheduler clock and cursor: the
     * machine-wide state a snapshot captures (members so a run can be
     * interrupted for snapshotting and resumed). */
    MachineState st_;
    /** Event-driven ready-context index (cfg.schedIndex). */
    SchedIndex sched_;
    bool useSchedIndex_ = false;
    /** Set whenever a step mutates another context's scheduler state
     * (shootdown readyAt bump, barrier release, controller wake event):
     * the current batch's uniqueness proof no longer holds, so the
     * loop returns to the index for the next pick. */
    bool schedDirty_ = false;
    /** Parked fallback-lock spinners (see parkSpinner): groups of equal
     * next re-check in a ring ordered by it. Empty outside runLoop. */
    struct SpinGroup
    {
        Cycle next;
        std::uint64_t mask;
    };
    static constexpr unsigned spinRingSize = SchedIndex::maxContexts;
    std::array<SpinGroup, spinRingSize> spinRing_{};
    unsigned spinHead_ = 0;
    unsigned spinCount_ = 0;
    /** Head-group members still due at its next re-check; the rest
     * re-check one period later (they stepped or parked this cycle). */
    std::uint64_t spinDue_ = 0;
    /** Every parked spinner. */
    std::uint64_t spinMask_ = 0;
    /** The step just taken was a zero-cost fallback-lock spin. */
    bool spunIdle_ = false;
    bool finalized_ = false;
    /** Scheduler nondeterminism hook (null = reference behavior). */
    ScheduleController *ctrl_ = nullptr;
    /** Event the in-flight step produced, as int(SchedEvent); -1 when
     * none. Only maintained under a controller. */
    int pendingEv_ = -1;
};

} // namespace

RunResult
runMachine(const MachineConfig &cfg, const tir::Module &module,
           unsigned num_threads)
{
    Machine m(cfg, module, num_threads);
    return m.run();
}

struct SimRun::Impl
{
    Impl(const MachineConfig &cfg, const tir::Module &module,
         unsigned num_threads)
        : machine(cfg, module, num_threads)
    {
    }

    Machine machine;
};

SimRun::SimRun(const MachineConfig &cfg, const tir::Module &module,
               unsigned num_threads)
    : impl_(std::make_unique<Impl>(cfg, module, num_threads))
{
}

SimRun::~SimRun() = default;

void
SimRun::runUntilCommits(std::uint64_t target)
{
    impl_->machine.runLoop(target);
}

bool
SimRun::finished() const
{
    return impl_->machine.finished();
}

std::uint64_t
SimRun::committedTxs() const
{
    return impl_->machine.committedTxs();
}

MachineSnapshot
SimRun::snapshot() const
{
    return impl_->machine.snapshot();
}

void
SimRun::restore(const MachineSnapshot &s)
{
    impl_->machine.restore(s);
}

void
SimRun::preemptContext(unsigned ctx)
{
    impl_->machine.preemptContext(ctx);
}

Cycle
SimRun::now() const
{
    return impl_->machine.nowCycle();
}

RunResult
SimRun::finish()
{
    return impl_->machine.run();
}

} // namespace sim
} // namespace hintm
