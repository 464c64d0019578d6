#include "trace_check.hh"

#include <sstream>

#include "common/journal.hh"
#include "htm/controller.hh"

namespace hintm
{
namespace sim
{

namespace
{

void
fail(std::vector<TraceViolation> &out, const char *kind,
     std::string detail, bool fatal = true)
{
    out.push_back({kind, std::move(detail), fatal});
}

/** One counter reconciliation between the journal and the stats. */
void
reconcile(std::vector<TraceViolation> &out, const char *what,
          std::uint64_t journal_side, std::uint64_t stats_side)
{
    if (journal_side == stats_side)
        return;
    std::ostringstream os;
    os << what << ": journal says " << journal_side
       << ", HtmStats/RunResult say " << stats_side;
    fail(out, "journal-consistency", os.str());
}

void
checkJournal(std::vector<TraceViolation> &out, const MachineConfig &cfg,
             const RunResult &r)
{
    const TxJournal &j = *r.journal;
    const TxJournal::Totals t = j.totals();

    reconcile(out, "hardware commits", t.commits, r.htm.commits);
    reconcile(out, "fallback commits", t.fallbackCommits,
              r.fallbackRuns);
    reconcile(out, "converted commits", t.convertedCommits,
              r.htm.preAbortConversions);
    reconcile(out, "committed attempts", t.committedAttempts(),
              r.committedTxs);
    // Every hardware begin must be accounted for as exactly one
    // journal outcome: commit, abort, or conversion.
    reconcile(out, "hardware begins",
              t.commits + t.totalAborts() + t.convertedCommits,
              r.htm.begins);
    for (unsigned i = 0; i < htm::numAbortReasons; ++i) {
        std::ostringstream what;
        what << "aborts[" << htm::abortReasonName(htm::AbortReason(i))
             << "]";
        reconcile(out, what.str().c_str(), t.aborts[i],
                  r.htm.aborts[i]);
    }
    std::uint64_t lost = 0;
    for (unsigned i = 0; i < htm::numAbortReasons; ++i)
        lost += r.htm.cyclesLost[i];
    // The journal records in-TX time per aborted attempt; the stats
    // additionally charge the architectural-restore handler per abort.
    reconcile(out, "cycles lost to aborts",
              t.cyclesLostToAborts +
                  t.totalAborts() * cfg.htm.abortHandlerCycles,
              lost);
}

/** Longest run of consecutive aborted attempts in the retained ring
 * with no committing outcome anywhere in between — the bounded-livelock
 * / convoy signature. */
void
checkLivelock(std::vector<TraceViolation> &out, const RunResult &r,
              unsigned threshold)
{
    const TxJournal &j = *r.journal;
    unsigned run = 0, worst = 0;
    Cycle run_start = 0, worst_start = 0;
    for (std::size_t i = 0; i < j.size(); ++i) {
        const TxRecord &rec = j.at(i);
        if (rec.outcome == TxOutcome::Abort) {
            if (run == 0)
                run_start = rec.begin;
            if (++run > worst) {
                worst = run;
                worst_start = run_start;
            }
        } else {
            run = 0;
        }
    }
    if (worst < threshold)
        return;
    std::ostringstream os;
    os << worst << " consecutive aborted attempts without a commit, "
       << "starting at cycle " << worst_start
       << " (threshold " << threshold << ")";
    fail(out, "livelock", os.str(), /*fatal=*/false);
}

void
checkFinalState(
    std::vector<TraceViolation> &out, const RunResult &r,
    const std::map<std::string, std::vector<std::int64_t>> &ref)
{
    if (r.finalGlobals == ref)
        return;
    std::ostringstream os;
    os << "final global state diverges from the reference trace:";
    for (const auto &[name, words] : ref) {
        const auto it = r.finalGlobals.find(name);
        if (it == r.finalGlobals.end()) {
            os << " " << name << " missing;";
            continue;
        }
        for (std::size_t w = 0; w < words.size(); ++w) {
            if (w < it->second.size() && it->second[w] != words[w]) {
                os << " " << name << "[" << w << "]=" << it->second[w]
                   << " want " << words[w] << ";";
            }
        }
    }
    fail(out, "final-state", os.str());
}

} // namespace

std::vector<TraceViolation>
checkTrace(const MachineConfig &cfg, const RunResult &r,
           const TraceCheckOptions &opt)
{
    std::vector<TraceViolation> out;
    if (r.journal) {
        checkJournal(out, cfg, r);
        if (opt.livelockThreshold > 0)
            checkLivelock(out, r, opt.livelockThreshold);
    }
    if (cfg.hintOracle && !r.oracleWitnesses.empty()) {
        std::ostringstream os;
        os << r.oracleWitnesses.size()
           << " safe-hinted access(es) overlapped a remote write; first: "
           << r.oracleWitnesses.front();
        fail(out, "hint-oracle", os.str());
    }
    if (r.subscriptionViolations > 0) {
        std::ostringstream os;
        os << r.subscriptionViolations
           << " hardware commit(s) completed while another context "
              "held the fallback lock";
        fail(out, "subscription", os.str());
    }
    if (opt.referenceGlobals)
        checkFinalState(out, r, *opt.referenceGlobals);
    return out;
}

bool
anyFatal(const std::vector<TraceViolation> &v)
{
    for (const TraceViolation &tv : v) {
        if (tv.fatal)
            return true;
    }
    return false;
}

} // namespace sim
} // namespace hintm
