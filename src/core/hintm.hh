/**
 * @file
 * HinTM's public API: named system configurations combining a baseline
 * HTM (P8 / P8S / L1TM / InfCap) with HinTM's classification mechanisms
 * (none / static / dynamic / both), a one-call compile-and-run entry
 * point, and result helpers used by the benchmark harnesses.
 */

#ifndef HINTM_CORE_HINTM_HH
#define HINTM_CORE_HINTM_HH

#include <string>
#include <vector>

#include "compiler/safety.hh"
#include "sim/machine.hh"
#include "tir/ir.hh"

namespace hintm
{
namespace core
{

/** Which HinTM classification mechanisms are active. */
enum class Mechanism : std::uint8_t
{
    Baseline,    ///< conventional HTM, no hints
    StaticOnly,  ///< HinTM-st: compiler hints only
    DynamicOnly, ///< HinTM-dyn: page-classification hints only
    Full,        ///< HinTM: both mechanisms
};

const char *mechanismName(Mechanism m);

/** High-level system description, expanded into a sim::MachineConfig. */
struct SystemOptions
{
    htm::HtmKind htmKind = htm::HtmKind::P8;
    Mechanism mechanism = Mechanism::Baseline;
    /** The "HinTM + preserve" page policy from §VI-B. */
    bool preserveReadOnly = false;
    /** Honor Notary-style Annotate instructions even when the dynamic
     * mechanism is off (they are always honored when it is on). */
    bool notaryAnnotations = false;
    /** Pre-abort handler [51]: convert capacity-overflowing TXs into
     * critical sections instead of aborting them. */
    bool preAbortHandler = false;
    /** Conflict-loser selection (paper models attacker-wins). */
    htm::ConflictPolicy conflictPolicy =
        htm::ConflictPolicy::AttackerWins;

    unsigned numCores = 8;
    unsigned smtPerCore = 1;
    std::uint64_t seed = 1;

    bool collectTxSizes = false;
    bool profileSharing = false;
    bool validateSafeStores = false;

    /** Ablation knobs (paper defaults otherwise). */
    unsigned bufferEntries = 64;
    unsigned signatureBits = 1024;
    unsigned maxRetries = 8;

    /** Simulator fast path (coherence directory + interest gating +
     * translation cache). Behavior-preserving; off = reference broadcast
     * path for cross-checking. Initialized from snoopFilterDefault(). */
    bool snoopFilter = snoopFilterDefault();
    /** Owning coherence directory: authoritative sharer/owner state,
     * O(sharers) bus probes, tracker-filtered listener delivery.
     * Behavior-preserving; off = reference broadcast coherence
     * (--no-directory cross-check). Ineffective when snoopFilter is
     * off. Initialized from directoryDefault(). */
    bool directory = directoryDefault();
    /** Two-tier NUMA latency model: number of directory home nodes
     * (1 = flat machine, the paper's configuration). */
    unsigned numaNodes = 1;
    /** Extra cycles charged to a remote-home bus transaction. */
    Cycle numaRemoteLatency = 24;
    /** Interpreter fast path (pre-decoded fused op stream + flat frame
     * arena). Behavior-preserving; off = reference Instr-walking
     * interpreter for cross-checking. From decodeCacheDefault(). */
    bool decodeCache = decodeCacheDefault();
    /** Scheduler fast path (event-driven ready-context index with
     * batched stepping). Behavior-preserving; off = reference
     * O(contexts) rotating scan for cross-checking (--no-sched-index).
     * Initialized from schedIndexDefault(). */
    bool schedIndex = schedIndexDefault();
    /** Populate RunResult::rawStats (costs time; off unless asked). */
    bool collectRawStats = false;
    /** Dynamic hint-soundness oracle: shadow-track safe-hinted accesses
     * and report remote-write overlaps (RunResult::oracleWitnesses).
     * Observation only — simulation results are bit-identical. */
    bool hintOracle = false;
    /** Per-TX event journal (RunResult::journal): site-attributed
     * outcome records, abort attribution, interval sampling, Perfetto
     * export. Observation only — simulation results are bit-identical.
     * Initialized from journalDefault() (--journal). */
    bool journal = journalDefault();
    /** TX-journal ring capacity in records (bounded memory). */
    std::size_t journalCapacity = 1u << 16;
    /** Capacity-pressure metrics registry (RunResult::metrics):
     * read/write-set growth curves, overflowing-set occupancy at
     * capacity aborts, per-site hint-effectiveness accounting,
     * fallback-lock timeline, sharer histogram, NUMA traffic matrix.
     * Observation only — simulation results are bit-identical.
     * Initialized from metricsDefault() (--metrics). */
    bool metrics = metricsDefault();

    std::string label() const;

    /**
     * Configuration errors that would otherwise trip an assertion deep
     * in machine construction, as one-line diagnostics (empty = valid).
     * @p threads is the simulated thread count (0 = not yet known; the
     * contexts check is skipped). Called at the command-line boundary,
     * not by makeMachineConfig.
     */
    std::vector<std::string> validate(unsigned threads = 0) const;

    /** Process-wide default for SystemOptions::snoopFilter, so drivers
     * can flip every subsequently-built config (--no-snoop-filter). */
    static bool snoopFilterDefault();
    static void setSnoopFilterDefault(bool on);

    /** Same for SystemOptions::directory (--no-directory). */
    static bool directoryDefault();
    static void setDirectoryDefault(bool on);

    /** Same for SystemOptions::decodeCache (--no-decode-cache). */
    static bool decodeCacheDefault();
    static void setDecodeCacheDefault(bool on);

    /** Same for SystemOptions::schedIndex (--no-sched-index). */
    static bool schedIndexDefault();
    static void setSchedIndexDefault(bool on);

    /** Same for SystemOptions::journal (--journal). */
    static bool journalDefault();
    static void setJournalDefault(bool on);

    /** Same for SystemOptions::metrics (--metrics). */
    static bool metricsDefault();
    static void setMetricsDefault(bool on);
};

/** Expand high-level options into the full machine configuration. */
sim::MachineConfig makeMachineConfig(const SystemOptions &opts);

/**
 * Run HinTM's static compiler passes over @p mod (in place).
 * Safe to call regardless of the mechanism later simulated: baseline
 * configurations simply ignore the hints.
 */
compiler::SafetyReport compileHints(tir::Module &mod);

/**
 * Simulate an annotated module under @p opts with @p threads workers.
 */
sim::RunResult simulate(const SystemOptions &opts, const tir::Module &mod,
                        unsigned threads);

/** Multi-line description of the configuration (Table II dump). */
std::string describeConfig(const sim::MachineConfig &cfg);

} // namespace core
} // namespace hintm

#endif // HINTM_CORE_HINTM_HH
