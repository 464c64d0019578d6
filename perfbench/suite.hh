/**
 * @file
 * The pieces of the benchmark driver that carry its arithmetic and its
 * checks: the four workload case lists, per-case quantile sums and
 * geomeans, metric-name validation, the result digest, and the counting
 * ScheduleController used by the traced run. Kept apart from driver.cc
 * so the benchmark's own tests can link them.
 */

#ifndef HINTM_PERFBENCH_SUITE_HH
#define HINTM_PERFBENCH_SUITE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/hintm.hh"
#include "sim/machine.hh"
#include "sim/schedule.hh"

namespace hintm
{
namespace perfbench
{

/** One simulated configuration of one kernel. */
struct CaseSpec
{
    /** Workload name as workloads::byName takes it ("genome@64"). */
    std::string kernel;
    htm::HtmKind htm = htm::HtmKind::P8;
    core::Mechanism mech = core::Mechanism::Baseline;
    unsigned cores = 8;
    unsigned numaNodes = 1;
    /** Journal, metrics and raw stats on, and the measured operation
     * ends with the stats-JSON and Perfetto exports. */
    bool observed = false;

    std::string label() const;
    /** The SystemOptions this case simulates with @p seed. Every
     * simulator fast path is left at its (checked) default. */
    core::SystemOptions options(std::uint64_t seed) const;
};

/** The case list of a workload; empty for an unknown name. */
std::vector<CaseSpec> workloadCases(const std::string &workload);

/** Smallest sample; requires a non-empty vector. */
double fastest(const std::vector<double> &samples);

/** Sum over cases of quantile(samples of the case, @p q); every case
 * needs at least one sample. */
double sumOfQuantiles(const std::vector<std::vector<double>> &per_case,
                      double q);

/** Quantile @p q in [0,1] by linear interpolation between the order
 * statistics; requires a non-empty vector. */
double quantile(std::vector<double> samples, double q);

/** Geometric mean; nullopt for an empty list or a non-positive value. */
std::optional<double> geomean(const std::vector<double> &values);

/**
 * Geomean of Baseline cycles / Full cycles over the (kernel, HTM) pairs
 * that have both mechanisms, optionally restricted to one HTM. nullopt
 * when no pair exists, so a workload without a pair never reports a
 * made-up 0 or 1.
 */
std::optional<double>
hintSpeedup(const std::vector<CaseSpec> &cases,
            const std::vector<Cycle> &cycles,
            std::optional<htm::HtmKind> only = std::nullopt);

/** A metric name the benchmark contract accepts: 1-64 characters of
 * [A-Za-z0-9_.-], starting with a letter or digit. */
bool validMetricName(std::string_view name);

/** FNV-1a digest of the simulated outcome: cycles, instructions,
 * commits, aborts by reason and the final global memory. */
std::uint64_t resultDigest(const sim::RunResult &r);

/** True when every behaviour-preserving fast path (snoop filter,
 * directory, decode cache, scheduler index) is on by default and the
 * machine config built from the defaults selects all of them. */
bool fastPathsOn();

/**
 * Counts scheduler work for the traced run. Delegates every tie to
 * defaultTieBreak and never preempts, so the RunResult is identical to
 * a run without a controller.
 */
class CountingController : public sim::ScheduleController
{
  public:
    unsigned chooseTie(std::uint64_t mask, unsigned rr) override;
    bool onDecision(const sim::SchedDecision &d) override;

    std::uint64_t tiePicks = 0;
    /** Sum over picks of the number of tied contexts. */
    std::uint64_t tieWidthSum = 0;
    std::uint64_t lockSpins = 0;
    /** Fallback-lock acquisitions by a context other than the last
     * releaser. */
    std::uint64_t lockHandoffs = 0;

  private:
    int lastReleaser_ = -1;
};

} // namespace perfbench
} // namespace hintm

#endif // HINTM_PERFBENCH_SUITE_HH
