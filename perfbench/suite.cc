#include "suite.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <utility>

#include "workloads/workloads.hh"

namespace hintm
{
namespace perfbench
{

using core::Mechanism;
using htm::HtmKind;

std::string
CaseSpec::label() const
{
    std::string s = kernel;
    s += "/";
    s += htm::htmKindName(htm);
    s += "/";
    s += core::mechanismName(mech);
    return s;
}

core::SystemOptions
CaseSpec::options(std::uint64_t seed) const
{
    core::SystemOptions o;
    o.htmKind = htm;
    o.mechanism = mech;
    o.numCores = cores;
    o.numaNodes = numaNodes;
    o.seed = seed;
    o.journal = observed;
    o.metrics = observed;
    o.collectRawStats = observed;
    return o;
}

std::vector<CaseSpec>
workloadCases(const std::string &workload)
{
    std::vector<CaseSpec> out;
    const auto add = [&](std::string kernel, HtmKind h, Mechanism m,
                         unsigned cores, unsigned nodes, bool observed) {
        out.push_back({std::move(kernel), h, m, cores, nodes, observed});
    };
    if (workload == "contended-64") {
        // The fallback-lock convoy: LockSpin re-steps outnumber
        // instructions, and tpcc-p adds lock handoffs.
        for (const char *k : {"intruder@64", "yada@64", "tpcc-p@64"}) {
            add(k, HtmKind::P8, Mechanism::Baseline, 64, 4, false);
            add(k, HtmKind::P8, Mechanism::Full, 64, 4, false);
        }
    } else if (workload == "hinted-64") {
        // Hints keep every TX in hardware: memory-system, VM and
        // scheduler-tie work with almost no spinning. Baseline L1TM is
        // the one baseline that stays out of the convoy.
        for (HtmKind h : {HtmKind::P8, HtmKind::P8S, HtmKind::L1TM})
            add("genome@64", h, Mechanism::Full, 64, 4, false);
        add("genome@64", HtmKind::L1TM, Mechanism::Baseline, 64, 4, false);
    } else if (workload == "paper-8" || workload == "observed-8") {
        const bool observed = workload == "observed-8";
        const std::vector<HtmKind> htms =
            observed ? std::vector<HtmKind>{HtmKind::P8}
                     : std::vector<HtmKind>{HtmKind::P8, HtmKind::P8S,
                                            HtmKind::L1TM};
        for (const std::string &k : workloads::allNames()) {
            for (HtmKind h : htms) {
                for (Mechanism m : {Mechanism::Baseline, Mechanism::Full})
                    add(k, h, m, 8, 1, observed);
            }
        }
    }
    return out;
}

double
fastest(const std::vector<double> &samples)
{
    return *std::min_element(samples.begin(), samples.end());
}

double
sumOfQuantiles(const std::vector<std::vector<double>> &per_case, double q)
{
    double s = 0;
    for (const std::vector<double> &c : per_case)
        s += quantile(c, q);
    return s;
}

double
quantile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    const double pos = q * double(samples.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - double(lo)) * (samples[hi] - samples[lo]);
}

std::optional<double>
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return std::nullopt;
    double log_sum = 0;
    for (double v : values) {
        if (!(v > 0))
            return std::nullopt;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / double(values.size()));
}

std::optional<double>
hintSpeedup(const std::vector<CaseSpec> &cases,
            const std::vector<Cycle> &cycles,
            std::optional<HtmKind> only)
{
    std::map<std::pair<std::string, HtmKind>, std::pair<Cycle, Cycle>>
        pairs; // (kernel, htm) -> (baseline, full) cycles
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const CaseSpec &c = cases[i];
        if (only && c.htm != *only)
            continue;
        auto &p = pairs[{c.kernel, c.htm}];
        if (c.mech == Mechanism::Baseline)
            p.first = cycles[i];
        else if (c.mech == Mechanism::Full)
            p.second = cycles[i];
    }
    std::vector<double> ratios;
    for (const auto &[key, p] : pairs) {
        if (p.first > 0 && p.second > 0)
            ratios.push_back(double(p.first) / double(p.second));
    }
    return geomean(ratios);
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

namespace
{

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

} // namespace

std::uint64_t
resultDigest(const sim::RunResult &r)
{
    Fnv f;
    f.u64(r.cycles);
    f.u64(r.instructions);
    f.u64(r.committedTxs);
    f.u64(r.fallbackRuns);
    f.u64(r.htm.begins);
    f.u64(r.htm.commits);
    for (std::uint64_t a : r.htm.aborts)
        f.u64(a);
    for (const auto &[name, words] : r.finalGlobals) {
        f.bytes(name.data(), name.size());
        f.u64(words.size());
        for (std::int64_t w : words)
            f.u64(std::uint64_t(w));
    }
    return f.h;
}

bool
fastPathsOn()
{
    using O = core::SystemOptions;
    if (!O::snoopFilterDefault() || !O::directoryDefault() ||
        !O::decodeCacheDefault() || !O::schedIndexDefault())
        return false;
    const sim::MachineConfig cfg = core::makeMachineConfig(O{});
    return cfg.mem.directory && cfg.vm.translationCache &&
           cfg.decodeCache && cfg.schedIndex;
}

unsigned
CountingController::chooseTie(std::uint64_t mask, unsigned rr)
{
    ++tiePicks;
    tieWidthSum += unsigned(std::popcount(mask));
    return sim::defaultTieBreak(mask, rr);
}

bool
CountingController::onDecision(const sim::SchedDecision &d)
{
    switch (d.event) {
      case sim::SchedEvent::LockSpin:
        ++lockSpins;
        break;
      case sim::SchedEvent::LockAcquire:
        if (lastReleaser_ >= 0 && int(d.ctx) != lastReleaser_)
            ++lockHandoffs;
        break;
      case sim::SchedEvent::LockRelease:
        lastReleaser_ = int(d.ctx);
        break;
      default:
        break;
    }
    return false;
}

} // namespace perfbench
} // namespace hintm
