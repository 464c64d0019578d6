/**
 * @file
 * The benchmark driver: runs one named workload through the public API
 * (workloads::byName, core::compileHints, core::makeMachineConfig,
 * sim::SimRun, sim::checkTrace, the sim/journal_io writers), checks
 * every output, and prints a report whose last line is one JSON object.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--trace-out FILE]
 *
 * Host time is thread CPU time. Cases run round-robin until the time
 * budget is spent, and each case contributes the 90th percentile of its
 * rounds (hostQuantile). Simulated results and work counts are exact
 * and must repeat bit-for-bit.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 follows every
 * untraced case run with a traced one (spans around every public call,
 * journal, metrics, raw stats and a counting ScheduleController) and
 * reports the per-layer metrics; the spans go to --trace-out as a
 * Chrome-trace JSON.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/race_lint.hh"
#include "core/hintm.hh"
#include "sim/journal_io.hh"
#include "sim/snapshot.hh"
#include "sim/trace_check.hh"
#include "suite.hh"
#include "tir/verifier.hh"
#include "workloads/workloads.hh"

using namespace hintm;
using perfbench::CaseSpec;

namespace
{

constexpr workloads::Scale benchScale = workloads::Scale::Small;
/**
 * Quantile over rounds that each case contributes to a host time. On a
 * shared host the slow, contended state is the common one and fast
 * phases come and go: over ten 30-s runs the sum of per-case p90s spread
 * 4-8% (IQR over median), the sum of medians 8-16% and the sum of
 * minima 10-30%.
 */
constexpr double hostQuantile = 0.9;
/** Setups per untraced case-round; setup_s is their median. */
constexpr unsigned setupRepeats = 5;
/** runUntilCommits progress spans per traced case. */
constexpr unsigned progressSteps = 10;

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
wallNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

[[noreturn]] void
refuse(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n";
    std::exit(2);
}

// ---- spans ---------------------------------------------------------

struct Span
{
    std::string name;
    int caseId = 0;
    int id = 0;
    int parent = -1;
    double wall0 = 0, wall1 = 0;
    double cpu0 = 0, cpu1 = 0;
};

/** In-memory span recorder; written once as Chrome-trace JSON. */
class Tracer
{
  public:
    void
    open(const char *name, int case_id)
    {
        Span s;
        s.name = name;
        s.caseId = case_id;
        s.id = int(spans_.size());
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.wall0 = wallNow();
        s.cpu0 = cpuNow();
        spans_.push_back(std::move(s));
        stack_.push_back(spans_.back().id);
    }

    void
    close()
    {
        Span &s = spans_[std::size_t(stack_.back())];
        s.cpu1 = cpuNow();
        s.wall1 = wallNow();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self and total CPU time per span name over the spans recorded
     * since index @p first. */
    void
    times(std::size_t first, std::map<std::string, double> &self,
          std::map<std::string, double> &total) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (std::size_t i = first; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.parent >= int(first))
                child[std::size_t(s.parent)] += s.cpu1 - s.cpu0;
        }
        for (std::size_t i = first; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            total[s.name] += s.cpu1 - s.cpu0;
            self[s.name] += s.cpu1 - s.cpu0 - child[i];
        }
    }

    bool
    write(const std::string &path, const std::string &label) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        const double t0 = spans_.empty() ? 0 : spans_.front().wall0;
        os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":\""
           << label << "\"},\"traceEvents\":[";
        os << std::fixed << std::setprecision(3);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":"
               << (s.wall0 - t0) * 1e6 << ",\"dur\":"
               << (s.wall1 - s.wall0) * 1e6 << ",\"args\":{\"id\":" << s.id
               << ",\"parent\":" << s.parent << ",\"case\":" << s.caseId
               << ",\"cpu_us\":" << (s.cpu1 - s.cpu0) * 1e6 << "}}";
        }
        os << "\n]}\n";
        return bool(os);
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Opens a span on construction and closes it on destruction; a null
 * tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name, int case_id) : t_(t)
    {
        if (t_)
            t_->open(name, case_id);
    }
    ~Scope()
    {
        if (t_)
            t_->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
};

// ---- one case, one round ---------------------------------------------

/** Everything one case-round produces. */
struct Outcome
{
    bool ok = true;
    std::string why;
    /** CPU time of each setup (untraced rounds set up several times). */
    std::vector<double> setupCpu;
    /** The measured operation: running the built SimRun to completion
     * (plus the exports on observed cases). */
    double opCpu = 0;
    std::uint64_t digest = 0;
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t committed = 0;
    /** Traced rounds only: exact work counts, and span times. */
    std::map<std::string, double> counts;
    std::map<std::string, double> self, total;

    void
    fail(std::string w)
    {
        if (ok)
            why = std::move(w);
        ok = false;
    }
};

std::map<std::string, std::uint64_t>
parseRawStats(const std::string &text)
{
    std::map<std::string, std::uint64_t> out;
    std::istringstream is(text);
    std::string name;
    std::uint64_t v = 0;
    while (is >> name >> v)
        out[name] = v;
    return out;
}

/** Exact per-case work counts of a traced round. */
std::map<std::string, double>
countsOf(const sim::RunResult &r, const compiler::SafetyReport &rep,
         const perfbench::CountingController &ctl, double export_bytes)
{
    std::map<std::string, double> c;
    const auto raw = parseRawStats(r.rawStats);
    const auto stat = [&](const char *n) -> double {
        const auto it = raw.find(n);
        return it == raw.end() ? 0.0 : double(it->second);
    };
    using htm::AbortReason;
    const auto aborts = [&](AbortReason a) {
        return double(r.htm.aborts[unsigned(a)]);
    };
    c["instructions"] = double(r.instructions);
    c["static_accesses"] = rep.totalLoads + rep.totalStores;
    c["static_safe"] = rep.safeLoads + rep.safeStores;
    c["lock_spins"] = double(ctl.lockSpins);
    c["lock_handoffs"] = double(ctl.lockHandoffs);
    c["tie_picks"] = double(ctl.tiePicks);
    c["tie_width_sum"] = double(ctl.tieWidthSum);
    c["tx_begins"] = double(r.htm.begins);
    c["hw_commits"] = double(r.htm.commits);
    c["fallback_runs"] = double(r.fallbackRuns);
    c["aborts.capacity"] = aborts(AbortReason::Capacity);
    c["aborts.conflict"] = aborts(AbortReason::Conflict);
    c["aborts.fallback_lock"] = aborts(AbortReason::FallbackLock);
    c["aborts.page_mode"] = aborts(AbortReason::PageMode);
    double lost = 0;
    for (std::uint64_t v : r.htm.cyclesLost)
        lost += double(v);
    c["cycles_lost"] = lost;
    c["signature_spills"] = double(r.htm.signatureSpills);
    c["tx_accesses"] = double(r.txAccessesTotal());
    c["tx_safe"] = double(r.txReadsStaticSafe + r.txReadsDynSafe +
                          r.txReadsAnnotated + r.txWritesStaticSafe);
    c["hint_saved_commits"] =
        r.metrics ? double(r.metrics->hintSavedCommits) : 0.0;
    c["sharer_samples"] =
        r.metrics ? double(r.metrics->sharersAtBus.count) : 0.0;
    c["sharer_sum"] = r.metrics ? double(r.metrics->sharersAtBus.sum) : 0.0;
    for (const char *n :
         {"mem.reads", "mem.writes", "mem.l1_hits", "mem.l1_misses",
          "mem.l2_hits", "mem.l2_misses", "mem.invalidations",
          "mem.upgrades", "mem.writebacks", "mem.numa_remote",
          "vm.tlb_hits", "vm.tlb_misses", "vm.shootdown_slaves",
          "vm.unsafe_transitions"})
        c[n] = stat(n);
    c["safe_pages"] = double(r.safePages);
    c["total_pages"] = double(r.totalPages);
    c["journal_records"] = r.journal ? double(r.journal->pushed()) : 0.0;
    c["journal_dropped"] = r.journal ? double(r.journal->dropped()) : 0.0;
    c["export_bytes"] = export_bytes;
    return c;
}

/** The exports an observed case ends with, into memory. @return the
 * bytes written. */
double
exportAll(const sim::JournalRun &jr, Tracer *tr, int case_id)
{
    std::ostringstream stats, perfetto;
    {
        Scope s(tr, "sim.writeStatsJson", case_id);
        sim::writeStatsJson(stats, {jr});
    }
    {
        Scope s(tr, "sim.writePerfettoTrace", case_id);
        sim::writePerfettoTrace(perfetto, {jr});
    }
    return double(stats.tellp()) + double(perfetto.tellp());
}

/** A case set up and ready to run. */
struct Prepared
{
    workloads::Workload w;
    compiler::SafetyReport rep;
    core::SystemOptions opts;
    sim::MachineConfig cfg;
    std::unique_ptr<sim::SimRun> run;
};

/** byName + compileHints + makeMachineConfig + SimRun construction,
 * with tir::verify after build and after compileHints. Adds the setup
 * CPU time (verify excluded) to @p setup_cpu. */
Prepared
prepare(Outcome &o, const CaseSpec &spec, std::uint64_t seed, Tracer *tr,
        int case_id, sim::ScheduleController *ctl, double &setup_cpu)
{
    Prepared p;
    double t0 = cpuNow();
    {
        Scope s(tr, "workloads.byName", case_id);
        p.w = workloads::byName(spec.kernel, benchScale);
    }
    setup_cpu += cpuNow() - t0;
    if (auto err = tir::verify(p.w.module))
        o.fail("tir::verify after build: " + *err);

    t0 = cpuNow();
    {
        Scope s(tr, "core.compileHints", case_id);
        p.rep = core::compileHints(p.w.module);
    }
    setup_cpu += cpuNow() - t0;
    if (auto err = tir::verify(p.w.module))
        o.fail("tir::verify after compileHints: " + *err);

    p.opts = spec.options(seed);
    if (tr) {
        p.opts.journal = true;
        p.opts.metrics = true;
        p.opts.collectRawStats = true;
    }
    {
        Scope s(tr, "core.makeMachineConfig", case_id);
        p.cfg = core::makeMachineConfig(p.opts);
    }
    p.cfg.scheduleController = ctl;

    t0 = cpuNow();
    {
        Scope s(tr, "sim.SimRun", case_id);
        p.run = std::make_unique<sim::SimRun>(p.cfg, p.w.module,
                                              p.w.threads);
    }
    setup_cpu += cpuNow() - t0;
    // Isolation: a fresh machine that has simulated nothing yet, so the
    // result is computed here and never served from a cache.
    if (p.run->committedTxs() != 0 || p.run->now() != 0)
        refuse("a freshly built SimRun has already simulated work");
    return p;
}

/**
 * One case-round. Untraced (@p tr null): times setup and the measured
 * operation with nothing else attached. Traced: the same calls inside
 * spans, with observers and the counting controller attached, the run
 * split into runUntilCommits progress steps of @p commits_hint / 10,
 * and the trace battery (checkTrace, lintRaces) afterwards.
 */
void
runCaseBody(Outcome &o, const CaseSpec &spec, std::uint64_t seed,
            Tracer *tr, int case_id, std::uint64_t commits_hint)
{
    perfbench::CountingController ctl;
    Prepared p;
    for (unsigned k = 0; k < (tr ? 1 : setupRepeats); ++k) {
        p.run.reset(); // one machine at a time, so peak RSS counts one
        double cpu = 0;
        p = prepare(o, spec, seed, tr, case_id, tr ? &ctl : nullptr, cpu);
        o.setupCpu.push_back(cpu);
    }
    sim::SimRun *run = p.run.get();
    const workloads::Workload &w = p.w;
    const compiler::SafetyReport &rep = p.rep;
    const core::SystemOptions &opts = p.opts;
    const sim::MachineConfig &cfg = p.cfg;

    sim::RunResult r;
    double export_bytes = 0;
    const sim::JournalRun jr{w.name, opts.label(), w.threads, &r};
    const double t0 = cpuNow();
    {
        Scope s(tr, "sim.run", case_id);
        for (unsigned k = 1; tr && k < progressSteps; ++k) {
            Scope step(tr, "sim.runUntilCommits", case_id);
            run->runUntilCommits(commits_hint * k / progressSteps);
        }
        Scope f(tr, "sim.finish", case_id);
        r = run->finish();
    }
    if (spec.observed)
        export_bytes = exportAll(jr, tr, case_id);
    o.opCpu = cpuNow() - t0;
    if (!(o.opCpu > 0))
        refuse("the run took no CPU time; the result was not simulated");

    o.digest = perfbench::resultDigest(r);
    o.cycles = r.cycles;
    o.instructions = r.instructions;
    o.committed = r.committedTxs;
    if (r.subscriptionViolations != 0)
        o.fail("subscriptionViolations = " +
               std::to_string(r.subscriptionViolations));

    if (tr) {
        if (!spec.observed)
            export_bytes = exportAll(jr, tr, case_id);
        std::vector<sim::TraceViolation> v;
        {
            Scope s(tr, "sim.checkTrace", case_id);
            v = sim::checkTrace(cfg, r);
        }
        for (const sim::TraceViolation &tv : v) {
            if (tv.fatal)
                o.fail("checkTrace " + tv.kind + ": " + tv.detail);
        }
        compiler::LintReport lint;
        {
            Scope s(tr, "compiler.lintRaces", case_id);
            lint = compiler::lintRaces(w.module);
        }
        if (!lint.clean())
            o.fail("lintRaces: " + lint.summary());
        o.counts = countsOf(r, rep, ctl, export_bytes);
    }
}

Outcome
runCase(const CaseSpec &spec, std::uint64_t seed, Tracer *tr, int case_id,
        std::uint64_t commits_hint)
{
    Outcome o;
    if (!tr) {
        runCaseBody(o, spec, seed, nullptr, case_id, commits_hint);
        return o;
    }
    const std::size_t first = tr->spans().size();
    tr->open("case", case_id);
    runCaseBody(o, spec, seed, tr, case_id, commits_hint);
    tr->close();
    tr->times(first, o.self, o.total);
    return o;
}

// ---- the run -----------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            refuse("missing value for " + flag);
        const std::string v = argv[++i];
        if (v.empty())
            refuse("empty value for " + flag);
        char *end = nullptr;
        errno = 0;
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            if (v.front() == '-')
                refuse("--seed must not be negative");
            a.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!(a.seconds > 0 && a.seconds <= 600))
                refuse("--seconds must be in (0, 600]");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                refuse("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else {
            refuse("unknown flag " + flag);
        }
        if (end && (*end != '\0' || errno != 0))
            refuse("bad number for " + flag + ": " + v);
    }
    if (!have_workload || !have_seed)
        refuse("usage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]");
    return a;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0.0;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (!perfbench::validMetricName(m.name) || !std::isfinite(m.value))
            refuse("internal: bad metric " + m.name);
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

/** Append each value of @p from to the samples of its name. */
void
addSamples(std::map<std::string, std::vector<double>> &into,
           const std::map<std::string, double> &from)
{
    for (const auto &[name, v] : from)
        into[name].push_back(v);
}

/** Per-case noise: sample count, fastest, median, p90 and the share of
 * samples at least 1.3x the fastest. */
void
printNoise(const char *what, const std::vector<CaseSpec> &cases,
           const std::vector<std::vector<double>> &samples)
{
    std::cout << what << ": case, samples, fastest_s, median_s, p90_s, "
                         "share>=1.3x_fastest\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const std::vector<double> &s = samples[i];
        const double f = perfbench::fastest(s);
        const double slow = double(std::count_if(
            s.begin(), s.end(), [&](double v) { return v >= 1.3 * f; }));
        std::cout << "  " << std::left << std::setw(28) << cases[i].label()
                  << std::right << std::setw(4) << s.size() << "  "
                  << std::fixed << std::setprecision(6) << f << "  "
                  << perfbench::quantile(s, 0.5) << "  "
                  << perfbench::quantile(s, 0.9) << "  "
                  << std::setprecision(2) << slow / double(s.size())
                  << "\n";
        std::cout.unsetf(std::ios::floatfield);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    // Isolation guard: a number must never come from a reference twin
    // or a cached result. The driver links no result cache and builds a
    // fresh SimRun per case-round (checked in prepare).
    if (!perfbench::fastPathsOn())
        refuse("a simulator fast path (snoopFilter, directory, "
               "decodeCache, schedIndex) is off by default");
    const std::vector<CaseSpec> cases = perfbench::workloadCases(a.workload);
    if (cases.empty())
        refuse("unknown workload '" + a.workload + "'");
    const std::size_t n = cases.size();

    std::vector<std::vector<double>> setup(n), op(n), traced_op(n);
    std::vector<std::optional<Outcome>> first(n);
    std::vector<std::optional<std::map<std::string, double>>> counts(n);
    std::vector<std::map<std::string, std::vector<double>>> span_self(n),
        span_total(n);
    std::map<std::string, std::uint64_t> kernel_commits;
    std::uint64_t attempted = 0, failed = 0;
    Tracer tracer;

    const auto record = [&](std::size_t i, Outcome &o, bool traced) {
        ++attempted;
        if (!first[i]) {
            first[i] = o;
        } else if (o.digest != first[i]->digest) {
            o.fail(traced ? "traced result differs from the untraced run"
                          : "result differs from round 1");
        }
        const auto [it, fresh] =
            kernel_commits.emplace(cases[i].kernel, o.committed);
        if (!fresh && it->second != o.committed)
            o.fail("committed TXs " + std::to_string(o.committed) +
                   " differ from " + std::to_string(it->second) +
                   " in another config of " + cases[i].kernel);
        if (traced) {
            traced_op[i].push_back(o.opCpu);
            if (!counts[i])
                counts[i] = o.counts;
            else if (*counts[i] != o.counts)
                o.fail("work counts differ between traced rounds");
            addSamples(span_self[i], o.self);
            addSamples(span_total[i], o.total);
        } else {
            setup[i].insert(setup[i].end(), o.setupCpu.begin(),
                            o.setupCpu.end());
            op[i].push_back(o.opCpu);
        }
        if (!o.ok) {
            ++failed;
            std::cout << "FAIL " << cases[i].label() << ": " << o.why
                      << "\n";
        }
    };

    // Cases run round-robin, so every case's samples spread over the
    // whole run. The next case starts only if its last run would still
    // end within budget, once every case has min_rounds samples.
    const unsigned min_rounds = a.trace ? 1 : 2;
    const double start = wallNow();
    std::vector<double> last_wall(n, 0.0);
    std::size_t runs = 0;
    for (;; ++runs) {
        const std::size_t i = runs % n;
        if (runs / n >= min_rounds &&
            wallNow() - start + last_wall[i] > a.seconds)
            break;
        const double w0 = wallNow();
        Outcome o = runCase(cases[i], a.seed, nullptr, int(i), 0);
        record(i, o, false);
        if (a.trace) {
            Outcome t = runCase(cases[i], a.seed, &tracer, int(i),
                                first[i]->committed);
            record(i, t, true);
        }
        last_wall[i] = wallNow() - w0;
    }

    std::vector<Cycle> cycles(n);
    double instructions = 0, sim_cycles = 0;
    for (std::size_t i = 0; i < n; ++i) {
        cycles[i] = first[i]->cycles;
        instructions += double(first[i]->instructions);
        sim_cycles += double(first[i]->cycles);
    }
    const double sim_cpu = perfbench::sumOfQuantiles(op, hostQuantile);

    std::cout << "perfbench " << a.workload << " seed=" << a.seed
              << " cases=" << n << " case-runs=" << runs
              << (a.trace ? " (untraced + traced)" : " (untraced)")
              << " wall=" << std::setprecision(4) << wallNow() - start
              << "s\n";
    printNoise("untraced measured operation", cases, op);
    printNoise("untraced setup", cases, setup);

    std::vector<Metric> metrics;
    if (!a.trace) {
        const std::optional<double> speedup =
            perfbench::hintSpeedup(cases, cycles);
        if (!speedup)
            refuse("workload has no Baseline/Full pair: hint_speedup "
                   "is undefined");
        std::cout << "hint_speedup (Baseline/Full cycles, geomean) "
                  << std::setprecision(4) << *speedup << "x; per HTM vs "
                  << "the paper's means:";
        const struct
        {
            htm::HtmKind kind;
            const char *paper;
        } paper[] = {{htm::HtmKind::P8, "1.4x"},
                     {htm::HtmKind::P8S, "1.28x"},
                     {htm::HtmKind::L1TM, "1.7x, Large scale 2-way SMT, "
                                          "not like-for-like"}};
        for (const auto &p : paper) {
            if (auto s = perfbench::hintSpeedup(cases, cycles, p.kind))
                std::cout << " " << htm::htmKindName(p.kind) << " " << *s
                          << "x (paper " << p.paper << ")";
        }
        std::cout << ". The model is otherwise unvalidated against "
                     "hardware.\n";
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        metrics = {
            {"sim_cpu_s", "s", sim_cpu},
            {"sim_mips", "MIPS", instructions / sim_cpu / 1e6},
            {"setup_s", "s", perfbench::sumOfQuantiles(setup, 0.5)},
            {"peak_rss_mb", "MB", double(ru.ru_maxrss) / 1024.0},
            {"sim_cycles", "cycles", sim_cycles},
            {"hint_speedup", "x", *speedup},
        };
    } else {
        printNoise("traced measured operation", cases, traced_op);
        std::map<std::string, double> c, self, total;
        for (std::size_t i = 0; i < n; ++i) {
            for (const auto &[k, v] : *counts[i])
                c[k] += v;
            for (const auto &[k, v] : span_self[i])
                self[k] += perfbench::quantile(v, hostQuantile);
            for (const auto &[k, v] : span_total[i])
                total[k] += perfbench::quantile(v, hostQuantile);
        }
        std::vector<std::pair<std::string, double>> by_self(self.begin(),
                                                            self.end());
        std::sort(by_self.begin(), by_self.end(),
                  [](const auto &x, const auto &y) {
                      return x.second > y.second;
                  });
        std::cout << "traced self CPU time per span (sum over cases of "
                     "the p90 of traced rounds):\n";
        for (const auto &[name, v] : by_self)
            std::cout << "  " << std::left << std::setw(26) << name
                      << std::right << std::fixed << std::setprecision(6)
                      << v << " s\n";
        std::cout.unsetf(std::ios::floatfield);

        const double instr = c["instructions"];
        const double run_s = total["sim.run"];
        const double bus = c["mem.l1_misses"] + c["mem.upgrades"];
        metrics = {
            {"workloads.build_s", "s", self["workloads.byName"]},
            {"compiler.hints_s", "s", self["core.compileHints"]},
            {"compiler.safe_access_pct", "%",
             100 * ratio(c["static_safe"], c["static_accesses"])},
            {"tir.instructions", "count", instr},
            {"sim.init_s", "s", self["sim.SimRun"]},
            {"sim.run_s", "s", run_s},
            {"sim.ns_per_instr", "ns", 1e9 * ratio(run_s, instr)},
            {"sim.lock_spins", "count", c["lock_spins"]},
            {"sim.spins_per_instr", "1/instr",
             ratio(c["lock_spins"], instr)},
            {"sim.lock_handoffs", "count", c["lock_handoffs"]},
            {"sim.progress_tail_pct", "%",
             100 * ratio(self["sim.finish"], run_s)},
            {"sim.tie_picks", "count", c["tie_picks"]},
            {"sim.tie_width", "contexts",
             ratio(c["tie_width_sum"], c["tie_picks"])},
            {"htm.tx_begins", "count", c["tx_begins"]},
            {"htm.hw_commits", "count", c["hw_commits"]},
            {"htm.commit_ratio", "ratio",
             ratio(c["hw_commits"], c["tx_begins"])},
            {"htm.fallback_runs", "count", c["fallback_runs"]},
            {"htm.aborts.capacity", "count", c["aborts.capacity"]},
            {"htm.aborts.conflict", "count", c["aborts.conflict"]},
            {"htm.aborts.fallback_lock", "count",
             c["aborts.fallback_lock"]},
            {"htm.aborts.page_mode", "count", c["aborts.page_mode"]},
            {"htm.cycles_lost", "cycles", c["cycles_lost"]},
            {"htm.signature_spills", "count", c["signature_spills"]},
            {"htm.safe_skip_pct", "%",
             100 * ratio(c["tx_safe"], c["tx_accesses"])},
            {"htm.hint_saved_commits", "count", c["hint_saved_commits"]},
            {"mem.accesses", "count", c["mem.reads"] + c["mem.writes"]},
            {"mem.accesses_per_kinstr", "1/kinstr",
             1000 * ratio(c["mem.reads"] + c["mem.writes"], instr)},
            {"mem.l1_miss_pct", "%",
             100 * ratio(c["mem.l1_misses"],
                         c["mem.l1_hits"] + c["mem.l1_misses"])},
            {"mem.l2_miss_pct", "%",
             100 * ratio(c["mem.l2_misses"],
                         c["mem.l2_hits"] + c["mem.l2_misses"])},
            {"mem.invalidations", "count", c["mem.invalidations"]},
            {"mem.upgrades", "count", c["mem.upgrades"]},
            {"mem.writebacks", "count", c["mem.writebacks"]},
            {"mem.numa_remote_pct", "%",
             100 * ratio(c["mem.numa_remote"], bus)},
            {"mem.sharers_mean", "sharers",
             ratio(c["sharer_sum"], c["sharer_samples"])},
            {"vm.tlb_lookups", "count", c["vm.tlb_hits"] + c["vm.tlb_misses"]},
            {"vm.tlb_miss_pct", "%",
             100 * ratio(c["vm.tlb_misses"],
                         c["vm.tlb_hits"] + c["vm.tlb_misses"])},
            {"vm.shootdown_slaves", "count", c["vm.shootdown_slaves"]},
            {"vm.unsafe_transitions", "count", c["vm.unsafe_transitions"]},
            {"vm.safe_page_pct", "%",
             100 * ratio(c["safe_pages"], c["total_pages"])},
            {"common.journal_records", "count", c["journal_records"]},
            {"common.journal_dropped", "count", c["journal_dropped"]},
            {"common.export_s", "s",
             self["sim.writeStatsJson"] + self["sim.writePerfettoTrace"]},
            {"common.export_mb", "MB", c["export_bytes"] / 1e6},
            {"trace.overhead_pct", "%",
             100 * (perfbench::sumOfQuantiles(traced_op, hostQuantile) /
                        sim_cpu -
                    1)},
        };
        std::cout << "purpose: lock_spins/instructions = "
                  << ratio(c["lock_spins"], instr)
                  << " (contended-64 expects > 1, hinted-64 < 0.01); "
                     "journal records "
                  << c["journal_records"] << ", export "
                  << self["sim.writeStatsJson"] +
                         self["sim.writePerfettoTrace"]
                  << " s\n";
        if (!a.traceOut.empty() &&
            !tracer.write(a.traceOut, a.workload + " seed " +
                                          std::to_string(a.seed)))
            refuse("cannot write the trace to " + a.traceOut);
    }
    std::cout << "operations attempted " << attempted << ", failed "
              << failed << "\n";
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}
