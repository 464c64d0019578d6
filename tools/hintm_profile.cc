/**
 * @file
 * hintm_profile: transaction-level abort-attribution profiler. Runs a
 * workload with the TX journal enabled and prints where transactions
 * abort — the top TX sites ranked by cycles lost to aborts, with
 * per-reason breakdowns and the hottest conflicting block addresses —
 * plus the interval time series
 * (commit/abort rates, mean footprint, fallback-lock occupancy per
 * fixed-cycle window). Optional Perfetto / stats-JSON export.
 *
 * Examples:
 *   hintm_profile --workload intruder
 *   hintm_profile --workload genome --htm l1tm --mech baseline --top 20
 *   hintm_profile --workload kmeans --tiny --perfetto trace.json
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cli.hh"
#include "common/logging.hh"
#include "core/hintm.hh"
#include "sim/journal_io.hh"
#include "workloads/workloads.hh"

using namespace hintm;

int
main(int argc, char **argv)
{
    namespace cli = bench::cli;
    std::string workload = "intruder";
    workloads::Scale scale = workloads::Scale::Small;
    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::Baseline;
    opts.journal = true;
    unsigned threads_override = 0;
    std::size_t top_n = 10;
    Cycle window = 0;
    bool no_intervals = false;
    std::string perfettoPath, statsJsonPath;

    cli::Parser p("hintm_profile", "-h, --help");
    cli::addWorkload(p, workload, "workload to profile (default intruder)");
    cli::addScale(p, scale, cli::ScaleFlags::All);
    cli::addSystem(p, opts, {"--htm", "--mech"});
    p.option("--threads", "N", "override the workload's thread count",
             threads_override);
    cli::addSystem(p, opts, {"--seed", "--retries", "--preabort",
                             "--preserve"});
    p.option("--top", "N",
             "sites in the attribution table, ranked by cycles lost "
             "(default 10)",
             top_n);
    p.option("--window", "N",
             "interval-sampler window in cycles (default: ~50 windows)",
             window);
    p.option("--capacity", "N",
             "journal ring size in records (default 65536)",
             opts.journalCapacity);
    p.flag("--no-intervals", "skip the interval time-series table",
           no_intervals);
    cli::addObservability(p, nullptr, &opts.metrics, &perfettoPath,
                          &statsJsonPath);
    cli::addCache(p);
    p.parseOrExit(argc, argv);

    const bench::PreparedWorkload pw = bench::prepare(workload, scale);
    const unsigned threads =
        threads_override ? threads_override : pw.wl.threads;
    p.failOn(opts.validate(threads));

    std::printf("profiling %s (%u threads) under %s\n\n",
                pw.wl.name.c_str(), threads, opts.label().c_str());

    const std::vector<bench::MatrixJob> jobs = {
        {&pw, opts, threads_override}};
    const sim::RunResult r = bench::runMatrix(jobs)[0];
    HINTM_ASSERT(r.journal != nullptr, "profiler run lost its journal");

    std::printf("cycles: %llu   committed TXs: %llu   aborts: %llu\n",
                (unsigned long long)r.cycles,
                (unsigned long long)r.committedTxs,
                (unsigned long long)r.htm.totalAborts());
    std::printf("%s", sim::journalSummary(r).c_str());
    if (r.metrics)
        std::printf("%s", sim::metricsSummary(r).c_str());

    std::printf("\n-- abort attribution (top %zu sites) --\n%s", top_n,
                sim::renderAttributionTable(*r.journal, top_n).c_str());
    if (!no_intervals) {
        std::printf("\n-- interval time series --\n%s",
                    sim::renderIntervalTable(*r.journal, r.cycles, window)
                        .c_str());
    }

    if (!perfettoPath.empty() || !statsJsonPath.empty()) {
        const std::vector<sim::JournalRun> runs = {
            {pw.wl.name, opts.label(), threads, &r}};
        if (!perfettoPath.empty() &&
            sim::writePerfettoTrace(perfettoPath, runs))
            std::printf("\nperfetto trace: %s\n", perfettoPath.c_str());
        if (!statsJsonPath.empty() &&
            sim::writeStatsJson(statsJsonPath, runs, window))
            std::printf("stats json: %s\n", statsJsonPath.c_str());
    }
    return 0;
}
