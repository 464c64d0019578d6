/**
 * @file
 * hintm_run: general-purpose command-line driver. Runs any workload of
 * the suite under any system configuration and prints a full report —
 * timing, abort breakdown, classification mix, footprint percentiles,
 * page statistics — plus optional gem5-style raw stat dumps.
 *
 * Examples:
 *   hintm_run --workload labyrinth --mech full
 *   hintm_run --workload vacation --htm p8s --scale large --preserve
 *   hintm_run --workload genome --mech dyn --cores 4 --smt 2 --htm l1tm
 *   hintm_run --list
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "cli.hh"
#include "common/trace.hh"
#include "core/hintm.hh"
#include "sim/journal_io.hh"
#include "workloads/workloads.hh"

using namespace hintm;

int
main(int argc, char **argv)
{
    namespace cli = bench::cli;
    std::string workload = "kmeans";
    workloads::Scale scale = workloads::Scale::Small;
    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::Full;
    unsigned threads_override = 0;
    unsigned host_jobs = 0;
    bool profile = false, cdf = false, stats = false, list = false;
    std::string perfettoPath, statsJsonPath;

    cli::Parser p("hintm_run", "-h, --help");
    cli::addWorkload(p, workload,
                     "workload to run (--list to enumerate; default "
                     "kmeans)");
    cli::addScale(p, scale, cli::ScaleFlags::All);
    cli::addSystem(p, opts, {"--htm", "--mech"});
    p.option("--threads", "N", "override the workload's thread count",
             threads_override);
    cli::addSystem(p, opts,
                   {"--cores", "--smt", "--seed", "--buffer", "--signature",
                    "--retries", "--preserve", "--notary", "--preabort",
                    "--policy", "--validate"});
    p.flag("--profile", "collect Fig.1-style sharing metrics", profile);
    p.flag("--cdf", "collect TX footprint CDFs", cdf);
    p.option("--jobs", "N",
             "host threads for the runner (default hardware concurrency)",
             host_jobs);
    p.option("--json", "FILE", "write a per-run perf record to FILE",
             [](const std::string &path) {
                 bench::setJsonReport(path);
                 return std::string();
             });
    p.flag("--stats", "dump raw memory/VM statistics", stats);
    p.flag("--lint",
           "run the static race-lint pass after hint\ncompilation; abort "
           "on any diagnostic",
           [] { bench::setLintOnPrepare(true); });
    p.flag("--oracle",
           "shadow-track safe accesses and report\nconflicting remote "
           "writes (observation only)",
           opts.hintOracle);
    cli::addObservability(p, &opts.journal, &opts.metrics, &perfettoPath,
                          &statsJsonPath);
    p.option("--journal-capacity", "N",
             "journal ring size in records (default 65536; implies "
             "--journal)",
             opts.journalCapacity, [&opts] { opts.journal = true; });
    cli::addReferencePaths(p, &opts);
    cli::addSystem(p, opts, {"--numa-nodes", "--numa-latency"});
    cli::addCache(p);
    p.option("--trace", "CATS", "trace categories (tx,htm,vm,mem,sched|all)",
             [](const std::string &spec) {
                 trace::enableFromSpec(spec);
                 return std::string();
             });
    p.flag("--list", "list workloads and exit", list);
    p.parseOrExit(argc, argv);
    if (list) {
        for (const auto &n : workloads::allNames())
            std::printf("%s\n", n.c_str());
        return 0;
    }

    opts.profileSharing = profile;
    opts.collectTxSizes = cdf;
    opts.collectRawStats = stats;

    const bench::PreparedWorkload pw = bench::prepare(workload, scale);
    const workloads::Workload &wl = pw.wl;
    const unsigned threads =
        threads_override ? threads_override : wl.threads;
    p.failOn(opts.validate(threads));

    std::printf("workload   : %s (%u threads)\n", wl.name.c_str(),
                threads);
    std::printf("config     : %s, %u cores x %u SMT, buffer %u\n",
                opts.label().c_str(), opts.numCores, opts.smtPerCore,
                opts.bufferEntries);
    std::printf("compiler   : %s\n\n", pw.compileReport.summary().c_str());

    const std::vector<bench::MatrixJob> jobs = {
        {&pw, opts, threads_override}};
    const sim::RunResult r = bench::runMatrix(jobs, host_jobs)[0];

    std::printf("cycles            : %llu\n",
                (unsigned long long)r.cycles);
    std::printf("instructions      : %llu (%.2f IPC aggregate)\n",
                (unsigned long long)r.instructions,
                r.cycles ? double(r.instructions) / double(r.cycles) : 0);
    std::printf("TXs committed     : %llu (%llu hardware, %llu "
                "fallback)\n",
                (unsigned long long)r.committedTxs,
                (unsigned long long)r.htm.commits,
                (unsigned long long)r.fallbackRuns);
    std::printf("aborts            :");
    for (unsigned a = 1; a < htm::numAbortReasons; ++a) {
        std::printf(" %s=%llu",
                    htm::abortReasonName(htm::AbortReason(a)),
                    (unsigned long long)r.htm.aborts[a]);
    }
    std::printf("\n");
    std::printf("tracked at commit : p50=%llu p95=%llu max=%llu "
                "blocks\n",
                (unsigned long long)r.htm.trackedAtCommit.quantile(0.5),
                (unsigned long long)r.htm.trackedAtCommit.quantile(0.95),
                (unsigned long long)r.htm.trackedAtCommit.max());

    const double total = double(r.txAccessesTotal());
    if (total > 0) {
        std::printf(
            "TX access mix     : %.1f%% static-safe, %.1f%% dyn-safe, "
            "%.1f%% annotated, %.1f%% unsafe\n",
            100 * (r.txReadsStaticSafe + r.txWritesStaticSafe) / total,
            100 * r.txReadsDynSafe / total,
            100 * r.txReadsAnnotated / total,
            100 * (r.txReadsUnsafe + r.txWritesUnsafe) / total);
    }
    std::printf("pages             : %llu touched, %llu safe at end\n",
                (unsigned long long)r.totalPages,
                (unsigned long long)r.safePages);
    std::printf("page-mode cycles  : %llu (%.2f%% of cycle-work)\n",
                (unsigned long long)r.pageModeOverheadCycles,
                r.cycles ? 100.0 * double(r.pageModeOverheadCycles) /
                               (double(r.cycles) * threads)
                         : 0);
    if (profile) {
        std::printf(
            "sharing (Fig.1)   : safe pages %.1f%%, safe blocks %.1f%%, "
            "safe tx-reads %.1f%% (pg) / %.1f%% (blk)\n",
            100 * r.pageSharing.safeRegionFraction(),
            100 * r.blockSharing.safeRegionFraction(),
            100 * r.pageSharing.safeTxReadFraction(),
            100 * r.blockSharing.safeTxReadFraction());
    }
    if (cdf) {
        std::printf("footprint CDF     : <=64 blocks: baseline %.1f%%, "
                    "no-static %.1f%%, unsafe-only %.1f%%\n",
                    100 * r.txSizeAll.cdfAt(64),
                    100 * r.txSizeNoStatic.cdfAt(64),
                    100 * r.txSizeUnsafe.cdfAt(64));
    }
    if (opts.hintOracle) {
        std::printf("hint oracle       : %llu safe accesses checked, "
                    "%llu tracking skips, %zu witness(es)\n",
                    (unsigned long long)r.oracleSafeChecked,
                    (unsigned long long)r.oracleSafeSkips,
                    r.oracleWitnesses.size());
        for (const std::string &w : r.oracleWitnesses)
            std::printf("  %s\n", w.c_str());
    }
    if (r.journal) {
        std::printf("%s", sim::journalSummary(r).c_str());
        std::printf("\n-- abort attribution (top 5 sites) --\n%s",
                    sim::renderAttributionTable(*r.journal, 5).c_str());
    }
    if (r.metrics)
        std::printf("%s", sim::metricsSummary(r).c_str());
    if (!perfettoPath.empty() || !statsJsonPath.empty()) {
        const std::vector<sim::JournalRun> runs = {
            {wl.name, opts.label(), threads, &r}};
        if (!perfettoPath.empty() &&
            sim::writePerfettoTrace(perfettoPath, runs))
            std::printf("perfetto trace    : %s\n", perfettoPath.c_str());
        if (!statsJsonPath.empty() &&
            sim::writeStatsJson(statsJsonPath, runs))
            std::printf("stats json        : %s\n",
                        statsJsonPath.c_str());
    }
    if (stats) {
        std::printf("\n-- raw statistics --\n%s", r.rawStats.c_str());
    }
    return opts.hintOracle && !r.oracleWitnesses.empty() ? 1 : 0;
}
