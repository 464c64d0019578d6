/**
 * @file
 * Tests for the benchmark-harness plumbing: the shared command-line
 * parser (driven in-process), configuration validation, reduction and
 * geomean math, the prepare/run round trip, the matrix job-key
 * format, and the persistent on-disk result store (round trip,
 * corruption tolerance, runMatrix integration).
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "../bench/bench_util.hh"
#include "../bench/cli.hh"
#include "../bench/result_store.hh"

using namespace hintm;
using bench::BenchArgs;
namespace cli = bench::cli;

namespace
{

/** The harness flag table, parsed in-process (no exit, no wiring). */
struct BenchParse
{
    BenchArgs args;
    cli::Parsed result;
};

BenchParse
parse(const std::vector<std::string> &argv)
{
    BenchParse out;
    cli::Parser p("bench");
    cli::addBenchFlags(p, out.args);
    out.result = p.parse(argv);
    return out;
}

/** Fresh scratch directory for disk-cache tests. */
std::string
makeTempDir()
{
    char tmpl[] = "/tmp/hintm_cache_test_XXXXXX";
    const char *d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    return d ? d : "";
}

/** The single .res entry under @p dir (empty when none). */
std::string
onlyEntry(const std::string &dir)
{
    namespace fs = std::filesystem;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file() && e.path().extension() == ".res")
            return e.path().string();
    }
    return "";
}

} // namespace

TEST(Cli, Defaults)
{
    const BenchParse r = parse({});
    ASSERT_TRUE(r.result.ok());
    EXPECT_EQ(r.args.scale, workloads::Scale::Small);
    EXPECT_FALSE(r.args.scaleExplicit);
    EXPECT_FALSE(r.args.preserve);
    EXPECT_EQ(r.args.jobs, 0u); // 0 = hardware concurrency
    EXPECT_EQ(r.args.names(), workloads::allNames());
}

TEST(Cli, ExplicitScaleAndRepeatableWorkload)
{
    const BenchParse r = parse({"--large", "--workload", "genome",
                                "--workload", "yada@32", "--preserve",
                                "--jobs", "4"});
    ASSERT_TRUE(r.result.ok()) << r.result.error;
    EXPECT_EQ(r.args.scale, workloads::Scale::Large);
    EXPECT_TRUE(r.args.scaleExplicit);
    EXPECT_TRUE(r.args.preserve);
    EXPECT_EQ(r.args.jobs, 4u);
    EXPECT_EQ(r.args.names(),
              (std::vector<std::string>{"genome", "yada@32"}));
}

TEST(Cli, StrictNumbers)
{
    EXPECT_EQ(cli::parseNumber("42"), 42u);
    EXPECT_EQ(cli::parseNumber("0x10"), 16u);
    EXPECT_EQ(cli::parseNumber("0"), 0u);
    for (const char *bad : {"", "abc", "12abc", "-1", "+5", " 5", "5 ",
                            "0x", "18446744073709551616"})
        EXPECT_FALSE(cli::parseNumber(bad)) << "'" << bad << "'";
    EXPECT_EQ(cli::parseNumber("4294967295", 0xffffffffu), 0xffffffffu);
    EXPECT_FALSE(cli::parseNumber("4294967296", 0xffffffffu));

    // Through a flag: the diagnostic names the flag and the value, and
    // an unsigned target rejects what would have wrapped.
    for (const char *bad : {"abc", "4294967296", "-2"}) {
        const BenchParse r = parse({"--jobs", bad});
        EXPECT_FALSE(r.result.ok()) << bad;
        EXPECT_NE(r.result.error.find("--jobs"), std::string::npos);
        EXPECT_NE(r.result.error.find(bad), std::string::npos);
    }
}

TEST(Cli, MissingValueAndUnknownFlag)
{
    BenchParse r = parse({"--tiny", "--jobs"});
    EXPECT_EQ(r.result.error, "--jobs: missing value N");
    r = parse({"--bogus"});
    EXPECT_EQ(r.result.error, "unknown argument --bogus");
    // Parsing stops at the first error.
    r = parse({"--bogus", "--tiny"});
    EXPECT_FALSE(r.args.scaleExplicit);
}

TEST(Cli, WorkloadsCheckedAgainstTheRegistry)
{
    for (const char *bad : {"nosuch", "kmeans@0", "kmeans@65",
                            "kmeans@x", "kmeans@", "nosuch@8", ""}) {
        const BenchParse r = parse({"--workload", bad});
        EXPECT_FALSE(r.result.ok()) << bad;
        EXPECT_EQ(r.result.error.rfind("--workload: ", 0), 0u)
            << r.result.error;
    }
    for (const char *good : {"kmeans@1", "kmeans@64", "tpcc-no", "convoy"})
        EXPECT_TRUE(parse({"--workload", good}).result.ok()) << good;
}

TEST(Cli, PerfettoTakesAnOptionalFileAndImpliesJournal)
{
    bool journal = false, metrics = false;
    std::string perfetto, stats;
    workloads::Scale scale = workloads::Scale::Small;
    cli::Parser p("tool");
    cli::addObservability(p, &journal, &metrics, &perfetto, &stats);
    cli::addScale(p, scale, cli::ScaleFlags::Shorthands);

    ASSERT_TRUE(p.parse({"--perfetto"}).ok());
    EXPECT_EQ(perfetto, "perfetto_trace.json");
    EXPECT_TRUE(journal);

    journal = false;
    ASSERT_TRUE(p.parse({"--perfetto", "t.json", "--tiny"}).ok());
    EXPECT_EQ(perfetto, "t.json");
    EXPECT_TRUE(journal);
    EXPECT_EQ(scale, workloads::Scale::Tiny);

    // A following flag is not swallowed as the file name.
    ASSERT_TRUE(p.parse({"--perfetto", "--stats-json"}).ok());
    EXPECT_EQ(perfetto, "perfetto_trace.json");
    EXPECT_EQ(stats, "stats.json");
    EXPECT_FALSE(metrics);

    // The harness table routes --perfetto into BenchArgs::journal too.
    EXPECT_TRUE(parse({"--perfetto", "x.json"}).args.journal);
}

TEST(Cli, HelpIsGeneratedFromTheFlagTable)
{
    cli::Parser p("bench");
    BenchArgs a;
    cli::addBenchFlags(p, a);
    EXPECT_TRUE(p.parse({"--tiny", "--help", "--bogus"}).help);
    const std::string usage = p.usage();
    for (const char *entry : {"\n  --tiny ", "\n  --workload NAME ",
                              "\n  --jobs N ", "\n  --perfetto [FILE] ",
                              "\n  --no-sched-index ", "\n  --cache-clear ",
                              "\n  --help "})
        EXPECT_NE(usage.find(entry), std::string::npos) << entry;
}

TEST(Cli, ChoiceAndSystemGroup)
{
    core::SystemOptions o;
    cli::Parser p("tool");
    cli::addSystem(p, o, {"--htm", "--mech", "--cores"});
    EXPECT_TRUE(p.parse({"--htm", "l1tm", "--mech", "dyn", "--cores",
                         "16"})
                    .ok());
    EXPECT_EQ(o.htmKind, htm::HtmKind::L1TM);
    EXPECT_EQ(o.mechanism, core::Mechanism::DynamicOnly);
    EXPECT_EQ(o.numCores, 16u);
    EXPECT_EQ(p.parse({"--htm", "p9"}).error,
              "--htm: unknown value 'p9' (want p8, p8s, l1tm, infcap)");
    // Only the requested subset is registered.
    EXPECT_EQ(p.parse({"--smt", "2"}).error, "unknown argument --smt");
}

TEST(Cli, CacheFlagsWireTheDiskStoreAtEndOfParse)
{
    const std::string dir = makeTempDir();
    std::ofstream(dir + "/stale.res") << "x";
    const std::string flags[] = {"bench", "--cache-dir", dir,
                                 "--cache-clear"};
    std::vector<char *> argv;
    for (const std::string &f : flags)
        argv.push_back(const_cast<char *>(f.c_str()));

    cli::Parser p("bench");
    cli::addCache(p);
    // parse() alone writes targets only; the store is wired, and
    // --cache-clear applied, by the entry point.
    ASSERT_TRUE(p.parse({"--cache-dir", dir, "--cache-clear"}).ok());
    EXPECT_TRUE(std::filesystem::exists(dir + "/stale.res"));
    p.parseOrExit(int(argv.size()), argv.data());
    EXPECT_FALSE(std::filesystem::exists(dir + "/stale.res"));

    const bench::PreparedWorkload w =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    bench::clearMatrixCache();
    (void)bench::runMatrix({{&w, core::SystemOptions{}}}, 1);
    EXPECT_EQ(bench::matrixCacheStats().diskStores, 1u);
    EXPECT_FALSE(onlyEntry(dir).empty());

    bench::setDiskResultCache("", false);
    bench::clearMatrixCache();
    std::filesystem::remove_all(dir);
}

TEST(SystemOptionsValidate, CatchesWhatMachineConstructionWouldAbortOn)
{
    core::SystemOptions o;
    EXPECT_TRUE(o.validate(8).empty());
    EXPECT_TRUE(o.validate().empty());
    EXPECT_EQ(o.validate(9).size(), 1u);

    auto one = [](auto mutate) {
        core::SystemOptions b;
        mutate(b);
        return b.validate(1).size();
    };
    EXPECT_EQ(one([](core::SystemOptions &b) { b.numCores = 0; }), 1u);
    EXPECT_EQ(one([](core::SystemOptions &b) { b.smtPerCore = 0; }), 1u);
    EXPECT_EQ(one([](core::SystemOptions &b) { b.numaNodes = 0; }), 1u);
    EXPECT_EQ(one([](core::SystemOptions &b) {
                  b.htmKind = htm::HtmKind::P8S;
                  b.signatureBits = 0;
              }),
              1u);
    EXPECT_EQ(one([](core::SystemOptions &b) {
                  b.htmKind = htm::HtmKind::P8S;
                  b.signatureBits = 1000;
              }),
              1u);
    // The signature only matters on P8S.
    EXPECT_EQ(one([](core::SystemOptions &b) { b.signatureBits = 0; }), 0u);
    // SMT contexts count toward the thread limit.
    core::SystemOptions smt;
    smt.numCores = 4;
    smt.smtPerCore = 2;
    EXPECT_TRUE(smt.validate(8).empty());
}

TEST(BenchMath, Reduction)
{
    EXPECT_DOUBLE_EQ(bench::reduction(100, 40), 0.6);
    EXPECT_DOUBLE_EQ(bench::reduction(100, 0), 1.0);
    EXPECT_DOUBLE_EQ(bench::reduction(0, 5), 0.0); // no baseline
    // Regressions render as negative reductions, not a 0% clamp.
    EXPECT_DOUBLE_EQ(bench::reduction(10, 20), -1.0);
    EXPECT_DOUBLE_EQ(bench::reduction(100, 150), -0.5);
}

TEST(BenchMath, Geomean)
{
    EXPECT_DOUBLE_EQ(bench::geomean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(bench::geomean({}), 0.0);
    EXPECT_NEAR(bench::geomean({1.0, 1.0, 8.0}), 2.0, 1e-9);
    // Non-positive entries are ignored rather than poisoning the mean.
    EXPECT_DOUBLE_EQ(bench::geomean({0.0, 4.0}), 4.0);
}

TEST(BenchMath, SpeedupFormat)
{
    EXPECT_EQ(bench::speedupStr(2.984), "2.98x");
    EXPECT_EQ(bench::speedupStr(1.0), "1.00x");
}

TEST(BenchPrepare, CompilesAndRuns)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    EXPECT_EQ(p.wl.name, "kmeans");
    EXPECT_GT(p.compileReport.totalLoads, 0u);

    core::SystemOptions opts;
    const sim::RunResult r = bench::run(p, opts);
    EXPECT_GT(r.committedTxs, 0u);
}

TEST(EffectiveJobs, PassesThroughAndClampsTheDefault)
{
    EXPECT_EQ(bench::effectiveJobs(5), 5u);
    EXPECT_EQ(bench::effectiveJobs(1), 1u);
    const unsigned d = bench::effectiveJobs(0);
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 64u);
}

TEST(JobKey, GoldenFormatIsStable)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    const core::SystemOptions o; // paper defaults
    const bench::MatrixJob job{&p, o, 0};

    // The module fingerprint is recomputed independently so the golden
    // string stays valid when workload content evolves; everything else
    // is spelled out verbatim. Changing the key format invalidates every
    // persisted cache entry — this test makes that a deliberate act.
    const std::string text = p.wl.module.print();
    char fp[20];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(
                      bench::fnv1a(text.data(), text.size())));
    std::ostringstream expect;
    expect << "kmeans|0|" << p.wl.threads << '|' << fp
           << "|0|0|0000|8x1|1|000|64|1024|8|11110000|65536|1|24";
    EXPECT_EQ(bench::matrixJobKey(job), expect.str());
}

TEST(JobKey, TracksInPlaceModuleMutation)
{
    // hintm_lint --mutate flips hint bits on the same module object and
    // reruns; the key must change with the content, not the pointer.
    bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    const core::SystemOptions o;
    const bench::MatrixJob job{&p, o, 0};
    const std::string before = bench::matrixJobKey(job);

    for (auto &fn : p.wl.module.functions) {
        for (auto &bb : fn.blocks) {
            for (auto &in : bb.instrs) {
                if (in.op == tir::Opcode::Load && !in.safe) {
                    in.safe = true;
                    const std::string after = bench::matrixJobKey(job);
                    EXPECT_NE(before, after);
                    in.safe = false;
                    EXPECT_EQ(before, bench::matrixJobKey(job));
                    return;
                }
            }
        }
    }
    FAIL() << "no unsafe load found to mutate";
}

TEST(ResultStore, EncodeDecodeRoundTrip)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::Full;
    opts.collectTxSizes = true;
    opts.collectRawStats = true;
    opts.profileSharing = true;
    const sim::RunResult r = bench::run(p, opts);

    const std::string payload = bench::encodeRunResult(r);
    sim::RunResult out;
    ASSERT_TRUE(bench::decodeRunResult(payload, out));
    EXPECT_EQ(out.cycles, r.cycles);
    EXPECT_EQ(out.committedTxs, r.committedTxs);
    EXPECT_EQ(out.rawStats, r.rawStats);
    EXPECT_EQ(bench::encodeRunResult(out), payload);

    // Truncations and trailing garbage are rejected, never misread.
    for (const std::size_t cut : {std::size_t(0), payload.size() / 2,
                                  payload.size() - 1}) {
        sim::RunResult bad;
        EXPECT_FALSE(
            bench::decodeRunResult(payload.substr(0, cut), bad));
    }
    sim::RunResult bad;
    EXPECT_FALSE(bench::decodeRunResult(payload + "x", bad));
}

TEST(ResultStore, LoadSurvivesCorruptionAndVersionSkew)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    const sim::RunResult r = bench::run(p, {});
    const std::string dir = makeTempDir();

    const bench::ResultStore store(dir, 0x1234);
    sim::RunResult out;
    EXPECT_FALSE(store.load("some-key", out)); // absent = miss

    store.store("some-key", r);
    ASSERT_TRUE(store.load("some-key", out));
    EXPECT_EQ(bench::encodeRunResult(out), bench::encodeRunResult(r));
    EXPECT_FALSE(store.load("other-key", out));

    // A rebuilt binary (different content hash) must not see entries.
    const bench::ResultStore rebuilt(dir, 0x9999);
    EXPECT_FALSE(rebuilt.load("some-key", out));

    // Flip one payload byte: the checksum rejects the entry.
    const std::string path = onlyEntry(dir);
    ASSERT_FALSE(path.empty());
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        bytes = ss.str();
    }
    std::string flipped = bytes;
    flipped[flipped.size() - 12] ^= 0x40;
    std::ofstream(path, std::ios::binary) << flipped;
    EXPECT_FALSE(store.load("some-key", out));

    // Truncation reads as a miss too.
    std::ofstream(path, std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);
    EXPECT_FALSE(store.load("some-key", out));

    // Restore the pristine entry, then --cache-clear semantics.
    std::ofstream(path, std::ios::binary) << bytes;
    ASSERT_TRUE(store.load("some-key", out));
    bench::ResultStore::clearDir(dir);
    EXPECT_FALSE(store.load("some-key", out));

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, RunMatrixServesSecondRunFromDisk)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    core::SystemOptions a, b;
    a.htmKind = htm::HtmKind::P8;
    b.htmKind = htm::HtmKind::P8S;
    const std::string dir = makeTempDir();

    bench::setDiskResultCache(dir, true);
    bench::clearMatrixCache();
    const auto first = bench::runMatrix({{&p, a}, {&p, b}}, 2);
    auto st = bench::matrixCacheStats();
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.diskHits, 0u);
    EXPECT_EQ(st.diskStores, 2u);

    // Drop the in-memory cache (a "new process"): disk serves both.
    bench::clearMatrixCache();
    const auto second = bench::runMatrix({{&p, a}, {&p, b}}, 2);
    st = bench::matrixCacheStats();
    EXPECT_EQ(st.misses, 0u);
    EXPECT_EQ(st.diskHits, 2u);
    EXPECT_EQ(st.diskStores, 0u);
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(bench::encodeRunResult(second[i]),
                  bench::encodeRunResult(first[i]));
    }

    // Journal-carrying jobs never touch the store.
    core::SystemOptions j = a;
    j.journal = true;
    bench::clearMatrixCache();
    (void)bench::runMatrix({{&p, j}}, 1);
    st = bench::matrixCacheStats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.diskStores, 0u);
    bench::clearMatrixCache();
    (void)bench::runMatrix({{&p, j}}, 1);
    st = bench::matrixCacheStats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.diskHits, 0u);

    bench::setDiskResultCache("", false);
    bench::clearMatrixCache();
    std::filesystem::remove_all(dir);
}
