#include "cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>

#include "bench_util.hh"
#include "common/logging.hh"
#include "result_store.hh"

namespace hintm
{
namespace bench
{
namespace cli
{

std::optional<std::uint64_t>
parseNumber(const std::string &s, std::uint64_t max)
{
    // strtoull alone skips whitespace, accepts a sign and stops at the
    // first bad character; only a bare run of digits is a number here.
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno == ERANGE || *end != '\0' || v > max)
        return std::nullopt;
    return std::uint64_t(v);
}

const char *
scaleName(workloads::Scale s)
{
    switch (s) {
      case workloads::Scale::Tiny: return "tiny";
      case workloads::Scale::Small: return "small";
      case workloads::Scale::Large: return "large";
    }
    return "?";
}

std::optional<workloads::Scale>
parseScale(const std::string &s)
{
    if (s == "tiny")
        return workloads::Scale::Tiny;
    if (s == "small")
        return workloads::Scale::Small;
    if (s == "large")
        return workloads::Scale::Large;
    return std::nullopt;
}

Parser::Parser(std::string prog, const std::string &help_names)
    : prog_(std::move(prog))
{
    // flags_[0]: parse() stops at it; usage() lists it last.
    flag(help_names, "show this help and exit", [] {});
}

void
Parser::add(const std::string &names, const std::string &metavar,
            const std::string &help, Arg arg,
            std::function<std::string(const std::string *)> apply)
{
    Flag f{names, {}, metavar, help, arg, std::move(apply)};
    // "-o, --output" -> {"-o", "--output"}.
    for (std::size_t pos = 0, end; pos < names.size(); pos = end + 2) {
        end = std::min(names.find(", ", pos), names.size());
        f.names.push_back(names.substr(pos, end - pos));
        HINTM_ASSERT(!find(f.names.back()), "flag ", names, " redeclared");
    }
    flags_.push_back(std::move(f));
}

const Parser::Flag *
Parser::find(const std::string &name) const
{
    for (const Flag &f : flags_) {
        if (std::find(f.names.begin(), f.names.end(), name) != f.names.end())
            return &f;
    }
    return nullptr;
}

void
Parser::flag(const std::string &names, const std::string &help,
             std::function<void()> on)
{
    add(names, "", help, Arg::None, [on](const std::string *) {
        on();
        return std::string();
    });
}

void
Parser::flag(const std::string &names, const std::string &help,
             bool &target)
{
    flag(names, help, [&target] { target = true; });
}

void
Parser::option(const std::string &names, const std::string &metavar,
               const std::string &help,
               std::function<std::string(const std::string &)> apply)
{
    add(names, metavar, help, Arg::Required,
        [apply](const std::string *v) { return apply(*v); });
}

void
Parser::option(const std::string &names, const std::string &metavar,
               const std::string &help, std::string &target)
{
    option(names, metavar, help, [&target](const std::string &v) {
        target = v;
        return std::string();
    });
}

void
Parser::optionalValue(const std::string &names, const std::string &metavar,
                      const std::string &help,
                      std::function<void(const std::string *)> on)
{
    add(names, "[" + metavar + "]", help, Arg::Optional,
        [on](const std::string *v) {
            on(v);
            return std::string();
        });
}

Parsed
Parser::parse(const std::vector<std::string> &args) const
{
    Parsed out;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        const Flag *f = find(a);
        if (!f) {
            out.error = "unknown argument " + a;
            return out;
        }
        if (f == &flags_.front()) {
            out.help = true;
            return out;
        }
        const std::string *value = nullptr;
        if (f->arg == Arg::Required) {
            if (i + 1 >= args.size()) {
                out.error = a + ": missing value " + f->metavar;
                return out;
            }
            value = &args[++i];
        } else if (f->arg == Arg::Optional && i + 1 < args.size() &&
                   args[i + 1].rfind('-', 0) != 0) {
            value = &args[++i];
        }
        if (const std::string err = f->apply(value); !err.empty()) {
            out.error = a + ": " + err;
            return out;
        }
    }
    return out;
}

void
Parser::parseOrExit(int argc, char **argv) const
{
    const Parsed r =
        parse(std::vector<std::string>(argv + std::min(argc, 1),
                                       argv + argc));
    if (r.help) {
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }
    if (!r.ok())
        fail(r.error);
    for (const auto &fn : atEnd_)
        fn();
}

void
Parser::fail(const std::string &msg) const
{
    std::fprintf(stderr, "%s: %s\nusage: %s [options] (--help lists them)\n",
                 prog_.c_str(), msg.c_str(), prog_.c_str());
    std::exit(2);
}

void
Parser::failOn(const std::vector<std::string> &errors) const
{
    if (!errors.empty())
        fail(errors.front());
}

std::string
Parser::usage() const
{
    constexpr std::size_t helpColumn = 22;
    std::string out = "usage: " + prog_ + " [options]\n";
    auto entry = [&](const std::string &left, const std::string &help) {
        std::string line = "  " + left;
        line += line.size() + 2 <= helpColumn
                    ? std::string(helpColumn - line.size(), ' ')
                    : "  ";
        // Continuation lines of a multi-line help text align with it.
        for (char c : help) {
            line += c;
            if (c == '\n')
                line += std::string(helpColumn, ' ');
        }
        out += line + "\n";
    };
    // The help flag leads the table but closes the listing.
    for (std::size_t i = 1; i <= flags_.size(); ++i) {
        const Flag &f = flags_[i % flags_.size()];
        entry(f.display + (f.metavar.empty() ? "" : " ") + f.metavar, f.help);
    }
    if (!epilogue_.empty())
        out += "\n" + epilogue_;
    return out;
}

// ---- shared flag groups ---------------------------------------------

void
addWorkload(Parser &p, std::string &target, const std::string &help)
{
    p.option("--workload", "NAME", help, [&target](const std::string &v) {
        target = v;
        return workloads::nameError(v);
    });
}

void
addWorkloads(Parser &p, std::vector<std::string> &targets)
{
    p.option("--workload", "NAME",
             "run only this workload (repeatable; default: the suite)",
             [&targets](const std::string &v) {
                 targets.push_back(v);
                 return workloads::nameError(v);
             });
}

void
addScale(Parser &p, workloads::Scale &target, ScaleFlags which,
         bool *is_explicit)
{
    using workloads::Scale;
    auto set = [&target, is_explicit](Scale s) {
        target = s;
        if (is_explicit)
            *is_explicit = true;
    };
    if (which != ScaleFlags::Shorthands) {
        p.option("--scale", "S",
                 std::string("tiny | small | large (default ") +
                     scaleName(target) + ")",
                 [set](const std::string &v) {
                     const auto s = parseScale(v);
                     if (!s)
                         return "unknown value '" + v +
                                "' (want tiny, small, large)";
                     set(*s);
                     return std::string();
                 });
    }
    for (const Scale s : {Scale::Tiny, Scale::Small, Scale::Large}) {
        if (which == ScaleFlags::ScaleOrTiny && s != Scale::Tiny)
            break;
        const std::string name = scaleName(s);
        p.flag("--" + name,
               which == ScaleFlags::Shorthands
                   ? "run at " + name + " scale"
                   : "shorthand for --scale " + name,
               [set, s] { set(s); });
    }
}

void
addSystem(Parser &p, core::SystemOptions &o,
          std::initializer_list<const char *> names)
{
    using K = htm::HtmKind;
    using M = core::Mechanism;
    for (const std::string_view n : names) {
        if (n == "--htm") {
            p.choice("--htm", "KIND", "p8 | p8s | l1tm | infcap", o.htmKind,
                     {{"p8", K::P8},
                      {"p8s", K::P8S},
                      {"l1tm", K::L1TM},
                      {"infcap", K::InfCap}});
        } else if (n == "--mech") {
            p.choice("--mech", "M", "baseline | static | dyn | full",
                     o.mechanism,
                     {{"baseline", M::Baseline},
                      {"static", M::StaticOnly},
                      {"dyn", M::DynamicOnly},
                      {"full", M::Full}});
        } else if (n == "--policy") {
            p.choice("--policy", "P", "conflict loser: attacker | requester",
                     o.conflictPolicy,
                     {{"attacker", htm::ConflictPolicy::AttackerWins},
                      {"requester", htm::ConflictPolicy::RequesterLoses}});
        } else if (n == "--cores") {
            p.option("--cores", "N", "physical cores (default 8)",
                     o.numCores);
        } else if (n == "--smt") {
            p.option("--smt", "N", "hardware contexts per core (default 1)",
                     o.smtPerCore);
        } else if (n == "--seed") {
            p.option("--seed", "N", "RNG seed (default 1)", o.seed);
        } else if (n == "--buffer") {
            p.option("--buffer", "N", "TX buffer entries (default 64)",
                     o.bufferEntries);
        } else if (n == "--signature") {
            p.option("--signature", "N",
                     "signature bits for p8s (default 1024)",
                     o.signatureBits);
        } else if (n == "--retries") {
            p.option("--retries", "N", "transient-abort retries (default 8)",
                     o.maxRetries);
        } else if (n == "--numa-nodes") {
            p.option("--numa-nodes", "N",
                     "two-tier NUMA latency model with N home nodes "
                     "(default 1 = flat)",
                     o.numaNodes);
        } else if (n == "--numa-latency") {
            p.option("--numa-latency", "N",
                     "extra cycles for a remote-home bus transaction "
                     "(default 24)",
                     o.numaRemoteLatency);
        } else if (n == "--preserve") {
            p.flag("--preserve", "preserve-read-only page policy",
                   o.preserveReadOnly);
        } else if (n == "--notary") {
            p.flag("--notary", "honor programmer page annotations",
                   o.notaryAnnotations);
        } else if (n == "--preabort") {
            p.flag("--preabort",
                   "convert capacity overflows to critical sections",
                   o.preAbortHandler);
        } else if (n == "--validate") {
            p.flag("--validate", "check safe-store initializing property",
                   o.validateSafeStores);
        } else {
            HINTM_PANIC("no system flag ", n);
        }
    }
}

void
addCache(Parser &p)
{
    struct Cache
    {
        std::string dir;
        bool off = false;
        bool clear = false;
    };
    const auto c = std::make_shared<Cache>();
    p.option("--cache-dir", "DIR",
             "persistent result-cache location (default ~/.cache/hintm)",
             c->dir);
    p.flag("--no-disk-cache", "run without the persistent result cache",
           c->off);
    p.flag("--cache-clear", "wipe the cache directory before running",
           c->clear);
    p.atEnd([c] {
        const std::string dir =
            c->dir.empty() ? ResultStore::defaultDir() : c->dir;
        if (c->clear)
            ResultStore::clearDir(dir);
        setDiskResultCache(dir, !c->off);
    });
}

void
addObservability(Parser &p, bool *journal, bool *metrics,
                 std::string *perfetto, std::string *stats_json)
{
    if (journal) {
        p.flag("--journal", "record every TX attempt (observation only)",
               *journal);
    }
    if (metrics) {
        p.flag("--metrics",
               "collect capacity-pressure metrics (observation only)",
               *metrics);
    }
    if (perfetto) {
        p.optionalValue("--perfetto", "FILE",
                        journal ? "write a Chrome-trace timeline (implies "
                                  "--journal;\ndefault perfetto_trace.json)"
                                : "write a Chrome-trace timeline "
                                  "(default perfetto_trace.json)",
                        [=](const std::string *v) {
                            *perfetto = v ? *v : "perfetto_trace.json";
                            if (journal)
                                *journal = true;
                        });
    }
    if (stats_json) {
        p.optionalValue("--stats-json", "FILE",
                        "write machine-readable stats records "
                        "(default stats.json)",
                        [=](const std::string *v) {
                            *stats_json = v ? *v : "stats.json";
                        });
    }
}

void
addReferencePaths(Parser &p, core::SystemOptions *opts)
{
    using O = core::SystemOptions;
    const auto ref = [&p, opts](const char *name, const char *help,
                                void (*set_default)(bool), bool O::*field) {
        p.flag(name, help, [=] {
            set_default(false);
            if (opts)
                opts->*field = false;
        });
    };
    ref("--no-snoop-filter", "reference broadcast memory path (cross-check)",
        O::setSnoopFilterDefault, &O::snoopFilter);
    ref("--no-directory",
        "broadcast coherence instead of the owning directory (cross-check)",
        O::setDirectoryDefault, &O::directory);
    ref("--no-decode-cache",
        "reference Instr-walking interpreter (cross-check)",
        O::setDecodeCacheDefault, &O::decodeCache);
    ref("--no-sched-index",
        "reference O(contexts) scheduler scan (cross-check)",
        O::setSchedIndexDefault, &O::schedIndex);
}

void
addBenchFlags(Parser &p, BenchArgs &a)
{
    struct Exports
    {
        std::string json, perfetto, stats;
        bool metrics = false;
    };
    const auto x = std::make_shared<Exports>();
    addScale(p, a.scale, ScaleFlags::Shorthands, &a.scaleExplicit);
    p.flag("--preserve", "also run the preserve-read-only page policy",
           a.preserve);
    addWorkloads(p, a.only);
    p.option("--jobs", "N",
             "concurrent simulations (default: hardware concurrency)",
             a.jobs);
    p.option("--json", "FILE", "write a per-run perf report to FILE",
             x->json);
    addReferencePaths(p, nullptr);
    p.flag("--lint",
           "race-lint every workload as it is prepared; abort on any "
           "diagnostic",
           [] { setLintOnPrepare(true); });
    addObservability(p, &a.journal, &x->metrics, &x->perfetto, &x->stats);
    addCache(p);
    p.atEnd([&a, x] {
        if (a.journal)
            core::SystemOptions::setJournalDefault(true);
        if (x->metrics)
            core::SystemOptions::setMetricsDefault(true);
        if (!x->json.empty())
            setJsonReport(x->json);
        if (!x->perfetto.empty() || !x->stats.empty())
            setObservabilityExport(x->perfetto, x->stats);
    });
}

} // namespace cli

BenchArgs
BenchArgs::parse(int argc, char **argv)
{
    BenchArgs a;
    std::string prog = argc > 0 ? argv[0] : "bench";
    prog.erase(0, prog.rfind('/') + 1);
    cli::Parser p(prog);
    cli::addBenchFlags(p, a);
    p.parseOrExit(argc, argv);
    return a;
}

} // namespace bench
} // namespace hintm
