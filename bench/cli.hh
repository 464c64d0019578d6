/**
 * @file
 * The one command-line layer behind every front end (the hintm_* tools
 * and the figure/ablation harnesses). A front end declares each flag
 * once — spelling, metavar, help text and target — and parsing, the
 * --help text and the error path all come from that table.
 *
 * Parser::parse reports errors as values, so tests drive a flag table
 * in-process. Only Parser::parseOrExit prints: usage on stdout for
 * --help (exit 0), or a one-line diagnostic on stderr (exit 2).
 *
 * The shared groups bind flags several front ends accept. Each takes
 * the exact subset a front end accepts, so none gains a flag.
 */

#ifndef HINTM_BENCH_CLI_HH
#define HINTM_BENCH_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/hintm.hh"
#include "workloads/workloads.hh"

namespace hintm
{
namespace bench
{

struct BenchArgs;

namespace cli
{

/** The whole of @p s as an unsigned number no larger than @p max:
 * decimal, 0x-hex or 0-octal, with no sign, whitespace or trailing
 * characters. */
std::optional<std::uint64_t>
parseNumber(const std::string &s,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** "tiny" | "small" | "large", and back. */
std::optional<workloads::Scale> parseScale(const std::string &s);
const char *scaleName(workloads::Scale s);

struct Parsed
{
    /** --help was given (parsing stopped there). */
    bool help = false;
    /** One-line diagnostic; empty on success. */
    std::string error;

    bool ok() const { return error.empty(); }
};

class Parser
{
  public:
    /** @p help_names: spellings of the built-in help flag. */
    explicit Parser(std::string prog,
                    const std::string &help_names = "--help");

    // @p names is one spelling or several ("-o, --output"). A value
    // callback returns a diagnostic (parse prefixes the flag), or empty
    // on success.

    void flag(const std::string &names, const std::string &help,
              std::function<void()> on);
    void flag(const std::string &names, const std::string &help,
              bool &target);
    void option(const std::string &names, const std::string &metavar,
                const std::string &help,
                std::function<std::string(const std::string &)> apply);
    void option(const std::string &names, const std::string &metavar,
                const std::string &help, std::string &target);

    /** A strictly parsed number, range-checked against T; @p then runs
     * after each successful parse. */
    template <typename T>
        requires std::is_unsigned_v<T>
    void
    option(const std::string &names, const std::string &metavar,
           const std::string &help, T &target,
           std::function<void()> then = {})
    {
        option(names, metavar, help,
               [&target, then](const std::string &v) {
                   const auto n =
                       parseNumber(v, std::numeric_limits<T>::max());
                   if (!n)
                       return "'" + v + "' is not a number in range";
                   target = T(*n);
                   if (then)
                       then();
                   return std::string();
               });
    }

    /** One of a fixed set of spellings; the help text gains the
     * target's current spelling as the default. */
    template <typename T>
    void
    choice(const std::string &names, const std::string &metavar,
           std::string help, T &target,
           std::vector<std::pair<std::string, T>> values)
    {
        std::string want;
        for (const auto &[spelling, value] : values) {
            want += (want.empty() ? "" : ", ") + spelling;
            if (value == target)
                help += " (default " + spelling + ")";
        }
        option(names, metavar, help,
               [&target, values, want](const std::string &v) {
                   for (const auto &[spelling, value] : values) {
                       if (v == spelling) {
                           target = value;
                           return std::string();
                       }
                   }
                   return "unknown value '" + v + "' (want " + want + ")";
               });
    }

    /** A value that may be omitted: the next argument is taken unless
     * it starts with '-'. @p on gets null when omitted. */
    void optionalValue(const std::string &names, const std::string &metavar,
                       const std::string &help,
                       std::function<void(const std::string *)> on);

    /** Text printed after the flag list in --help. */
    void epilogue(std::string text) { epilogue_ = std::move(text); }

    /** Run @p fn after a successful parseOrExit (wiring that needs
     * every flag's final value), in registration order. */
    void atEnd(std::function<void()> fn) { atEnd_.push_back(std::move(fn)); }

    /** Parse @p args (argv without the program name) into the targets;
     * prints nothing and never exits. */
    Parsed parse(const std::vector<std::string> &args) const;

    /** The entry point: parse, handle --help and errors, run atEnd. */
    void parseOrExit(int argc, char **argv) const;

    /** Print "prog: msg" and a usage hint on stderr; exit 2. */
    [[noreturn]] void fail(const std::string &msg) const;

    /** fail() with the first of @p errors, if any. */
    void failOn(const std::vector<std::string> &errors) const;

    /** The --help text, generated from the flag table. */
    std::string usage() const;

  private:
    enum class Arg : std::uint8_t
    {
        None,
        Required,
        Optional
    };

    struct Flag
    {
        /** As declared ("-o, --output"), and split into spellings. */
        std::string display;
        std::vector<std::string> names;
        std::string metavar;
        std::string help;
        Arg arg = Arg::None;
        /** Gets the value (null when absent); returns a diagnostic. */
        std::function<std::string(const std::string *)> apply;
    };

    void add(const std::string &names, const std::string &metavar,
             const std::string &help, Arg arg,
             std::function<std::string(const std::string *)> apply);
    const Flag *find(const std::string &name) const;

    std::string prog_;
    /** flags_[0] is the help flag. */
    std::vector<Flag> flags_;
    std::string epilogue_;
    std::vector<std::function<void()>> atEnd_;
};

// ---- shared flag groups ---------------------------------------------

/** --workload NAME, checked against the workload registry (name@N
 * included) as it is parsed; the last one wins. */
void addWorkload(Parser &p, std::string &target, const std::string &help);

/** The repeatable --workload: every occurrence is appended. */
void addWorkloads(Parser &p, std::vector<std::string> &targets);

enum class ScaleFlags : std::uint8_t
{
    All,         ///< --scale S and --tiny/--small/--large
    ScaleOrTiny, ///< --scale S and --tiny
    Shorthands,  ///< --tiny/--small/--large
};

/** Scale flags; @p is_explicit (optional) is set when one is given. */
void addScale(Parser &p, workloads::Scale &target, ScaleFlags which,
              bool *is_explicit = nullptr);

/**
 * SystemOptions flags bound to their fields, registered in the order
 * @p names gives: --htm --mech --policy --cores --smt --seed --buffer
 * --signature --retries --numa-nodes --numa-latency --preserve
 * --notary --preabort --validate.
 */
void addSystem(Parser &p, core::SystemOptions &opts,
               std::initializer_list<const char *> names);

/** --cache-dir DIR, --no-disk-cache and --cache-clear, wired to the
 * persistent result cache at end of parse. */
void addCache(Parser &p);

/** --journal, --metrics, --perfetto [FILE] and --stats-json [FILE],
 * each omitted when its target is null. --perfetto also sets *journal
 * (a timeline needs records). */
void addObservability(Parser &p, bool *journal, bool *metrics,
                      std::string *perfetto, std::string *stats_json);

/** --no-snoop-filter, --no-directory, --no-decode-cache and
 * --no-sched-index: each flips the process-wide SystemOptions default
 * and, when given, @p opts. */
void addReferencePaths(Parser &p, core::SystemOptions *opts);

/** The figure/ablation harness flag set, with its process-wide wiring
 * (observability defaults and exports, cache) run at end of parse. */
void addBenchFlags(Parser &p, BenchArgs &a);

} // namespace cli
} // namespace bench
} // namespace hintm

#endif // HINTM_BENCH_CLI_HH
