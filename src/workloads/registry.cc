/**
 * @file
 * Workload registry: name-based lookup used by the benchmark harnesses
 * and examples.
 */

#include "workloads.hh"

#include <cctype>
#include <cstdlib>
#include <utility>

#include "common/logging.hh"

namespace hintm
{
namespace workloads
{

const std::vector<std::string> &
allNames()
{
    static const std::vector<std::string> names = {
        "bayes",  "genome",   "intruder", "kmeans",  "labyrinth",
        "ssca2",  "vacation", "yada",     "tpcc-no", "tpcc-p",
    };
    return names;
}

namespace
{

using Builder = Workload (*)(Scale, unsigned);

Workload
buildHintRaceClean(Scale s, unsigned threads)
{
    return buildHintRace(s, threads);
}

/** Every buildable kernel. The explorer-only adversarial kernels
 * (convoy, hintrace) resolve by name but stay out of allNames(): the
 * figure pipelines iterate that list. */
const std::pair<const char *, Builder> builders[] = {
    {"bayes", buildBayes}, {"genome", buildGenome},
    {"intruder", buildIntruder}, {"kmeans", buildKmeans},
    {"labyrinth", buildLabyrinth}, {"ssca2", buildSsca2},
    {"vacation", buildVacation}, {"yada", buildYada},
    {"tpcc-no", buildTpccNo}, {"tpcc-p", buildTpccP},
    {"convoy", buildConvoy}, {"hintrace", buildHintRaceClean},
};

/** The builder and thread count (0 = the paper's deployment) for
 * "name[@N]", or null with a diagnostic in @p err. */
Builder
resolve(const std::string &name, unsigned &threads, std::string &err)
{
    const std::size_t at = name.find('@');
    const std::string base = name.substr(0, at);
    threads = 0;
    if (at != std::string::npos) {
        const std::string n = name.substr(at + 1);
        char *end = nullptr;
        const unsigned long v = std::strtoul(n.c_str(), &end, 10);
        if (n.empty() || !std::isdigit(static_cast<unsigned char>(n[0])) ||
            *end != '\0' || v < 1 || v > 64) {
            err = "bad thread-count suffix in workload '" + name +
                  "' (want name@N with N in 1..64)";
            return nullptr;
        }
        threads = unsigned(v);
    }
    for (const auto &[kernel, build] : builders) {
        if (base == kernel)
            return build;
    }
    err = "unknown workload '" + base + "'";
    return nullptr;
}

} // namespace

std::string
nameError(const std::string &name)
{
    unsigned threads;
    std::string err;
    resolve(name, threads, err);
    return err;
}

Workload
byName(const std::string &name, Scale s)
{
    unsigned threads;
    std::string err;
    const Builder build = resolve(name, threads, err);
    if (!build)
        HINTM_FATAL(err);
    Workload w = build(s, threads);
    // Keep the suffixed name: it is part of every result-cache key.
    w.name = name;
    return w;
}

} // namespace workloads
} // namespace hintm
