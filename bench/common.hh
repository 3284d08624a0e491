/**
 * @file
 * Shared definitions for the reproduction benches: the paper's
 * technique orderings, re-exported from the sweep-runner subsystem
 * that executes every bench's evaluation matrix.
 *
 * All formatting/emission helpers live in src/runner (sweep_result,
 * sweep_cli); benches carry no private output code.
 */

#ifndef CONDUIT_BENCH_COMMON_HH
#define CONDUIT_BENCH_COMMON_HH

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/runner/sweep_cli.hh"

namespace conduit::bench
{

/** @name Shared numeric flag parsing (SweepCli extra-flag hooks) @{ */

[[noreturn]] inline void
badFlagValue(const char *flag, const std::string &value)
{
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag,
                 value.c_str());
    std::exit(2);
}

/** Non-negative integer (> 0 unless @p allow_zero), or usage-exit. */
inline unsigned long
parseCount(const char *flag, const std::string &value,
           bool allow_zero = false)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(value.c_str(), &end, 10);
    if (errno != 0 || end == value.c_str() || *end != '\0' ||
        value[0] == '-' || (v == 0 && !allow_zero))
        badFlagValue(flag, value);
    return v;
}

/** Non-negative double (> 0 unless @p allow_zero), or usage-exit. */
inline double
parsePositive(const char *flag, const std::string &value,
              bool allow_zero = false)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(value.c_str(), &end);
    if (errno != 0 || end == value.c_str() || *end != '\0' ||
        !(allow_zero ? v >= 0.0 : v > 0.0))
        badFlagValue(flag, value);
    return v;
}

/** @} */

using runner::RunMatrix;
using runner::RunSpec;
using runner::SweepCli;
using runner::SweepResult;
using runner::SweepRunner;
using runner::gmean;
using runner::printHeader;

/** Techniques in the paper's presentation order (Fig. 5 / Fig. 7). */
inline const std::vector<std::string> &
motivationTechniques()
{
    static const std::vector<std::string> t = {
        "GPU",           "ISP",        "PuD-SSD",
        "Flash-Cosmos",  "Ares-Flash", "BW-Offloading",
        "DM-Offloading", "Ideal"};
    return t;
}

inline const std::vector<std::string> &
evaluationTechniques()
{
    static const std::vector<std::string> t = {
        "GPU",           "ISP",           "PuD-SSD",
        "Flash-Cosmos",  "Ares-Flash",    "BW-Offloading",
        "DM-Offloading", "Conduit",       "Ideal"};
    return t;
}

/**
 * The standard speedup-table matrix: every workload under the CPU
 * baseline plus @p techniques, on the default device.
 */
inline RunMatrix
workloadTechniqueMatrix(const std::vector<std::string> &techniques)
{
    RunMatrix m;
    m.workloads(allWorkloads());
    m.technique("CPU");
    m.techniques(techniques);
    return m;
}

/** Technique columns of a sweep, minus the CPU baseline. */
inline std::vector<std::string>
nonBaselineColumns(const SweepResult &sweep)
{
    std::vector<std::string> columns = sweep.techniqueLabels();
    columns.erase(std::remove(columns.begin(), columns.end(),
                              std::string("CPU")),
                  columns.end());
    return columns;
}

} // namespace conduit::bench

#endif // CONDUIT_BENCH_COMMON_HH
