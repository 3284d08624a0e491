/**
 * @file
 * Shared definitions for the reproduction benches: the paper's
 * technique orderings, re-exported from the sweep-runner subsystem
 * that executes every bench's evaluation matrix, plus the flag
 * parsing, row/column selection and calibration the open-loop
 * benches (saturation, reliability, fleet, multi-tenant) share.
 *
 * All formatting/emission helpers live in src/runner (sweep_result,
 * sweep_cli); benches carry no private output code.
 */

#ifndef CONDUIT_BENCH_COMMON_HH
#define CONDUIT_BENCH_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
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

/**
 * Non-negative integer (> 0 unless @p allow_zero) no larger than
 * @p max, which defaults to what fits @p T, or usage-exit.
 */
template <typename T = unsigned long>
inline T
parseCount(const char *flag, const std::string &value,
           bool allow_zero = false,
           std::uint64_t max = std::numeric_limits<T>::max())
{
    const auto v = runner::parseUintFlag(value, max);
    if (!v || (*v == 0 && !allow_zero))
        badFlagValue(flag, value);
    return static_cast<T>(*v);
}

/** Finite non-negative double (> 0 unless @p allow_zero), or usage-exit. */
inline double
parsePositive(const char *flag, const std::string &value,
              bool allow_zero = false)
{
    const auto v = runner::parseDoubleFlag(value);
    if (!v || (*v == 0.0 && !allow_zero))
        badFlagValue(flag, value);
    return *v;
}

/** A P/E-cycle age (0 = fresh) that fits the config, or usage-exit. */
inline std::uint32_t
parseCycles(const char *flag, const std::string &value)
{
    return parseCount<std::uint32_t>(flag, value, /*allow_zero=*/true);
}

/**
 * --rates: absolute offered loads in jobs/s, emitted ascending and
 * deduplicated so every policy's block is strictly monotone in load.
 */
inline std::vector<double>
parseRates(const std::string &csv)
{
    std::vector<double> rates;
    for (const std::string &tok : runner::splitCsv(csv))
        rates.push_back(parsePositive("--rates", tok));
    std::sort(rates.begin(), rates.end());
    rates.erase(std::unique(rates.begin(), rates.end()), rates.end());
    return rates;
}

/**
 * Most jobs a --jobs or --warmup-jobs count may name. A sweep builds
 * each cell's whole arrival schedule before it runs, so a count near
 * the type's limit would abort on allocation or spin building it
 * instead of exiting 2. The bound sits far above the hundreds of
 * jobs per cell the benches run. Each bench's usage text states it.
 */
inline constexpr std::uint64_t kMaxOfferJobs = 1000000;

/**
 * The open-loop traffic flags, written into @p offer: --jobs N,
 * --warmup-jobs N, --arrivals KIND and --arrival-seed N. Returns
 * false for any other flag, so a bench's SweepCli hook tries this
 * first and then its own flags.
 */
inline bool
parseOfferFlag(runner::Offer &offer, const std::string &flag,
               const std::function<std::string()> &value)
{
    if (flag == "--jobs") {
        offer.jobs = parseCount("--jobs", value(), /*allow_zero=*/false,
                                kMaxOfferJobs);
    } else if (flag == "--warmup-jobs") {
        offer.warmupJobs = parseCount("--warmup-jobs", value(),
                                      /*allow_zero=*/true, kMaxOfferJobs);
    } else if (flag == "--arrivals") {
        const std::string v = value();
        if (!parseArrivalKind(v, offer.arrivals)) {
            std::fprintf(stderr, "unknown --arrivals '%s'; accepted: %s\n",
                         v.c_str(),
                         runner::joinLabels(arrivalKindNames()).c_str());
            std::exit(2);
        }
    } else if (flag == "--arrival-seed") {
        offer.arrivalSeed = parseCount("--arrival-seed", value());
    } else {
        return false;
    }
    return true;
}

/** @} */

/** @name Row/column selection of the open-loop benches @{ */

/**
 * Workload rows: @p defaults, or every Table 3 workload --workloads
 * names, in Table 3 order. Services --list-workloads and
 * --list-techniques (@p columns: the names --techniques accepts);
 * an unknown workload exits 2.
 */
inline std::vector<WorkloadId>
selectWorkloads(const runner::SweepCli &cli,
                std::vector<WorkloadId> defaults,
                const std::vector<std::string> &columns)
{
    std::vector<std::string> names;
    for (WorkloadId id : allWorkloads())
        names.push_back(workloadName(id));
    if (cli.listWorkloads)
        runner::listAndExit(names);
    if (cli.listTechniques)
        runner::listAndExit(columns);
    const auto keep = runner::splitCsv(cli.workloadFilter);
    if (!runner::reportUnknown(keep, names, "workload"))
        std::exit(2);
    if (keep.empty())
        return defaults;
    std::vector<WorkloadId> rows;
    for (WorkloadId id : allWorkloads()) {
        if (std::find(keep.begin(), keep.end(), workloadName(id)) !=
            keep.end())
            rows.push_back(id);
    }
    return rows;
}

/**
 * Policy columns of cells served by the SSD engine: --techniques,
 * or @p defaults when it is empty. A host baseline (CPU/GPU) or a
 * name the policy table lacks exits 2.
 */
inline std::vector<std::string>
selectSsdPolicies(const runner::SweepCli &cli,
                  std::vector<std::string> defaults)
{
    const auto keep = runner::splitCsv(cli.techniqueFilter);
    for (const std::string &p : keep) {
        if (p == "CPU" || p == "GPU") {
            std::fprintf(stderr,
                         "cells run on the SSD engine; host baseline "
                         "'%s' cannot serve jobs\n",
                         p.c_str());
            std::exit(2);
        }
    }
    if (!runner::reportUnknown(keep, policyNames(), "policy"))
        std::exit(2);
    return keep.empty() ? defaults : keep;
}

/** @} */

/**
 * Service time, in simulated seconds, of one @p tenant job alone on
 * a fresh @p device: the anchor the open-loop benches scale offered
 * load (and SLOs) from.
 */
inline double
isolatedServiceSeconds(runner::SweepRunner &runner,
                       const DeviceOptions &device,
                       const runner::Tenant &tenant)
{
    runner::Offer one;
    one.jobs = 1;
    return ticksToSeconds(
        runner.runAll({runner::loadScenario(device, tenant, one)})
            .front()
            .makespan);
}

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
