/**
 * @file
 * Fleet-scale serving: rack-level saturation and SLO tails.
 *
 * One device serves one job stream; a deployment serves tenants from
 * a rack of mixed-age drives behind a host scheduler. This bench
 * sweeps fleet size x age mix x placement policy x offered load:
 * every cell is one deterministic cluster simulation (src/cluster) —
 * N devices, the merged open-loop tenant streams, and a placement
 * policy routing each arrival on host-visible backlog state. Rows
 * report fleet throughput, per-device utilization and routing
 * imbalance, the fleet p99 / p99.99 request tail, and per-tenant SLO
 * attainment. Cells are independent simulations, so the sweep
 * parallelizes like every other bench while stdout and CSV stay
 * byte-identical across thread counts.
 *
 * The technique axis is the placement policy (--techniques filters
 * round-robin / random / least-backlog / affinity). Tenants come
 * from --workloads (default AES + jacobi-1d, arrival weights 3:1 —
 * a deliberately skewed mix so balancing policies have something to
 * balance). Each tenant's SLO is its isolated one-job makespan times
 * --slo-mult.
 *
 * The default rate ladder is self-calibrating, like
 * bench_saturation: the tenants' isolated makespans anchor the
 * fleet's aggregate service rate, and multipliers {0.25..4} bracket
 * the saturation knee for every fleet size. --rates overrides with
 * absolute fleet-wide jobs/second.
 *
 * Flags: the shared sweep CLI plus
 *   --devices a,b         fleet sizes (default 4)
 *   --jobs N              jobs offered per cell, fleet-wide (64)
 *   --rates a,b           absolute fleet-wide loads, jobs/s
 *   --arrivals KIND       fixed | uniform | poisson (default)
 *   --arrival-seed N      arrival-schedule seed (default 1)
 *   --age-mix m1,m2       age mixes; each mix is colon-separated
 *                         P/E-cycle rungs assigned round-robin
 *                         across the fleet (e.g. 0:3000), default 0
 *   --retention-per-kcycle D  retention days per 1000 pre-wear
 *                         cycles for aged rungs (default 0)
 *   --warmup-jobs N       warm jobs per device before the measured
 *                         phase; warm devices fork shared per-rung
 *                         images (built once, reported on stderr)
 *   --slo-mult X          per-tenant SLO = isolated makespan * X
 *                         (default 3)
 *   --wear-level          enable the background wear-leveler on
 *                         every fleet device
 */

#include "bench/common.hh"
#include "src/cluster/placement.hh"

namespace
{

using namespace conduit;
using namespace conduit::bench;
using conduit::runner::Offer;
using conduit::runner::Tenant;
using conduit::runner::splitCsv;

std::vector<std::size_t>
parseSizes(const std::string &csv)
{
    std::vector<std::size_t> sizes;
    for (const std::string &tok : splitCsv(csv))
        sizes.push_back(parseCount("--devices", tok));
    return sizes;
}

/** One --age-mix entry: colon-separated P/E-cycle rungs. */
std::vector<std::uint32_t>
parseMix(const std::string &entry)
{
    std::vector<std::uint32_t> mix;
    std::size_t pos = 0;
    while (pos <= entry.size()) {
        const std::size_t colon = entry.find(':', pos);
        const std::string tok = entry.substr(
            pos, colon == std::string::npos ? colon : colon - pos);
        mix.push_back(parseCycles("--age-mix", tok));
        if (colon == std::string::npos)
            break;
        pos = colon + 1;
    }
    return mix;
}

/** Display suffix of an age mix ("" when fresh). */
std::string
mixLabel(const std::vector<std::uint32_t> &mix)
{
    bool aged = false;
    for (std::uint32_t m : mix)
        aged = aged || m > 0;
    if (!aged)
        return "";
    std::string out = "+w";
    for (std::size_t i = 0; i < mix.size(); ++i) {
        if (i)
            out += ":";
        out += std::to_string(mix[i]);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::size_t> sizes = {4};
    Offer traffic;
    traffic.jobs = 64;
    std::vector<double> rates;
    std::vector<std::vector<std::uint32_t>> mixes;
    double retentionPerKCycle = 0.0;
    double sloMult = 3.0;
    bool wearLevel = false;
    const auto extra = [&](const std::string &flag,
                           const std::function<std::string()> &value) {
        if (parseOfferFlag(traffic, flag, value))
            return true;
        if (flag == "--devices") {
            sizes = parseSizes(value());
        } else if (flag == "--rates") {
            rates = parseRates(value());
        } else if (flag == "--age-mix") {
            for (const std::string &entry : splitCsv(value()))
                mixes.push_back(parseMix(entry));
        } else if (flag == "--retention-per-kcycle") {
            retentionPerKCycle =
                parsePositive("--retention-per-kcycle", value());
        } else if (flag == "--slo-mult") {
            sloMult = parsePositive("--slo-mult", value());
        } else if (flag == "--wear-level") {
            wearLevel = true;
        } else {
            return false;
        }
        return true;
    };
    const SweepCli cli = SweepCli::parse(
        argc, argv, extra,
        "          [--devices a,b] [--jobs N] [--rates a,b]\n"
        "          [--arrivals KIND] [--arrival-seed N]\n"
        "          [--age-mix m1,m2] [--retention-per-kcycle D]\n"
        "          [--warmup-jobs N] [--slo-mult X] [--wear-level]\n"
        "          (--jobs, --warmup-jobs: N <= 1000000)\n");
    if (mixes.empty())
        mixes.push_back({0});

    // Tenant rows: a skewed two-tenant mix by default (AES carries
    // 3x jacobi-1d's arrival weight); --workloads overrides with any
    // Table 3 applications, first listed carrying the heavy share.
    const std::vector<WorkloadId> tenantIds =
        selectWorkloads(cli, {WorkloadId::Aes, WorkloadId::Jacobi1d},
                        cluster::placementNames());

    // The technique axis is the placement policy.
    std::vector<std::string> policies = cluster::placementNames();
    const auto keepP = splitCsv(cli.techniqueFilter);
    if (!runner::reportUnknown(keepP, policies, "placement policy"))
        return 2;
    if (!keepP.empty())
        policies = keepP;

    DeviceOptions fresh;
    fresh.config.reliability.wearLevelEnabled = wearLevel;
    fresh.workload.scale = cli.scale;

    SweepRunner runner(cli.runnerOptions());

    // Calibrate per-tenant service times once: the isolated one-job
    // makespan anchors both the SLO (x --slo-mult) and the default
    // rate ladder (aggregate service rate x fleet size).
    std::vector<Tenant> tenants;
    double meanServiceSec = 0.0;
    {
        double weightSum = 0.0;
        for (std::size_t t = 0; t < tenantIds.size(); ++t)
            weightSum += t == 0 ? 3.0 : 1.0;
        for (std::size_t t = 0; t < tenantIds.size(); ++t) {
            Tenant ten;
            ten.name = workloadName(tenantIds[t]);
            ten.workloadId = tenantIds[t];
            const double tIso = isolatedServiceSeconds(runner, fresh, ten);
            ten.sloMs = tIso * 1000.0 * sloMult;
            ten.weight = t == 0 ? 3.0 : 1.0;
            meanServiceSec += tIso * ten.weight / weightSum;
            tenants.push_back(std::move(ten));
        }
    }

    // Cell matrix: fleet size, then age mix, then policy, then rate
    // ascending. Every policy sees the identical arrival schedule,
    // so curves differ only by routing decisions. Device d of a mix
    // takes rung mix[d % mix.size()]; aged rungs enable the
    // reliability subsystem at that age.
    std::vector<runner::Scenario> cells;
    std::vector<std::vector<double>> sizeRates;
    for (std::size_t si = 0; si < sizes.size(); ++si) {
        std::vector<double> fRates = rates;
        if (fRates.empty()) {
            const double base = meanServiceSec > 0.0
                ? static_cast<double>(sizes[si]) / meanServiceSec
                : 1.0;
            for (double mult : {0.25, 0.5, 1.0, 2.0, 4.0})
                fRates.push_back(base * mult);
        }
        for (const auto &mix : mixes) {
            std::vector<DeviceOptions> devices(sizes[si], fresh);
            for (std::size_t d = 0; d < devices.size(); ++d) {
                const std::uint32_t rung = mix[d % mix.size()];
                if (rung == 0)
                    continue;
                ReliabilityConfig &rel = devices[d].config.reliability;
                rel.enabled = true;
                rel.preWearCycles = rung;
                rel.retentionDays = retentionPerKCycle * rung / 1000.0;
            }
            for (const std::string &policy : policies) {
                for (double rate : fRates) {
                    char label[128];
                    std::snprintf(label, sizeof label,
                                  "fleet%zu%s/%s@%gjobs/s", sizes[si],
                                  mixLabel(mix).c_str(),
                                  policy.c_str(), rate);
                    Offer offer = traffic;
                    offer.jobsPerSec = rate;
                    cells.push_back(runner::fleetScenario(
                        label, policy, devices, tenants, offer));
                }
            }
        }
        sizeRates.push_back(std::move(fRates));
    }

    const std::vector<cluster::ClusterSnapshot> snaps =
        runner.runAll(cells);
    std::vector<runner::ScenarioRow> rows;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto cellRows = runner::makeRows(cells[i], snaps[i]);
        rows.insert(rows.end(), cellRows.begin(), cellRows.end());
    }

    std::printf("Fleet sweep (%zu jobs/cell fleet-wide, %s arrivals, "
                "%zu tenants)\n\n",
                traffic.jobs, arrivalKindName(traffic.arrivals).c_str(),
                tenants.size());
    std::size_t r = 0;
    for (std::size_t si = 0; si < sizes.size(); ++si) {
        for (const auto &mix : mixes) {
            std::printf("fleet of %zu%s\n", sizes[si],
                        mixLabel(mix).c_str());
            std::printf("  %-14s %10s %10s %9s %9s %8s %12s\n",
                        "placement", "offered/s", "thpt/s", "util",
                        "imbal", "slo", "p99.99 (us)");
            for (const std::string &policy : policies) {
                (void)policy;
                for (std::size_t k = 0; k < sizeRates[si].size();
                     ++k) {
                    // One fleet row then one row per tenant.
                    const runner::ScenarioRow &row = rows.at(r);
                    r += 1 + tenants.size();
                    std::printf("  %-14s %10.2f %10.2f %9.3f %9.3f "
                                "%8.3f %12.2f\n",
                                row.placement.c_str(), row.jobsPerSec,
                                row.throughputJobsPerSec, row.utilMean,
                                row.imbalance, row.sloAttainment,
                                row.p9999Us);
                }
            }
            std::printf("\n");
        }
    }

    // Per-tenant SLO attainment at the highest offered load of the
    // first fleet block: the headline "who suffers at saturation".
    if (!rows.empty()) {
        const std::size_t stride = 1 + tenants.size();
        const std::size_t lastCell = sizeRates[0].size() - 1;
        std::printf("tenant SLO attainment at %.2f jobs/s (fleet of "
                    "%zu%s, first policy)\n",
                    rows[lastCell * stride].jobsPerSec, sizes[0],
                    mixLabel(mixes[0]).c_str());
        for (std::size_t t = 0; t < tenants.size(); ++t) {
            const runner::ScenarioRow &row =
                rows.at(lastCell * stride + 1 + t);
            std::printf("  %-14s slo %8.3f ms  attained %6.3f  "
                        "p99 sojourn %8.3f ms\n",
                        row.tenant.c_str(), row.sloMs,
                        row.sloAttainment, row.sojournP99Ms);
        }
        std::printf("\n");
    }

    return cli.finish(rows, runner::RowFormat::Fleet, runner);
}
