/**
 * @file
 * Reliability & device-aging sweep: tails vs device age, per policy.
 *
 * Every other bench runs a factory-fresh SSD. This one fast-forwards
 * the device to a ladder of ages — P/E cycles pre-absorbed by every
 * block, plus retention age of the resident data — and offers the
 * same open-loop traffic at each age, for each offload policy. As
 * the device ages, the ECC retry ladder stretches flash reads, the
 * background scrubber starts refreshing high-RBER blocks, and worn-
 * out blocks retire and shrink over-provisioning: throughput decays
 * and p99/p99.99 request latency grows monotonically with age.
 *
 * Each (workload, policy, age) cell is one deterministic device
 * lifetime (an offered-load Scenario whose config carries the age);
 * the same arrival schedule is
 * replayed at every age and for every policy, so rows differ only by
 * device age and offload decisions. stdout carries only simulated
 * values and is byte-identical across thread counts; CI enforces
 * both that and monotone p99 growth along the age ladder.
 *
 * Flags: the shared sweep CLI plus
 *   --jobs N               jobs offered per cell (default 6)
 *   --ages a,b,c           pre-wear ladder in P/E cycles
 *                          (default 0,1000,2000,3000; emitted
 *                          ascending)
 *   --retention-per-kcycle D  retention days coupled to each rung:
 *                          days = cycles * D / 1000 (default 30 —
 *                          a device that cycled more has also been
 *                          deployed longer)
 *   --rate-mult M          offered load as a multiple of the fresh
 *                          device's isolated service rate (default
 *                          2.0: past the knee, where aging shows in
 *                          the tails)
 *   --arrivals KIND        fixed | uniform | poisson (default)
 *   --arrival-seed N       arrival-schedule seed (default 1)
 *   --warmup-jobs N        warm jobs before the measured phase (rows
 *                          then report the measured jobs only); each
 *                          age rung's warm device is built once and
 *                          forked per policy
 */

#include "bench/common.hh"

namespace
{

using namespace conduit;
using namespace conduit::bench;
using conduit::runner::splitCsv;

std::vector<std::uint32_t>
parseAges(const std::string &csv)
{
    std::vector<std::uint32_t> ages;
    for (const std::string &tok : splitCsv(csv))
        ages.push_back(parseCycles("--ages", tok));
    // The age axis is emitted ascending and deduplicated: every
    // (workload, policy) CSV block is strictly monotone in age,
    // which is what the CI monotonicity check keys on.
    std::sort(ages.begin(), ages.end());
    ages.erase(std::unique(ages.begin(), ages.end()), ages.end());
    return ages;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;
    using conduit::runner::Offer;
    using conduit::runner::Tenant;

    Offer offer;
    offer.jobs = 6;
    std::vector<std::uint32_t> ages = {0, 1000, 2000, 3000};
    double retentionPerKcycle = 30.0;
    double rateMult = 2.0;
    const auto extra = [&](const std::string &flag,
                           const std::function<std::string()> &value) {
        if (parseOfferFlag(offer, flag, value))
            return true;
        if (flag == "--ages") {
            ages = parseAges(value());
            if (ages.empty())
                badFlagValue("--ages", "");
        } else if (flag == "--retention-per-kcycle") {
            // 0 decouples retention from the ladder: a pure
            // P/E-cycle aging sweep.
            retentionPerKcycle = parsePositive(
                "--retention-per-kcycle", value(), /*allow_zero=*/true);
        } else if (flag == "--rate-mult") {
            rateMult = parsePositive("--rate-mult", value());
        } else {
            return false;
        }
        return true;
    };
    const SweepCli cli = SweepCli::parse(
        argc, argv,
        extra,
        "          [--jobs N] [--ages a,b,c]\n"
        "          [--retention-per-kcycle D] [--rate-mult M]\n"
        "          [--arrivals KIND] [--arrival-seed N]\n"
        "          [--warmup-jobs N]\n"
        "          (--jobs, --warmup-jobs: N <= 1000000)\n");

    // Workload rows: AES by default (flash-read heavy, so the ECC
    // ladder dominates its service time); --workloads widens.
    const std::vector<WorkloadId> tenants =
        selectWorkloads(cli, {WorkloadId::Aes}, policyNames());
    const std::vector<std::string> policies =
        selectSsdPolicies(cli, {"Conduit", "DM-Offloading"});

    DeviceOptions fresh;
    fresh.workload.scale = cli.scale;

    SweepRunner runner(cli.runnerOptions());

    // Build the cell matrix: workload-major, policy, age ascending.
    // One fresh-device calibration per workload anchors the offered
    // rate, which is then held fixed across ages and policies so
    // rows differ only by device age and offload decisions.
    std::vector<runner::Scenario> cells;
    for (WorkloadId w : tenants) {
        Tenant tenant;
        tenant.name = workloadName(w);
        tenant.workloadId = w;
        tenant.technique = policies.front();
        const double tIso = isolatedServiceSeconds(runner, fresh, tenant);
        offer.jobsPerSec = (tIso > 0.0 ? 1.0 / tIso : 1.0) * rateMult;

        for (const std::string &policy : policies) {
            tenant.technique = policy;
            for (std::uint32_t age : ages) {
                DeviceOptions aged = fresh;
                ReliabilityConfig &rel = aged.config.reliability;
                rel.enabled = true;
                rel.preWearCycles = age;
                rel.retentionDays = static_cast<double>(age) *
                    retentionPerKcycle / 1000.0;
                cells.push_back(
                    runner::loadScenario(aged, tenant, offer));
            }
        }
    }

    const std::vector<cluster::ClusterSnapshot> snaps =
        runner.runAll(cells);
    std::vector<runner::ScenarioRow> rows;
    rows.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        rows.push_back(runner::makeRows(cells[i], snaps[i]).at(1));

    std::printf("Reliability & device-aging sweep (%zu jobs/cell, %s "
                "arrivals, %.3gx offered load)\n\n",
                offer.jobs, arrivalKindName(offer.arrivals).c_str(),
                rateMult);
    std::size_t r = 0;
    for (WorkloadId w : tenants) {
        std::printf("%s\n", workloadName(w).c_str());
        std::printf("  %-16s %9s %8s %9s %11s %13s %9s %8s %8s %8s\n",
                    "policy", "age(P/E)", "ret(d)", "thpt/s",
                    "p99 (us)", "p99.99 (us)", "retries", "soft",
                    "retired", "scrubbed");
        for (const std::string &policy : policies) {
            (void)policy;
            for (std::size_t k = 0; k < ages.size(); ++k) {
                const runner::ScenarioRow &row = rows.at(r++);
                std::printf("  %-16s %9u %8.1f %9.2f %11.2f %13.2f "
                            "%9llu %8llu %8llu %8llu\n",
                            row.technique.c_str(),
                            row.preWearCycles, row.retentionDays,
                            row.throughputJobsPerSec, row.p99Us,
                            row.p9999Us,
                            static_cast<unsigned long long>(
                                row.rel.eccRetries),
                            static_cast<unsigned long long>(
                                row.rel.softDecodes),
                            static_cast<unsigned long long>(
                                row.rel.retiredBlocks),
                            static_cast<unsigned long long>(
                                row.rel.scrubRefreshes));
            }
        }
        std::printf("\n");
    }

    return cli.finish(rows, runner::RowFormat::Aging, runner);
}
