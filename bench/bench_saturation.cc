/**
 * @file
 * Saturation curves: throughput and tail latency vs offered load.
 *
 * The paper evaluates offloading policies one closed-form run at a
 * time; a deployed device instead faces an open-loop stream of
 * arriving jobs. This bench offers each workload to a persistent
 * Device at a ladder of arrival rates — for every policy — and
 * reports the achieved throughput, the mean job sojourn time, and
 * the per-request p99 / p99.99 latency at every operating point.
 * Each (workload, policy, rate) cell is one deterministic device
 * lifetime with pseudo-Poisson (or fixed / uniform) arrivals, eager
 * job retirement, and page-region recycling; cells are independent,
 * so the sweep parallelizes like every other bench while stdout and
 * CSV stay byte-identical across thread counts.
 *
 * The default rate ladder is self-calibrating: one isolated job's
 * makespan under the first selected policy anchors rate multipliers
 * {0.25, 0.5, 1, 2, 4}, so the sweep brackets the saturation knee at
 * any --scale. --rates overrides with absolute jobs/second (emitted
 * ascending — the offered-load column is monotone per policy).
 *
 * Flags: the shared sweep CLI (--techniques selects policies,
 * validated against the policy table) plus
 *   --jobs N            jobs offered per cell (default 8)
 *   --rates a,b         absolute offered loads, jobs/s
 *   --arrivals KIND     fixed | uniform | poisson (default)
 *   --arrival-seed N    arrival-schedule seed (default 1; the same
 *                       schedule is replayed for every policy)
 *   --warmup-jobs N     warm jobs before the measured phase (rows
 *                       then report the measured jobs only); each
 *                       rate rung's warm device is built once and
 *                       forked per policy
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;
    using conduit::runner::Offer;
    using conduit::runner::Tenant;

    Offer traffic;
    traffic.jobs = 8;
    std::vector<double> rates;
    const auto extra = [&](const std::string &flag,
                           const std::function<std::string()> &value) {
        if (parseOfferFlag(traffic, flag, value))
            return true;
        if (flag != "--rates")
            return false;
        rates = parseRates(value());
        return true;
    };
    const SweepCli cli = SweepCli::parse(
        argc, argv, extra,
        "          [--jobs N] [--rates a,b] [--arrivals KIND]\n"
        "          [--arrival-seed N] [--warmup-jobs N]\n"
        "          (--jobs, --warmup-jobs: N <= 1000000)\n");

    // Workload rows: the tail-sensitive AES kernel by default;
    // --workloads widens to any Table 3 application. Policy columns
    // are validated against the policy table.
    const std::vector<WorkloadId> tenants =
        selectWorkloads(cli, {WorkloadId::Aes}, policyNames());
    const std::vector<std::string> policies = selectSsdPolicies(
        cli, {"Conduit", "DM-Offloading", "BW-Offloading"});

    DeviceOptions device;
    device.workload.scale = cli.scale;

    SweepRunner runner(cli.runnerOptions());

    // Build the cell matrix: workload-major, policy, then rate
    // ascending. The same arrival schedule (kind, rate, seed) is
    // replayed for every policy so curves differ only by decisions.
    std::vector<runner::Scenario> cells;
    std::vector<std::size_t> rateCounts; // per workload row
    for (WorkloadId w : tenants) {
        Tenant tenant;
        tenant.name = workloadName(w);
        tenant.workloadId = w;
        std::vector<double> wRates = rates;
        if (wRates.empty()) {
            // Self-calibrate: one isolated job under the first
            // policy anchors the rate ladder at its service rate.
            tenant.technique = policies.front();
            const double tIso =
                isolatedServiceSeconds(runner, device, tenant);
            const double base = tIso > 0.0 ? 1.0 / tIso : 1.0;
            for (double mult : {0.25, 0.5, 1.0, 2.0, 4.0})
                wRates.push_back(base * mult);
        }
        for (const std::string &policy : policies) {
            tenant.technique = policy;
            for (double rate : wRates) {
                Offer offer = traffic;
                offer.jobsPerSec = rate;
                cells.push_back(
                    runner::loadScenario(device, tenant, offer));
            }
        }
        rateCounts.push_back(wRates.size());
    }

    const std::vector<cluster::ClusterSnapshot> snaps =
        runner.runAll(cells);
    std::vector<runner::ScenarioRow> rows;
    rows.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        rows.push_back(runner::makeRows(cells[i], snaps[i]).at(1));

    std::printf("Open-loop saturation sweep (%zu jobs/cell, %s "
                "arrivals)\n\n",
                traffic.jobs, arrivalKindName(traffic.arrivals).c_str());
    std::size_t r = 0;
    for (std::size_t wi = 0; wi < tenants.size(); ++wi) {
        std::printf("%s\n", workloadName(tenants[wi]).c_str());
        std::printf("  %-16s %12s %12s %14s %12s %12s\n", "policy",
                    "offered/s", "thpt/s", "sojourn (ms)", "p99 (us)",
                    "p99.99 (us)");
        for (const std::string &policy : policies) {
            (void)policy;
            for (std::size_t k = 0; k < rateCounts[wi]; ++k) {
                const runner::ScenarioRow &row = rows.at(r++);
                std::printf(
                    "  %-16s %12.2f %12.2f %14.3f %12.2f %12.2f\n",
                    row.technique.c_str(), row.jobsPerSec,
                    row.throughputJobsPerSec, row.meanSojournMs,
                    row.p99Us, row.p9999Us);
            }
        }
        std::printf("\n");
    }

    return cli.finish(rows, runner::RowFormat::Load, runner);
}
