/**
 * @file
 * Multi-tenant co-location matrix: what the paper's tail-latency
 * evaluation (Fig. 8) only approximates with a single stream, run
 * properly — N instruction streams co-scheduled on ONE simulated SSD
 * by the event-driven engine, contending for the offloader, flash
 * dies, DRAM banks and the controller core through the shared FCFS
 * calendars.
 *
 * For every primary workload the bench reports its isolated run
 * (alone on the device) and its co-located runs against each
 * background tenant: the slowdown of the primary's makespan and the
 * inflation of its per-request latency tail. Every cell is one
 * deterministic engine run, so repeated executions (and any
 * --threads value) produce byte-identical output.
 *
 * Flags: the shared sweep CLI. --workloads filters the tenant set;
 * --techniques selects the one offloading policy every stream runs
 * under (a single entry, default Conduit).
 *
 * --age CYCLES runs the matrix on an aged device instead of a
 * factory-fresh one: every cell's device recipe carries the same
 * pre-worn warm traffic (reliability subsystem enabled, fast-forwarded
 * to the age, warmed with --warmup-jobs jobs), so the sweep builds one
 * shared DeviceImage and forks it for every cell — all cells share
 * byte-identical initial wear, mappings and staging state. On the
 * aged device the ECC retry ladder stretches every flash read, so a
 * background tenant's die occupancy delays the primary for whole
 * retry ladders at a time — cross-tenant interference tails amplify
 * well beyond the fresh-device slowdown. Aged cells retire eagerly
 * (OnComplete) in a page pool sized for the largest pair, where
 * fresh cells keep the batch OnQuiesce semantics.
 *   --age CYCLES         P/E cycles pre-absorbed (0 = fresh matrix)
 *   --retention-days D   resident-data age (default: age * 30/1000,
 *                        the deployment-time coupling
 *                        bench_reliability uses)
 *   --warmup-jobs N      warm jobs baked into the pre-worn image
 *                        (default 4)
 */

#include "bench/common.hh"

namespace
{

using namespace conduit;
using namespace conduit::bench;
using conduit::runner::Tenant;

Tenant
tenantFor(WorkloadId id, const std::string &policy)
{
    Tenant t;
    t.workloadId = id;
    t.name = workloadName(id);
    t.technique = policy;
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    std::uint32_t age = 0;
    double retentionDays = -1.0; // < 0: derive from the age
    std::size_t warmupJobs = 4;
    const auto extra = [&](const std::string &flag,
                           const std::function<std::string()> &value) {
        if (flag == "--age") {
            age = parseCycles("--age", value());
        } else if (flag == "--retention-days") {
            retentionDays = parsePositive("--retention-days", value(),
                                          /*allow_zero=*/true);
        } else if (flag == "--warmup-jobs") {
            warmupJobs = parseCount("--warmup-jobs", value(),
                                    /*allow_zero=*/false, kMaxOfferJobs);
        } else {
            return false;
        }
        return true;
    };
    const SweepCli cli = SweepCli::parse(
        argc, argv, extra,
        "          [--age CYCLES]\n"
        "          [--retention-days D] [--warmup-jobs N]\n"
        "          (--warmup-jobs: N <= 1000000)\n");
    if (retentionDays < 0.0)
        retentionDays = static_cast<double>(age) * 30.0 / 1000.0;

    // Tenant set: the two tail-sensitive workloads of Fig. 8 plus
    // the two cheapest Table 3 applications, so the default matrix
    // stays seconds-long. --workloads widens or narrows it.
    const std::vector<WorkloadId> tenants = selectWorkloads(
        cli,
        {WorkloadId::Aes, WorkloadId::XorFilter, WorkloadId::Jacobi1d,
         WorkloadId::LlamaInference},
        policyNames());
    const auto policies = selectSsdPolicies(cli, {"Conduit"});
    if (policies.size() > 1) {
        std::fprintf(stderr,
                     "every stream runs the same policy; give a "
                     "single --techniques entry\n");
        return 2;
    }
    const std::string &policy = policies.front();

    // Aged mode: every cell forks one pre-worn device image, so all
    // cells share the aged (reliability-enabled) configuration.
    SweepRunner runner(cli.runnerOptions());
    runner::DeviceRecipe device;
    device.options.workload.scale = cli.scale;
    if (age > 0) {
        ReliabilityConfig &rel = device.options.config.reliability;
        rel.enabled = true;
        rel.preWearCycles = age;
        rel.retentionDays = retentionDays;
        // Warm jobs of the first tenant, all at tick 0, in a page
        // pool sized for the largest co-location pair so both
        // streams admit simultaneously like the fresh matrix does.
        std::uint64_t maxFp = 0;
        for (WorkloadId id : tenants) {
            auto vp = runner.cache().get(id, device.options.workload,
                                         device.options.config);
            maxFp = std::max(maxFp, vp->program.footprintPages);
        }
        device.options.capacityPages = 2 * maxFp;
        device.options.retire = RetirePolicy::OnComplete;
        device.warm.name = workloadName(tenants.front());
        device.warm.workloadId = tenants.front();
        device.warm.ticks.assign(warmupJobs, 0);
    }

    // Cells: one isolated run per tenant, then every ordered pair
    // (primary, background) co-located. Cell order is the report
    // order; runAll keeps results in cell order regardless of the
    // worker-thread count.
    std::vector<runner::Scenario> cells;
    for (WorkloadId p : tenants)
        cells.push_back(runner::batchScenario(
            workloadName(p), device, {tenantFor(p, policy)}));
    for (WorkloadId p : tenants) {
        for (WorkloadId b : tenants)
            cells.push_back(runner::batchScenario(
                workloadName(p) + "+" + workloadName(b), device,
                {tenantFor(p, policy), tenantFor(b, policy)}));
    }

    const std::vector<cluster::ClusterSnapshot> results =
        runner.runAll(cells);
    // Job r of a cell's snapshot is its r-th tenant's stream; the
    // cell makespan is measured from the (possibly forked) epoch.
    const auto stream = [&](std::size_t cell,
                            std::size_t r) -> const RunResult & {
        return results[cell].result(r).result;
    };
    const auto makespan = [&](std::size_t cell) {
        return results[cell].makespan - results[cell].base;
    };

    const std::size_t n = tenants.size();
    if (age > 0)
        std::printf("Multi-tenant co-location on one aged SSD "
                    "(policy: %s, %u P/E cycles, %.4g retention days, "
                    "%zu warm jobs)\n\n",
                    policy.c_str(), age, retentionDays, warmupJobs);
    else
        std::printf("Multi-tenant co-location on one SSD "
                    "(policy: %s)\n\n",
                    policy.c_str());

    // Per-stream rows for the machine-readable emission layer: the
    // primary stream of every cell, labelled by its company.
    std::vector<runner::RunSpec> rowSpecs;
    std::vector<RunResult> rowResults;

    for (std::size_t pi = 0; pi < n; ++pi) {
        const RunResult &alone = stream(pi, 0);
        std::printf("%s\n", alone.workload.c_str());
        std::printf("  %-24s %10s %10s %12s %12s\n", "tenancy",
                    "exec (ms)", "slowdown", "p99 (us)",
                    "p99.99 (us)");
        std::printf("  %-24s %10.3f %10s %12.2f %12.2f\n", "isolated",
                    ticksToUs(alone.execTime) / 1000.0, "1.00x",
                    alone.latencyUs.percentile(99),
                    alone.latencyUs.percentile(99.99));
        {
            runner::RunSpec spec;
            spec.workload = alone.workload;
            spec.technique = "isolated";
            rowSpecs.push_back(spec);
            rowResults.push_back(alone);
        }
        for (std::size_t bi = 0; bi < n; ++bi) {
            const std::size_t cell = n + pi * n + bi;
            const RunResult &primary = stream(cell, 0);
            const std::string company = "+" + stream(cell, 1).workload;
            const double slowdown = alone.execTime == 0
                ? 0.0
                : static_cast<double>(primary.execTime) /
                    static_cast<double>(alone.execTime);
            std::printf("  %-24s %10.3f %9.2fx %12.2f %12.2f\n",
                        company.c_str(),
                        ticksToUs(primary.execTime) / 1000.0, slowdown,
                        primary.latencyUs.percentile(99),
                        primary.latencyUs.percentile(99.99));
            runner::RunSpec spec;
            spec.workload = primary.workload;
            spec.technique = company;
            rowSpecs.push_back(spec);
            rowResults.push_back(primary);
        }
        std::printf("\n");
    }

    // Consolidation view: co-running a pair on one device vs giving
    // each tenant its own SSD (the paper's single-stream world).
    std::printf("pairwise consolidation (makespan vs sum of "
                "isolated runs)\n");
    for (std::size_t pi = 0; pi < n; ++pi) {
        for (std::size_t bi = pi + 1; bi < n; ++bi) {
            const std::size_t cell = n + pi * n + bi;
            const Tick sum =
                stream(pi, 0).execTime + stream(bi, 0).execTime;
            std::printf(
                "  %-40s makespan %8.3f ms, serial-on-two-SSDs "
                "%8.3f ms (%.2fx)\n",
                cells[cell].label.c_str(),
                ticksToUs(makespan(cell)) / 1000.0,
                ticksToUs(sum) / 1000.0,
                makespan(cell) == 0
                    ? 0.0
                    : static_cast<double>(sum) /
                        static_cast<double>(makespan(cell)));
        }
    }

    const SweepResult rows(std::move(rowSpecs), std::move(rowResults),
                           runner.lastPerf().wallSeconds,
                           runner.workerCount(cells.size()));
    return cli.finish(rows, runner);
}
