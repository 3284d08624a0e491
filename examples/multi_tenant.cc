/**
 * @file
 * Walkthrough: co-running two tenants on one simulated SSD.
 *
 * Submitting N jobs that all arrive at tick 0 to one Device, then
 * drain()ing it, co-runs them on the event-driven engine: every
 * stream keeps its own program counter, completion vector and result
 * attribution (an ExecContext), while the engine interleaves their
 * dispatch chains on one event queue. Contention is not configured
 * anywhere — it emerges because both streams reserve the same
 * offloader, flash-die, DRAM-bank and controller-core calendars, and
 * every policy sees the other tenant's backlog through the live
 * queue/bandwidth features.
 */

#include <cstdio>
#include <initializer_list>

#include "src/core/device.hh"

namespace
{

using namespace conduit;

/** Submit one Conduit job per workload to a fresh SSD and drain it. */
DeviceSnapshot
coRun(std::initializer_list<WorkloadId> workloads)
{
    Device dev;
    for (WorkloadId id : workloads) {
        JobSpec job;
        job.workload = id;
        dev.submit(job);
    }
    return dev.drain();
}

} // namespace

int
main()
{
    // First, the single-tenant world the paper evaluates: each
    // workload alone on the device.
    const RunResult llamaAlone =
        coRun({WorkloadId::LlamaInference}).jobs.front().result;
    const RunResult jacobiAlone =
        coRun({WorkloadId::Jacobi1d}).jobs.front().result;

    // Now the same two workloads as co-located tenants of one SSD.
    const DeviceSnapshot co =
        coRun({WorkloadId::LlamaInference, WorkloadId::Jacobi1d});

    std::printf("two tenants, one SSD (Conduit policy)\n\n");
    std::printf("%-20s %14s %14s %10s %12s\n", "stream", "alone (ms)",
                "co-run (ms)", "slowdown", "p99 (us)");
    for (std::size_t i = 0; i < co.jobs.size(); ++i) {
        const RunResult &alone = i == 0 ? llamaAlone : jacobiAlone;
        const RunResult &r = co.jobs[i].result;
        std::printf("%-20s %14.3f %14.3f %9.2fx %12.2f\n",
                    r.workload.c_str(),
                    ticksToUs(alone.execTime) / 1000.0,
                    ticksToUs(r.execTime) / 1000.0,
                    static_cast<double>(r.execTime) /
                        static_cast<double>(alone.execTime),
                    r.latencyUs.percentile(99));
    }

    std::printf("\ndevice aggregate: %llu instructions, makespan "
                "%.3f ms, %.3f J\n",
                static_cast<unsigned long long>(
                    co.aggregate.instrCount),
                ticksToUs(co.makespan) / 1000.0,
                co.aggregate.energyJ());
    std::printf("scheduler fired %llu events (dispatch + completion "
                "per instruction)\n",
                static_cast<unsigned long long>(co.eventsFired));

    // Consolidation: one shared device vs one device per tenant.
    const double shared = ticksToUs(co.makespan) / 1000.0;
    const double dedicated =
        ticksToUs(llamaAlone.execTime + jacobiAlone.execTime) / 1000.0;
    std::printf("\nco-location finishes both tenants in %.3f ms vs "
                "%.3f ms run back-to-back (%.2fx consolidation)\n",
                shared, dedicated, dedicated / shared);
    return 0;
}
