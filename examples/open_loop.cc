/**
 * @file
 * Walkthrough: open-loop arrivals on a persistent simulated SSD.
 *
 * A tick-0 batch answers "what if N programs start together on a
 * cold device?". A deployed SSD instead serves a *stream* of jobs
 * arriving over time. This example drives the job-based Device API
 * directly: one device lives across every submission, jobs arrive at
 * pseudo-Poisson ticks generated by a deterministic ArrivalProcess,
 * finished jobs retire eagerly (results drain, page regions recycle
 * for later arrivals), and the same offered stream is replayed at
 * increasing rates to expose the saturation knee — throughput stops
 * tracking offered load while the p99 tail inflates.
 */

#include <cstdio>
#include <memory>

#include "src/core/arrival.hh"
#include "src/core/device.hh"

int
main()
{
    using namespace conduit;

    // One warm-up device measures the isolated service time, so the
    // rate ladder brackets the knee at any geometry.
    Tick isolated = 0;
    {
        Device dev;
        JobSpec job;
        job.workload = WorkloadId::Aes;
        isolated = dev.wait(dev.submit(job)).end;
    }
    const double serviceRate = 1.0 / ticksToSeconds(isolated);
    std::printf("AES isolated service time %.3f ms (%.1f jobs/s)\n\n",
                ticksToUs(isolated) / 1000.0, serviceRate);

    std::printf("%10s %12s %14s %12s %14s\n", "offered/s", "thpt/s",
                "mean sojourn", "p99 (us)", "p99.99 (us)");
    for (double util : {0.5, 1.0, 2.0, 4.0}) {
        const double offered = serviceRate * util;

        // A fresh device per operating point (the classic saturation
        // methodology); within each point ONE device serves every
        // arrival. Eager retirement recycles regions mid-stream.
        DeviceOptions opts;
        opts.retire = RetirePolicy::OnComplete;
        Device dev(opts);

        // The arrival schedule is deterministic: same kind, rate and
        // seed → the same ticks, on every platform and repeat run.
        PoissonArrivals arrivals =
            PoissonArrivals::fromRate(offered, /*seed=*/7);
        Tick at = 0;
        const std::size_t kJobs = 8;
        for (std::size_t i = 0; i < kJobs; ++i) {
            at += arrivals.next();
            JobSpec job;
            job.workload = WorkloadId::Aes;
            job.arrival = at;
            dev.submit(job);
        }

        const DeviceSnapshot snap = dev.drain();
        double sojournMs = 0.0;
        for (const JobResult &j : snap.jobs)
            sojournMs += ticksToUs(j.sojourn()) / 1000.0;
        sojournMs /= static_cast<double>(snap.jobs.size());
        const double thpt = static_cast<double>(snap.jobs.size()) /
            ticksToSeconds(snap.makespan);
        std::printf("%10.1f %12.1f %11.3f ms %12.2f %14.2f\n",
                    offered, thpt, sojournMs,
                    snap.aggregate.latencyUs.percentile(99),
                    snap.aggregate.latencyUs.percentile(99.99));
    }

    std::printf("\nbeyond the knee the device completes jobs at its "
                "service rate, not the offered rate,\nand the tail "
                "latency of every request inflates with the backlog "
                "— the open-loop regime\nclosed-form batch runs "
                "cannot express.\n");
    return 0;
}
