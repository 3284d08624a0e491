/**
 * @file
 * Reproduces Fig. 8: 99th and 99.99th percentile per-instruction
 * latencies of Ideal, Conduit, BW-Offloading and DM-Offloading on
 * LlaMA2 Inference and jacobi-1d, run as one parallel sweep.
 *
 * Paper shape: Conduit's contention-aware offloading shortens both
 * tails dramatically on LlaMA2 Inference (1.8x/10.7x vs
 * BW-Offloading, 5.6x/22.3x vs DM-Offloading) and moderately on
 * jacobi-1d (1.7x/1.9x and 1.1x/1.3x).
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    const SweepCli cli = SweepCli::parse(argc, argv);
    RunMatrix matrix;
    matrix
        .workloads({WorkloadId::LlamaInference, WorkloadId::Jacobi1d})
        .techniques(
            {"Ideal", "Conduit", "BW-Offloading", "DM-Offloading"});
    cli.configure(matrix);

    SweepRunner runner(cli.runnerOptions());
    const SweepResult sweep = runner.run(matrix.build());

    std::printf("Fig. 8: tail latency of per-instruction requests "
                "(us)\n\n");
    for (const auto &w : sweep.workloadLabels()) {
        std::printf("%s\n", w.c_str());
        std::printf("  %-16s %12s %12s %12s %12s\n", "policy",
                    "p50 (us)", "p99 (us)", "p99.99 (us)", "max (us)");
        double conduit_p99 = 0.0, conduit_p9999 = 0.0;
        std::map<std::string, std::pair<double, double>> tails;
        for (const auto &p : sweep.techniqueLabels()) {
            const auto &r = sweep.at(w, p);
            const double p50 = r.latencyUs.percentile(50);
            const double p99 = r.latencyUs.percentile(99);
            const double p9999 = r.latencyUs.percentile(99.99);
            tails[p] = {p99, p9999};
            if (p == "Conduit") {
                conduit_p99 = p99;
                conduit_p9999 = p9999;
            }
            std::printf("  %-16s %12.2f %12.2f %12.2f %12.2f\n",
                        p.c_str(), p50, p99, p9999, r.latencyUs.max());
        }
        if (conduit_p99 > 0 && tails.count("BW-Offloading") &&
            tails.count("DM-Offloading"))
            std::printf(
                "  Conduit tail improvement: p99 %0.1fx/%0.1fx, "
                "p99.99 %0.1fx/%0.1fx vs BW/DM\n\n",
                tails["BW-Offloading"].first / conduit_p99,
                tails["DM-Offloading"].first / conduit_p99,
                tails["BW-Offloading"].second / conduit_p9999,
                tails["DM-Offloading"].second / conduit_p9999);
    }
    std::printf("paper: LlaMA2 p99 1.8x/5.6x, p99.99 10.7x/22.3x; "
                "jacobi-1d p99 1.7x/1.1x, p99.99 1.9x/1.3x\n");

    return cli.finish(sweep, runner);
}
