/**
 * @file
 * Reproduces Fig. 9: the fraction of instructions offloaded to each
 * SSD computation resource (ISP, PuD-SSD, IFP) under BW-Offloading,
 * DM-Offloading, Conduit, and Ideal, for every workload, run as one
 * parallel sweep.
 *
 * Paper shape: Conduit's distribution tracks Ideal's; memory-bound
 * workloads use ISP very sparingly (0.4%/0.6% on AES/XOR Filter);
 * LlaMA2 Inference splits between PuD-SSD and ISP and avoids IFP
 * (multiplication shuttles); DM-Offloading over-concentrates on IFP.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    const SweepCli cli = SweepCli::parse(argc, argv);
    RunMatrix matrix;
    matrix.workloads(allWorkloads())
        .techniques(
            {"BW-Offloading", "DM-Offloading", "Conduit", "Ideal"});
    cli.configure(matrix);

    SweepRunner runner(cli.runnerOptions());
    const SweepResult sweep = runner.run(matrix.build());

    std::printf("Fig. 9: fraction of instructions per computation "
                "resource\n\n");
    std::printf("%-18s %-16s %8s %8s %8s\n", "workload", "policy",
                "ISP", "PuD-SSD", "IFP");
    for (const auto &w : sweep.workloadLabels()) {
        bool first = true;
        for (const auto &p : sweep.techniqueLabels()) {
            const auto &r = sweep.at(w, p);
            const double n = static_cast<double>(r.instrCount);
            std::printf("%-18s %-16s %7.1f%% %7.1f%% %7.1f%%\n",
                        first ? w.c_str() : "", p.c_str(),
                        100.0 * r.perResource[0] / n,
                        100.0 * r.perResource[1] / n,
                        100.0 * r.perResource[2] / n);
            first = false;
        }
        std::printf("\n");
    }

    return cli.finish(sweep, runner);
}
