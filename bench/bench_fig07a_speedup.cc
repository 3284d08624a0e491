/**
 * @file
 * Reproduces Fig. 7(a): speedup of Conduit and all baselines over
 * the host CPU across the six workloads. The full workload x policy
 * matrix runs through the parallel SweepRunner.
 *
 * Paper shape: Conduit averages 4.2x over CPU, 1.8x over the best
 * prior offloading policy (DM-Offloading), 2.0x over BW-Offloading,
 * and reaches ~62% of the unrealizable Ideal policy; gains are
 * largest on the compute-intensive workloads and smallest on the
 * memory-bound AES / XOR Filter.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    const SweepCli cli = SweepCli::parse(argc, argv);
    RunMatrix matrix = workloadTechniqueMatrix(evaluationTechniques());
    cli.configure(matrix, "CPU");

    SweepRunner runner(cli.runnerOptions());
    const SweepResult sweep = runner.run(matrix.build());

    std::printf("Fig. 7(a): speedup over CPU (evaluation)\n\n");
    const std::vector<std::string> columns = nonBaselineColumns(sweep);
    printHeader(columns);

    std::map<std::string, std::vector<double>> speedups;
    for (const auto &w : sweep.workloadLabels()) {
        const double cpu =
            static_cast<double>(sweep.at(w, "CPU").execTime);
        std::printf("%-18s", w.c_str());
        for (const auto &t : columns) {
            const double s =
                cpu / static_cast<double>(sweep.at(w, t).execTime);
            speedups[t].push_back(s);
            std::printf(" %13.2fx", s);
        }
        std::printf("\n");
    }
    std::printf("%-18s", "GMEAN");
    for (const auto &t : columns)
        std::printf(" %13.2fx", gmean(speedups[t]));
    std::printf("\n\n");

    if (speedups.count("Conduit")) {
        const double conduit = gmean(speedups["Conduit"]);
        std::printf("key observations (paper values in brackets):\n");
        std::printf("  Conduit vs CPU:            %5.2fx  [4.2x]\n",
                    conduit);
        const struct
        {
            const char *name;
            const char *paper;
        } baselines[] = {
            {"GPU", "1.8x"},          {"ISP", "3.3x"},
            {"PuD-SSD", "2.2x"},      {"Flash-Cosmos", "3.3x"},
            {"Ares-Flash", "2.3x"},   {"BW-Offloading", "2.0x"},
            {"DM-Offloading", "1.8x"},
        };
        for (const auto &b : baselines) {
            if (!speedups.count(b.name))
                continue;
            std::printf("  Conduit vs %-15s %5.2fx  [%s]\n",
                        (std::string(b.name) + ":").c_str(),
                        conduit / gmean(speedups[b.name]), b.paper);
        }
        if (speedups.count("Ideal"))
            std::printf("  Conduit / Ideal:           %5.0f%%  [62%%]\n",
                        100.0 * conduit / gmean(speedups["Ideal"]));
    }

    return cli.finish(sweep, runner);
}
