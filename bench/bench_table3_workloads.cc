/**
 * @file
 * Reproduces Table 3: characteristics of the evaluated workloads —
 * vectorizable-code percentage, average operand reuse, and the
 * low/medium/high-latency operation mix — as measured by running the
 * compile-time preprocessing stage on each kernel (through the
 * sweep runner's shared program cache; no simulation runs needed).
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    const SweepCli cli = SweepCli::parse(argc, argv);
    if (cli.listWorkloads) {
        std::vector<std::string> names;
        for (WorkloadId id : allWorkloads())
            names.push_back(workloadName(id));
        runner::listAndExit(names);
    }
    if (cli.listTechniques)
        runner::listAndExit({}); // compile-only: no technique axis
    // Compile-time bench: no sweep runs, so the run-oriented flags
    // have nothing to act on — say so instead of silently ignoring.
    if (!cli.csvPath.empty() || !cli.jsonPath.empty() ||
        !cli.techniqueFilter.empty() || cli.threads != 0)
        std::fprintf(stderr,
                     "note: --csv/--json/--techniques/--threads have "
                     "no effect on this compile-only bench\n");

    struct PaperRow
    {
        double vect, reuse, low, med, high;
    };
    // Table 3 reference values.
    const std::map<std::string, PaperRow> paper = {
        {"AES", {65, 15.2, 87, 13, 0}},
        {"XOR Filter", {16, 2.0, 1, 98, 1}},
        {"heat-3d", {95, 16.0, 0, 60, 40}},
        {"jacobi-1d", {95, 3.0, 0, 67, 33}},
        {"LlaMA2 Inference", {70, 1.8, 0, 53, 47}},
        {"LLM Training", {60, 5.2, 0, 88, 12}},
    };

    const SsdConfig cfg = runner::defaultSweepConfig();
    WorkloadParams params;
    params.scale = cli.scale;
    conduit::ProgramCache cache;

    // Honor --workloads like the sweep benches do.
    const auto keep = runner::splitCsv(cli.workloadFilter);
    std::vector<WorkloadId> workloads;
    for (WorkloadId id : allWorkloads())
        if (keep.empty() ||
            std::find(keep.begin(), keep.end(), workloadName(id)) !=
                keep.end())
            workloads.push_back(id);

    std::printf("Table 3: workload characteristics "
                "(measured vs [paper])\n\n");
    std::printf("%-18s %16s %14s %12s %12s %12s %8s %8s\n", "workload",
                "vectorizable%", "avg reuse", "low%", "med%", "high%",
                "instrs", "pages");
    for (WorkloadId id : workloads) {
        const auto vp = cache.get(id, params, cfg);
        const auto &r = vp->report;
        const auto &p = paper.at(workloadName(id));
        std::printf(
            "%-18s %8.0f%% [%3.0f%%] %6.1f [%4.1f] %4.0f%% [%3.0f%%] "
            "%4.0f%% [%3.0f%%] %4.0f%% [%3.0f%%] %8zu %8llu\n",
            workloadName(id).c_str(),
            100.0 * r.vectorizableFraction, p.vect, r.avgReuse,
            p.reuse, 100.0 * r.lowFraction, p.low,
            100.0 * r.medFraction, p.med, 100.0 * r.highFraction,
            p.high, vp->program.instrs.size(),
            static_cast<unsigned long long>(
                vp->program.footprintPages));
    }

    std::printf("\ncompile-time vectorization remarks "
                "(-Rpass=loop-vectorize style):\n");
    for (WorkloadId id : {WorkloadId::Aes, WorkloadId::XorFilter}) {
        if (std::find(workloads.begin(), workloads.end(), id) ==
            workloads.end())
            continue;
        std::printf("  %s:\n", workloadName(id).c_str());
        for (const auto &remark : cache.get(id, params, cfg)->report.remarks)
            std::printf("    %s\n", remark.c_str());
    }
    return 0;
}
