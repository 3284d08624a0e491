/**
 * @file
 * Cost-function feature ablation (design-choice study, DESIGN.md):
 * drops one Eqn. 1 feature at a time — resource queueing delay, data
 * movement latency, data dependence delay — and measures the impact
 * on the workloads most sensitive to contention. The variant matrix
 * runs as one parallel sweep with custom-policy columns.
 *
 * This quantifies why the *holistic* cost function matters (§6.1):
 * removing queue awareness degenerates toward DM-Offloading's
 * contention blindness; removing movement awareness degenerates
 * toward BW-Offloading's transfer storms.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    const SweepCli cli = SweepCli::parse(argc, argv);

    struct Variant
    {
        const char *label;
        ConduitPolicy::Ablation ab;
    };
    const Variant variants[] = {
        {"Conduit (full)", {}},
        {"no queue delay", {false, true, true}},
        {"no dm latency", {true, false, true}},
        {"no dep delay", {true, true, false}},
        {"comp only", {false, false, false}},
    };

    RunMatrix matrix;
    matrix.workloads({WorkloadId::LlamaInference, WorkloadId::Heat3d,
                      WorkloadId::LlmTraining, WorkloadId::Aes});
    for (const auto &v : variants) {
        const ConduitPolicy::Ablation ab = v.ab;
        matrix.technique(v.label, [ab] {
            return std::make_unique<ConduitPolicy>(ab);
        });
    }
    cli.configure(matrix, variants[0].label);

    SweepRunner runner(cli.runnerOptions());
    const SweepResult sweep = runner.run(matrix.build());

    std::printf("Ablation: Conduit cost-function features "
                "(execution time normalized to full Conduit)\n\n");
    const auto columns = sweep.techniqueLabels();
    std::printf("%-18s", "workload");
    for (const auto &c : columns)
        std::printf(" %16s", c.c_str());
    std::printf("\n");

    for (const auto &w : sweep.workloadLabels()) {
        const double base = static_cast<double>(
            sweep.at(w, variants[0].label).execTime);
        std::printf("%-18s", w.c_str());
        for (const auto &c : columns) {
            const double t =
                static_cast<double>(sweep.at(w, c).execTime);
            std::printf(" %15.2fx", t / base);
        }
        std::printf("\n");
    }
    std::printf("\n(values > 1.0 mean the ablated variant is slower "
                "than full Conduit)\n");

    return cli.finish(sweep, runner);
}
