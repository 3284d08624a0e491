/**
 * @file
 * Reproduces the Fig. 4 case study: overall execution time of OSP
 * (host CPU), ISP, IFP, and naive IFP+ISP, normalized to OSP, for
 * three workload categories, with the stacked breakdown (compute,
 * host-SSD data movement, SSD-internal data movement, flash read).
 * The 3 categories x 4 execution models run as one parallel sweep
 * over custom-program rows.
 *
 * Paper shape: IFP wins the I/O-intensive category (~0.30 of OSP);
 * naively adding ISP to IFP *hurts* there (inter-resource movement);
 * IFP+ISP wins the compute-intensive and mixed categories.
 */

#include "bench/common.hh"
#include "src/vectorizer/vectorizer.hh"

namespace
{

using namespace conduit;

/** Normalized stacked breakdown of one execution model. */
struct Bar
{
    double total;
    double compute, host_dm, internal_dm, flash_read;
};

Bar
toBar(const RunResult &r, double osp_time)
{
    Bar b{};
    b.total = static_cast<double>(r.execTime) / osp_time;
    // Decompose wall-clock proportionally to attributed busy time.
    const double busy = static_cast<double>(
        r.computeBusy + r.hostDmBusy + r.internalDmBusy +
        r.flashReadBusy);
    if (busy <= 0)
        return b;
    b.compute = b.total * static_cast<double>(r.computeBusy) / busy;
    b.host_dm = b.total * static_cast<double>(r.hostDmBusy) / busy;
    b.internal_dm =
        b.total * static_cast<double>(r.internalDmBusy) / busy;
    b.flash_read =
        b.total * static_cast<double>(r.flashReadBusy) / busy;
    return b;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    const SweepCli cli = SweepCli::parse(argc, argv);

    // Compile the three case-study kernels once, up front, and hang
    // them on the matrix as custom-program rows.
    const SsdConfig cfg = runner::defaultSweepConfig();
    VectorizeOptions vo;
    vo.vectorLanes = cfg.vectorLanes;
    vo.pageBytes = cfg.nand.pageBytes;
    const Vectorizer vec(vo);

    WorkloadParams params;
    params.scale = cli.scale;

    RunMatrix matrix;
    for (CaseStudyClass c :
         {CaseStudyClass::IoIntensive, CaseStudyClass::ComputeIntensive,
          CaseStudyClass::Mixed}) {
        auto vp = std::make_shared<const VectorizedProgram>(
            vec.run(buildCaseStudy(c, params)));
        matrix.program(
            caseStudyName(c),
            std::shared_ptr<const Program>(vp, &vp->program));
    }
    matrix.hostTechnique("OSP", /*gpu=*/false)
        .technique("ISP")
        .technique("IFP",
                   [] { return makePolicy("Flash-Cosmos"); })
        .technique("IFP+ISP",
                   [] { return makePolicy("Ares-Flash"); });
    cli.configure(matrix, "OSP");

    SweepRunner runner(cli.runnerOptions());
    const SweepResult sweep = runner.run(matrix.build());

    std::printf("Fig. 4: case study — execution models normalized to "
                "OSP (lower is better)\n\n");
    std::printf("%-24s %-9s %7s %8s %8s %8s %8s\n", "category", "model",
                "total", "compute", "hostDM", "intDM", "flashRd");

    for (const auto &category : sweep.workloadLabels()) {
        const double osp_time = static_cast<double>(
            sweep.at(category, "OSP").execTime);
        bool first = true;
        for (const auto &model : sweep.techniqueLabels()) {
            const Bar bar = toBar(sweep.at(category, model), osp_time);
            std::printf("%-24s %-9s %7.2f %8.2f %8.2f %8.2f %8.2f\n",
                        first ? category.c_str() : "", model.c_str(),
                        bar.total, bar.compute, bar.host_dm,
                        bar.internal_dm, bar.flash_read);
            first = false;
        }
        std::printf("\n");
    }

    std::printf("paper shape: IFP ~0.30 of OSP on I/O-intensive "
                "(IFP+ISP ~15%% worse than IFP there);\n"
                "IFP+ISP best on compute-intensive (+28%% over IFP) "
                "and mixed (+40%% over IFP).\n");

    return cli.finish(sweep, runner);
}
