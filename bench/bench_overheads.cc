/**
 * @file
 * Reproduces the §4.5 overhead analysis with google-benchmark
 * microbenchmarks of Conduit's runtime hot path, plus a model audit
 * of the simulated per-instruction overhead and metadata budgets.
 *
 * Paper values: feature collection + instruction transformation cost
 * 3.77 us on average (up to 33 us when an L2P lookup misses to
 * flash); the translation table consumes ~1.5 KiB of SSD DRAM.
 */

#include <benchmark/benchmark.h>

#include "bench/common.hh"
#include "src/core/transformer.hh"

namespace
{

using namespace conduit;

std::shared_ptr<const Program>
benchProgram()
{
    conduit::ProgramCache cache;
    auto vp = cache.get(WorkloadId::LlamaInference, {},
                        runner::defaultSweepConfig());
    return std::shared_ptr<const Program>(vp, &vp->program);
}

/** Run @p prog under Conduit as one tick-0 job on @p dev. */
DeviceSnapshot
runConduitJob(Device &dev, const std::shared_ptr<const Program> &prog)
{
    JobSpec job;
    job.program = prog;
    dev.submit(job);
    return dev.drain();
}

DeviceOptions
benchDevice()
{
    DeviceOptions opts;
    opts.config = runner::defaultSweepConfig();
    return opts;
}

/** Host-side cost of evaluating the cost function (Eqn. 1/2). */
void
BM_CostFunctionEvaluation(benchmark::State &state)
{
    Device dev(benchDevice());
    const auto prog = benchProgram();
    runConduitJob(dev, prog); // populate device state
    ConduitPolicy policy;
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &vi = prog->instrs[i++ % prog->instrs.size()];
        CostFeatures f = dev.engine().features(vi, 0);
        benchmark::DoNotOptimize(policy.select(vi, f));
    }
}
BENCHMARK(BM_CostFunctionEvaluation);

/** Host-side cost of instruction transformation. */
void
BM_InstructionTransformation(benchmark::State &state)
{
    InstructionTransformer tx(4096, 8192, 32);
    const auto prog = benchProgram();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &vi = prog->instrs[i++ % prog->instrs.size()];
        benchmark::DoNotOptimize(
            tx.transform(vi, static_cast<Target>(i % 3)));
    }
}
BENCHMARK(BM_InstructionTransformation);

/** Full simulated run throughput (instructions per host second). */
void
BM_EngineRunLlama(benchmark::State &state)
{
    const auto prog = benchProgram();
    for (auto _ : state) {
        Device dev(benchDevice());
        benchmark::DoNotOptimize(runConduitJob(dev, prog));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(prog->instrs.size()));
}
BENCHMARK(BM_EngineRunLlama);

} // namespace

int
main(int argc, char **argv)
{
    using namespace conduit;

    // Model audit: simulated per-instruction offloader latency.
    {
        SsdConfig cfg;
        const OverheadConfig &o = cfg.overhead;
        const Tick typical = 2 * o.l2pLookupDram + o.depTrackPerQueue +
            o.queueTrackPerResource + o.dmTableLookup +
            o.compTableLookup + o.translationLookup;
        const Tick worst = 2 * o.l2pLookupFlash + o.depTrackPerQueue +
            o.queueTrackPerResource + o.dmTableLookup +
            o.compTableLookup + o.translationLookup;
        std::printf("S4.5 overhead audit (simulated model)\n");
        std::printf("  typical per-instruction overhead: %.2f us "
                    "[paper avg 3.77 us]\n",
                    ticksToUs(typical));
        std::printf("  worst-case (L2P misses to flash): %.2f us "
                    "[paper up to 33 us]\n",
                    ticksToUs(worst));
        std::printf("  translation table: %llu bytes "
                    "[paper ~1.5 KiB]\n",
                    static_cast<unsigned long long>(
                        InstructionTransformer::tableBytes()));
        std::printf("  cost-feature metadata per instruction: "
                    "2B op + 4b loc + 2B dep + 3x4B queue + 4B dm + "
                    "4B comp = 25B\n\n");
    }

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
