/**
 * @file
 * Quickstart: compile a kernel with Conduit's preprocessing stage
 * and execute it inside the simulated SSD under the Conduit
 * offloading policy, comparing against the host CPU.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/example_quickstart
 */

#include <cstdio>

#include "src/core/device.hh"
#include "src/host/host_model.hh"

int
main()
{
    using namespace conduit;

    const DeviceOptions opts; // Table 2 geometry, scaled

    // Compile-time preprocessing: auto-vectorize the AES kernel into
    // 4096-lane SIMD instructions with embedded metadata.
    ProgramCache cache;
    const auto compiled =
        cache.get(WorkloadId::Aes, opts.workload, opts.config);
    const VectorizedProgram &vp = *compiled;
    std::printf("compiled %-16s: %llu vector + %llu scalar instrs, "
                "%.0f%% vectorized\n",
                vp.program.name.c_str(),
                static_cast<unsigned long long>(vp.report.vectorInstrs),
                static_cast<unsigned long long>(vp.report.scalarInstrs),
                100.0 * vp.report.vectorizableFraction);
    for (const auto &remark : vp.report.remarks)
        std::printf("  remark: %s\n", remark.c_str());

    // Runtime: execute as one job on a fresh SSD under Conduit, and
    // on the host CPU.
    Device dev(opts);
    JobSpec job;
    job.program = std::shared_ptr<const Program>(compiled, &vp.program);
    job.policy = "Conduit";
    const RunResult conduit_run = dev.wait(dev.submit(job)).result;
    const HostResult cpu_run =
        HostModel(opts.config, HostModel::Kind::Cpu).run(vp.program);

    std::printf("\n%-10s %14s %12s %10s\n", "engine", "exec time (ms)",
                "energy (mJ)", "speedup");
    auto row = [&](const char *engine, Tick time, double energy_j) {
        std::printf("%-10s %14.3f %12.3f %9.2fx\n", engine,
                    ticksToSeconds(time) * 1e3, energy_j * 1e3,
                    static_cast<double>(cpu_run.totalTime) /
                        static_cast<double>(time));
    };
    row("CPU", cpu_run.totalTime, cpu_run.energyJ());
    row(conduit_run.policy.c_str(), conduit_run.execTime,
        conduit_run.energyJ());

    std::printf("\noffload split: ISP %llu, PuD %llu, IFP %llu\n",
                static_cast<unsigned long long>(
                    conduit_run.perResource[0]),
                static_cast<unsigned long long>(
                    conduit_run.perResource[1]),
                static_cast<unsigned long long>(
                    conduit_run.perResource[2]));
    return 0;
}
