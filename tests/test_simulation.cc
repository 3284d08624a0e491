/**
 * @file
 * End-to-end tests of the paper's methodology — every run one job on
 * a fresh Device, host baselines on the HostModel: the headline
 * orderings the paper reports must hold on the simulated system.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/device.hh"
#include "src/host/host_model.hh"

namespace conduit
{
namespace
{

DeviceOptions
fastOptions()
{
    DeviceOptions opts;
    opts.workload.scale = 0.25;
    return opts;
}

/** @p id compiled once for every test in this file. */
std::shared_ptr<const Program>
program(WorkloadId id)
{
    static ProgramCache cache;
    const DeviceOptions opts = fastOptions();
    const auto vp = cache.get(id, opts.workload, opts.config);
    return std::shared_ptr<const Program>(vp, &vp->program);
}

/** @p id as one job on a fresh SSD under @p policy. */
RunResult
run(WorkloadId id, std::shared_ptr<OffloadPolicy> policy)
{
    Device dev(fastOptions());
    JobSpec job;
    job.program = program(id);
    job.policyObj = std::move(policy);
    return dev.wait(dev.submit(job)).result;
}

RunResult
run(WorkloadId id, const std::string &policy)
{
    return run(id, makePolicy(policy));
}

/** Host baseline: CPU, or GPU when @p gpu. */
HostResult
runHost(WorkloadId id, bool gpu)
{
    return HostModel(fastOptions().config,
                     gpu ? HostModel::Kind::Gpu : HostModel::Kind::Cpu)
        .run(*program(id));
}

TEST(Simulation, EveryPolicyRunsEveryWorkload)
{
    for (WorkloadId id :
         {WorkloadId::Aes, WorkloadId::Jacobi1d}) {
        for (const char *pol :
             {"Conduit", "DM-Offloading", "BW-Offloading", "Ideal",
              "ISP", "PuD-SSD", "Flash-Cosmos", "Ares-Flash"}) {
            auto r = run(id, pol);
            EXPECT_GT(r.execTime, 0u) << pol;
            EXPECT_GT(r.energyJ(), 0.0) << pol;
            EXPECT_EQ(r.policy, pol);
        }
        EXPECT_GT(runHost(id, false).totalTime, 0u);
        EXPECT_GT(runHost(id, true).totalTime, 0u);
    }
}

TEST(Simulation, IdealUpperBoundsAllRealizablePolicies)
{
    for (WorkloadId id : allWorkloads()) {
        const Tick ideal = run(id, "Ideal").execTime;
        for (const char *pol :
             {"Conduit", "DM-Offloading", "BW-Offloading", "ISP"}) {
            EXPECT_LE(ideal, run(id, pol).execTime)
                << workloadName(id) << " " << pol;
        }
    }
}

TEST(Simulation, ConduitBeatsPriorOffloadingOnAverage)
{
    double log_dm = 0.0, log_bw = 0.0, log_isp = 0.0;
    int n = 0;
    for (WorkloadId id : allWorkloads()) {
        const double conduit =
            static_cast<double>(run(id, "Conduit").execTime);
        log_dm += std::log(
            static_cast<double>(run(id, "DM-Offloading").execTime) /
            conduit);
        log_bw += std::log(
            static_cast<double>(run(id, "BW-Offloading").execTime) /
            conduit);
        log_isp += std::log(
            static_cast<double>(run(id, "ISP").execTime) / conduit);
        ++n;
    }
    // Geometric-mean slowdowns of the baselines vs Conduit (Fig. 7a:
    // paper reports 1.8x vs DM, 2.0x vs BW, 3.3x vs ISP).
    EXPECT_GT(std::exp(log_dm / n), 1.2);
    EXPECT_GT(std::exp(log_bw / n), 1.2);
    EXPECT_GT(std::exp(log_isp / n), 1.5);
}

TEST(Simulation, ConduitBeatsHostCpuOnAverage)
{
    double acc = 0.0;
    int n = 0;
    for (WorkloadId id : allWorkloads()) {
        const double cpu =
            static_cast<double>(runHost(id, false).totalTime);
        const double conduit =
            static_cast<double>(run(id, "Conduit").execTime);
        acc += std::log(cpu / conduit);
        ++n;
    }
    // Fig. 7a: 4.2x average speedup over CPU; require a clear win.
    EXPECT_GT(std::exp(acc / n), 2.0);
}

TEST(Simulation, ConduitReducesEnergyVsHost)
{
    double acc = 0.0;
    int n = 0;
    for (WorkloadId id : allWorkloads()) {
        const double cpu = runHost(id, false).energyJ();
        const double conduit = run(id, "Conduit").energyJ();
        acc += std::log(cpu / conduit);
        ++n;
    }
    // Fig. 7b: 78.2% average energy reduction vs CPU.
    EXPECT_GT(std::exp(acc / n), 2.0);
}

TEST(Simulation, DmOffloadingOverusesIfpOnComputeWork)
{
    // §6.4: DM-Offloading pins arithmetic to flash; Conduit spreads.
    auto dm = run(WorkloadId::LlmTraining, "DM-Offloading");
    auto conduit = run(WorkloadId::LlmTraining, "Conduit");
    const auto ifp = static_cast<int>(Target::Ifp);
    EXPECT_GT(dm.perResource[ifp] * 2,
              dm.instrCount); // DM sends the majority to IFP
    EXPECT_LT(conduit.perResource[ifp], dm.perResource[ifp]);
    EXPECT_LT(conduit.execTime, dm.execTime);
}

TEST(Simulation, LlamaAvoidsIfpMultiplication)
{
    // Fig. 9: Conduit and Ideal avoid IFP for LlaMA2's multiplies.
    auto conduit = run(WorkloadId::LlamaInference, "Conduit");
    auto ideal = run(WorkloadId::LlamaInference, "Ideal");
    const auto ifp = static_cast<int>(Target::Ifp);
    EXPECT_LT(static_cast<double>(conduit.perResource[ifp]),
              0.10 * static_cast<double>(conduit.instrCount));
    EXPECT_LT(static_cast<double>(ideal.perResource[ifp]),
              0.10 * static_cast<double>(ideal.instrCount));
}

TEST(Simulation, MemoryBoundWorkloadsBarelyUseIsp)
{
    // Fig. 9: AES/XOR Filter offload well under a few percent of
    // vector instructions to the controller core.
    auto aes = run(WorkloadId::Aes, "Conduit");
    const auto isp = static_cast<int>(Target::Isp);
    EXPECT_LT(static_cast<double>(aes.perResource[isp]),
              0.10 * static_cast<double>(aes.instrCount));
}

TEST(Simulation, ConduitTailLatencyBeatsBwOffloading)
{
    // Fig. 8 shape: contention-aware offloading shortens the tail.
    auto conduit = run(WorkloadId::LlamaInference, "Conduit");
    auto bw = run(WorkloadId::LlamaInference, "BW-Offloading");
    EXPECT_LT(conduit.latencyUs.percentile(99),
              bw.latencyUs.percentile(99));
    EXPECT_LT(conduit.latencyUs.percentile(99.99),
              bw.latencyUs.percentile(99.99));
}

TEST(Simulation, RunsAreReproducible)
{
    auto r1 = run(WorkloadId::Heat3d, "Conduit");
    auto r2 = run(WorkloadId::Heat3d, "Conduit");
    EXPECT_EQ(r1.execTime, r2.execTime);
    EXPECT_EQ(r1.perResource, r2.perResource);
}

TEST(Simulation, CustomPolicyObjectsWork)
{
    // Public-API extensibility: user-defined policy (always-PuD with
    // ISP fallback) plugs into the same run path.
    class MyPolicy : public OffloadPolicy
    {
      public:
        Target
        select(const VecInstruction &vi, const CostFeatures &f) override
        {
            if (!vi.vectorized ||
                !f.supported[static_cast<int>(Target::Pud)])
                return Target::Isp;
            return Target::Pud;
        }
        std::string name() const override { return "my-policy"; }
    };
    auto r = run(WorkloadId::Jacobi1d, std::make_shared<MyPolicy>());
    EXPECT_EQ(r.policy, "my-policy");
    EXPECT_GT(r.execTime, 0u);
}

} // namespace
} // namespace conduit
