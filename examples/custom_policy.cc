/**
 * @file
 * Extensibility example: plug a user-defined offloading policy into
 * the runtime (the §7 extensibility discussion).
 *
 * Implements a "static oracle" policy — a lookup from operation
 * family to resource, the kind of hand-tuned mapping a domain expert
 * might write — and a fault-tolerant run, then compares both with
 * Conduit's dynamic cost function.
 *
 *   ./build/examples/example_custom_policy
 */

#include <cstdio>

#include "src/core/device.hh"

namespace
{

using namespace conduit;

/**
 * Static expert mapping: bitwise to flash, arithmetic to DRAM,
 * everything else to the core. No runtime state consulted.
 */
class StaticOracle : public OffloadPolicy
{
  public:
    Target
    select(const VecInstruction &vi, const CostFeatures &f) override
    {
        if (!vi.vectorized)
            return Target::Isp;
        const auto ifp = static_cast<std::size_t>(Target::Ifp);
        const auto pud = static_cast<std::size_t>(Target::Pud);
        switch (opFamily(vi.op)) {
          case OpFamily::Bitwise:
            return f.supported[ifp] ? Target::Ifp : Target::Isp;
          case OpFamily::Arithmetic:
          case OpFamily::Predication:
            return f.supported[pud] ? Target::Pud : Target::Isp;
          default:
            return Target::Isp;
        }
    }

    std::string name() const override { return "StaticOracle"; }
};

/** Run @p id as one job on a fresh SSD under @p policy. */
RunResult
runJob(WorkloadId id, std::shared_ptr<OffloadPolicy> policy,
       const DeviceOptions &opts = {})
{
    Device dev(opts);
    JobSpec job;
    job.workload = id;
    job.policyObj = std::move(policy);
    return dev.wait(dev.submit(job)).result;
}

} // namespace

int
main()
{
    using namespace conduit;

    std::printf("custom policy vs Conduit's dynamic cost function\n\n");
    std::printf("%-18s %-14s %12s %14s\n", "workload", "policy",
                "time (ms)", "vs Conduit");
    for (WorkloadId id :
         {WorkloadId::Aes, WorkloadId::Heat3d,
          WorkloadId::LlamaInference}) {
        const RunResult conduit = runJob(id, makePolicy("Conduit"));
        const auto oracle = std::make_shared<StaticOracle>();
        const RunResult st = runJob(id, oracle);
        std::printf("%-18s %-14s %12.3f %13.2fx\n",
                    workloadName(id).c_str(), "Conduit",
                    ticksToSeconds(conduit.execTime) * 1e3, 1.0);
        std::printf("%-18s %-14s %12.3f %13.2fx\n", "",
                    oracle->name().c_str(),
                    ticksToSeconds(st.execTime) * 1e3,
                    static_cast<double>(st.execTime) /
                        static_cast<double>(conduit.execTime));
    }

    // Fault handling (§4.4): inject transient faults and observe the
    // replay mechanism keep the run correct at a latency cost.
    std::printf("\ntransient-fault injection on heat-3d (Conduit):\n");
    for (double rate : {0.0, 0.01, 0.05}) {
        DeviceOptions faulty;
        faulty.engine.transientFaultRate = rate;
        const RunResult r =
            runJob(WorkloadId::Heat3d, makePolicy("Conduit"), faulty);
        std::printf("  fault rate %4.0f%%: %8.3f ms, %llu faults "
                    "replayed\n",
                    rate * 100.0, ticksToSeconds(r.execTime) * 1e3,
                    static_cast<unsigned long long>(r.replays));
    }
    return 0;
}
