/**
 * @file
 * Engine run options and per-run results.
 *
 * Split out of engine.hh so per-stream execution state
 * (exec_context.hh) can be described without depending on the full
 * Engine definition: an ExecContext owns a RunResult, and each
 * Device job owns its ExecContext.
 */

#ifndef CONDUIT_CORE_RUN_RESULT_HH
#define CONDUIT_CORE_RUN_RESULT_HH

#include <array>
#include <cstdint>
#include <string>

#include "src/offload/policy.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace conduit
{

/** Engine run options (device-wide; shared by all co-run streams). */
struct EngineOptions
{
    /** Probability of a transient fault per executed instruction. */
    double transientFaultRate = 0.0;

    /** Coherence version-counter flush threshold (§4.4). */
    std::uint8_t versionFlushThreshold = 255;

    /**
     * Per-die page-buffer latch capacity in pages: planes x the
     * S/D/cache latch planes Ares-Flash exposes per plane. Results
     * beyond this spill to the array via SLC programming.
     */
    std::uint32_t latchPagesPerDie = 16;

    /** Drain dirty result pages to the host when the run ends. */
    bool drainResults = true;

    /**
     * SSD-DRAM staging capacity as a fraction of the workload
     * footprint. The default is effectively unbounded (the SSD DRAM
     * data region holds gigabytes, far beyond the scaled working
     * sets simulated here); lowering it forces capacity-driven
     * writebacks for the DRAM-pressure ablation.
     */
    double dramStagingFraction = 4.0;
};

/** Everything a run (one instruction stream) produces. */
struct RunResult
{
    std::string workload;
    std::string policy;

    Tick execTime = 0;
    std::uint64_t instrCount = 0;
    std::array<std::uint64_t, kNumTargets> perResource{};

    /** Per-instruction latency (dispatch to completion), in us. */
    Histogram latencyUs;

    double dmEnergyJ = 0.0;
    double computeEnergyJ = 0.0;
    double energyJ() const { return dmEnergyJ + computeEnergyJ; }

    /** @name Attributed busy time (Fig. 4 breakdown inputs) @{ */
    Tick computeBusy = 0;
    Tick internalDmBusy = 0;
    Tick flashReadBusy = 0;
    Tick hostDmBusy = 0;
    Tick offloaderBusy = 0;
    /** @} */

    std::uint64_t faultsInjected = 0;
    std::uint64_t replays = 0;
    std::uint64_t coherenceCommits = 0;
    std::uint64_t latchEvictions = 0;
};

} // namespace conduit

#endif // CONDUIT_CORE_RUN_RESULT_HH
