/**
 * @file
 * Per-stream execution state for the event-driven engine.
 *
 * A production SSD serves many tenants at once: the engine co-runs
 * N independent instruction streams ("tenants") on one simulated
 * device. Each stream gets an ExecContext — its program counter,
 * per-stream completion vector, energy accumulator, and RunResult —
 * while all streams share the device substrate (flash dies, DRAM
 * banks, the controller cores, the offloader pipeline). Contention
 * between streams emerges from the shared FCFS reservation calendars
 * (§4.3–4.5), exactly as single-stream contention does.
 *
 * Streams occupy disjoint logical-page regions: a stream's operand
 * pages are offset by @ref ExecContext::base, so coherence metadata
 * and FTL mappings never alias across tenants even though they live
 * in the same device-wide tables.
 */

#ifndef CONDUIT_CORE_EXEC_CONTEXT_HH
#define CONDUIT_CORE_EXEC_CONTEXT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/run_result.hh"
#include "src/energy/energy_model.hh"
#include "src/ir/instruction.hh"
#include "src/offload/policy.hh"

namespace conduit
{

/**
 * Live execution state of one stream.
 *
 * Owned by the caller of Engine::sessionAttach (Device keeps it in
 * the job's record and frees it at retirement). The engine's
 * dispatch and completion events hold references to it until the
 * stream finishes, so it must not move before then.
 */
struct ExecContext
{
    explicit ExecContext(const EnergyConfig &ecfg) : energy(ecfg) {}

    /** @name Immutable per-run wiring @{ */
    std::uint64_t owner = 0; // caller's handle; the engine never reads it
    std::string name;
    const Program *prog = nullptr;
    OffloadPolicy *policy = nullptr;
    bool ideal = false;
    /** The feature groups the policy reads (OffloadPolicy::needs). */
    FeatureGroups needs;

    /** First absolute logical page of this stream's region, which
     *  spans the program's footprint. */
    std::uint64_t base = 0;

    /** Simulated tick the stream joined the device (first dispatch). */
    Tick arrival = 0;
    /** @} */

    /** @name Live state @{ */

    /** Next instruction to dispatch (index into prog->instrs). */
    std::size_t pc = 0;

    /** Completion tick per instruction id (RAW dependence lookups). */
    std::vector<Tick> completion;

    /** Latest completion seen so far (stream makespan, pre-drain). */
    Tick execEnd = 0;

    /** Completion events scheduled but not yet fired. */
    std::uint32_t outstanding = 0;

    /** Aggregate per-resource compute time in Ideal mode. */
    std::array<Tick, kNumTargets> idealBusy{};
    /** @} */

    /** Per-stream energy attribution. */
    EnergyModel energy;

    /** Per-stream result under construction. */
    RunResult result;

    bool done() const { return prog && pc >= prog->instrs.size(); }

    /** Every instruction dispatched and every completion fired: true
     *  from the last completion event on (from attach if empty). */
    bool finished() const { return done() && outstanding == 0; }
};

} // namespace conduit

#endif // CONDUIT_CORE_EXEC_CONTEXT_HH
