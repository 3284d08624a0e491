/**
 * @file
 * Thread-pooled sweep execution.
 *
 * SweepRunner executes RunSpecs and Scenarios across worker threads.
 * Every cell is fully independent — its own cluster::Cluster of
 * Devices (or a host model for the CPU/GPU baselines), its own policy
 * objects, and a deterministic seed derived only from the spec — so
 * the result of spec i is bit-identical whether the sweep runs on 1
 * thread or N, and whatever order the scheduler interleaves the
 * workers in. Compiled programs are shared through an immutable
 * ProgramCache.
 */

#ifndef CONDUIT_RUNNER_SWEEP_RUNNER_HH
#define CONDUIT_RUNNER_SWEEP_RUNNER_HH

#include <string>
#include <vector>

#include "src/cluster/cluster.hh"
#include "src/core/program_cache.hh"
#include "src/runner/run_spec.hh"
#include "src/runner/sweep_result.hh"
#include "src/trace/export.hh"

namespace conduit::runner
{

/** Runner knobs. */
struct SweepOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned threads = 0;

    /**
     * Tracing config applied to every cell of a sweep (disabled by
     * default). Each traced cell gets its own Tracer — cells stay
     * independent, so traces are thread-count invariant like the
     * results — collected via lastTraces(). Warm-image builds never
     * trace: only the measured phase records events.
     */
    trace::TraceConfig trace;
};

/**
 * Wall-clock self-performance of one sweep call (bench_selfperf's
 * raw material): how long the sweep took, how many cells it ran, and
 * how many simulated events the engine cells fired. Events come from
 * the event kernel only — host-baseline cells contribute cells but
 * no events.
 */
struct SweepPerf
{
    /**
     * Per-cell attribution: how long one cell took on its worker
     * and how many simulated events it fired, so a kernel
     * regression localizes to a workload instead of hiding in the
     * sweep total. Host-baseline cells report zero events.
     */
    struct CellPerf
    {
        std::string label;
        double wallSeconds = 0.0;
        std::uint64_t eventsFired = 0;

        double
        eventsPerSec() const
        {
            return wallSeconds > 0.0
                ? static_cast<double>(eventsFired) / wallSeconds
                : 0.0;
        }
    };

    double wallSeconds = 0.0;
    std::size_t cells = 0;
    std::uint64_t eventsFired = 0;
    /** One entry per cell, in spec order. */
    std::vector<CellPerf> perCell;

    /**
     * Warm-phase attribution of a sweep with warm devices: wall
     * spent building the distinct warm DeviceImages (paid once,
     * before the cells fork) and how many distinct images were
     * built. Zero for cold sweeps. Not folded into wallSeconds —
     * report it once, beside the sweep time.
     */
    double warmupSeconds = 0.0;
    std::size_t warmupImages = 0;

    double
    eventsPerSec() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(eventsFired) / wallSeconds
            : 0.0;
    }
};

/** Executes sweep matrices in parallel. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /**
     * Execute every spec and return results in spec order. Throws
     * the first (by spec index) exception any run raised, after all
     * workers have stopped. SSD cells run as one-job scenarios;
     * CPU/GPU cells run the host model.
     */
    SweepResult run(std::vector<RunSpec> specs);

    /**
     * Execute every scenario across the worker pool and return the
     * fleet snapshots in scenario order (cells are independent
     * simulations, so results are thread-count invariant like run()).
     * Warm devices fork shared DeviceImages: each distinct recipe —
     * the whole DeviceOptions plus its warm traffic — builds once
     * (lastPerf().warmupImages) and every matching device in every
     * cell forks it.
     */
    std::vector<cluster::ClusterSnapshot>
    runAll(const std::vector<Scenario> &scenarios);

    /**
     * Worker threads a sweep of @p jobs cells would use: the
     * --threads option (0 = hardware concurrency) clamped to the
     * job count.
     */
    unsigned workerCount(std::size_t jobs) const;

    /** The shared compile cache (shared across run() calls too). */
    ProgramCache &cache() { return cache_; }

    /**
     * Self-performance of the most recent run()/runAll() call. Read
     * it after the sweep returns — not concurrently.
     */
    const SweepPerf &lastPerf() const { return perf_; }

    /**
     * Per-cell traces of the most recent sweep call, in cell order
     * (tracer null when tracing was disabled — host-baseline cells
     * keep an empty tracer so cell indices line up). Read after the
     * sweep returns — not concurrently.
     */
    const std::vector<trace::TraceCell> &
    lastTraces() const
    {
        return traceCells_;
    }

  private:
    /**
     * The one cell body: construct @p s's devices (device d forking
     * @p images[d] when present and non-null, else fresh) behind its
     * placement policy and submit its schedule. The caller drains the
     * cluster — or snapshots it, for a warm image.
     */
    cluster::Cluster assemble(
        const Scenario &s,
        const std::vector<std::shared_ptr<const DeviceImage>> &images,
        std::shared_ptr<trace::Tracer> tracer);

    /** Warm images of one sweep, aligned with its recipes. */
    struct WarmImages
    {
        /** One entry per recipe; null where the recipe was null. */
        std::vector<std::shared_ptr<const DeviceImage>> images;

        /** Wall spent building, and how many distinct images. */
        double wallSeconds = 0.0;
        std::size_t built = 0;
    };

    /**
     * Build the warm image of every non-null recipe, in parallel.
     * Recipes with equal keys share one image, built once; every
     * cell then forks its image read-only.
     */
    WarmImages
    buildSharedWarmImages(const std::vector<const DeviceRecipe *> &recipes);

    /**
     * Run @p cells cells across the pool, timing the sweep into
     * lastPerf(). @p cell(i, tracer) runs cell i with its own tracer
     * (null when tracing is off) and returns its attribution label
     * and fired-event count.
     */
    template <typename Cell>
    void sweepCells(std::size_t cells, const Cell &cell);

    SweepOptions opts_;
    ProgramCache cache_;

    /** Self-performance of the last sweep (see lastPerf()). */
    SweepPerf perf_;

    /** Per-cell traces of the last sweep (see lastTraces()). */
    std::vector<trace::TraceCell> traceCells_;
};

} // namespace conduit::runner

#endif // CONDUIT_RUNNER_SWEEP_RUNNER_HH
