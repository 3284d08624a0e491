/**
 * @file
 * Thread-pooled sweep execution.
 *
 * SweepRunner executes a vector of RunSpecs across worker threads.
 * Every cell is fully independent — its own core::Device (or fleet of
 * them, or a host model for the CPU/GPU baselines), its own policy
 * objects, and a deterministic seed derived only from the spec — so
 * the result of spec i is bit-identical whether the sweep runs on 1
 * thread or N, and whatever order the scheduler interleaves the
 * workers in. Compiled programs are shared through an immutable
 * ProgramCache.
 */

#ifndef CONDUIT_RUNNER_SWEEP_RUNNER_HH
#define CONDUIT_RUNNER_SWEEP_RUNNER_HH

#include <atomic>
#include <string>
#include <vector>

#include "src/cluster/cluster.hh"
#include "src/core/device.hh"
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
     * Warm-phase attribution of a steady-state sweep: wall spent
     * building the distinct warm DeviceImages (paid once, before the
     * cells fork) and how many distinct images were built. Zero for
     * cold sweeps. Not folded into wallSeconds — report it once,
     * beside the sweep time.
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
     * workers have stopped.
     */
    SweepResult run(std::vector<RunSpec> specs);

    /**
     * Execute one spec synchronously (also the per-worker body, so
     * serial and parallel execution are the same code path).
     */
    RunResult runOne(const RunSpec &spec);

    /**
     * Execute one multi-tenant cell: all of @p spec's streams co-run
     * on one fresh simulated SSD. Deterministic for equal specs.
     */
    sched::MultiRunResult runMulti(const MultiRunSpec &spec);

    /**
     * Execute every multi-tenant cell across the worker pool and
     * return results in spec order (cells are independent engine
     * runs, so results are thread-count invariant like run()).
     */
    std::vector<sched::MultiRunResult>
    runMultiAll(const std::vector<MultiRunSpec> &specs);

    /**
     * Execute one offered-load cell: a fresh persistent Device,
     * @p spec.jobs jobs submitted open-loop at the spec's arrival
     * rate, run to completion (eager retirement, so regions recycle
     * under sustained load). Deterministic for equal specs.
     */
    DeviceSnapshot runLoad(const LoadRunSpec &spec);

    /**
     * Execute every offered-load cell across the worker pool and
     * return snapshots in spec order (cells are independent device
     * lifetimes, so results are thread-count invariant like run()).
     * Steady-state cells fork shared warm images. Aging cells are
     * offered-load cells whose config enables the reliability
     * subsystem at the cell's age.
     */
    std::vector<DeviceSnapshot>
    runLoadAll(const std::vector<LoadRunSpec> &specs);

    /**
     * Build the warm DeviceImage of @p spec: a fresh device carried
     * through spec.warmupJobs jobs of warm traffic (the same arrival
     * process the cell uses, under spec.warmupTechnique) and
     * snapshotted at quiescence. Cells whose warm-phase inputs are
     * equal produce byte-identical images, so one image can serve
     * every such cell read-only (Device::fromImage deep-copies).
     */
    DeviceImage buildWarmImage(const LoadRunSpec &spec);

    /**
     * Execute one fleet cell: a cluster::Cluster of spec.devices
     * devices behind the spec's placement policy, serving the merged
     * open-loop tenant streams. One sequential deterministic
     * simulation — identical results on any thread count. Updates
     * lastPerf() (a fleet cell is a one-cell sweep).
     */
    cluster::ClusterSnapshot runCluster(const ClusterRunSpec &spec);

    /**
     * Execute every fleet cell across the worker pool and return
     * snapshots in spec order. Warm fleets share per-rung
     * DeviceImages: each distinct warm recipe (config, age rung,
     * warm traffic) builds once — lastPerf().warmupImages — and
     * every matching device in every cell forks it.
     */
    std::vector<cluster::ClusterSnapshot>
    runClusterAll(const std::vector<ClusterRunSpec> &specs);

    /**
     * Worker threads a sweep of @p jobs cells would use: the
     * --threads option (0 = hardware concurrency) clamped to the
     * job count.
     */
    unsigned workerCount(std::size_t jobs) const;

    /** The shared compile cache (shared across run() calls too). */
    ProgramCache &cache() { return cache_; }

    /**
     * Self-performance of the most recent run()/runMultiAll()/
     * runLoadAll() call (not updated by the single-cell entry
     * points). Read it after the sweep returns — not concurrently.
     */
    SweepPerf lastPerf() const;

    /**
     * Per-cell traces of the most recent sweep call, in spec order
     * (tracer null when tracing was disabled — host-baseline cells
     * keep an empty tracer so cell indices line up). Not updated by
     * the single-cell entry points except runCluster. Read after the
     * sweep returns — not concurrently.
     */
    const std::vector<trace::TraceCell> &
    lastTraces() const
    {
        return traceCells_;
    }

  private:
    /** Fresh per-cell tracer, or null when @p cfg is disabled. */
    static std::shared_ptr<trace::Tracer>
    makeTracer(const trace::TraceConfig &cfg)
    {
        return cfg.enabled() ? std::make_shared<trace::Tracer>(cfg)
                             : nullptr;
    }

    /**
     * The shared single-spec body of run()/runOne(): a host model
     * for the CPU/GPU baselines, else one tick-0 job on a fresh
     * Device. @p events receives the Device's fired-event count (0
     * for host baselines).
     */
    RunResult runOneCell(const RunSpec &spec,
                         const std::shared_ptr<trace::Tracer> &tracer,
                         std::uint64_t &events);

    /** The shared multi-tenant body of runMultiAll()/runMulti(). */
    sched::MultiRunResult
    runMultiCell(const MultiRunSpec &spec,
                 const std::shared_ptr<trace::Tracer> &tracer);
    /**
     * The shared single-cell body: runLoad with an optional
     * pre-built warm image. With spec.steadyState set, the cell
     * forks from @p warm (building its own image when null — the
     * standalone entry points); otherwise the warm phase, if any,
     * replays in place. Either way the measured phase is the same
     * code on the same device state, so fork and cold cells are
     * byte-identical.
     */
    DeviceSnapshot
    runLoadCell(const LoadRunSpec &spec, const DeviceImage *warm,
                const std::shared_ptr<trace::Tracer> &tracer);

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
     * Recipes with equal warm-phase inputs share one image, built
     * once; every cell then forks its image read-only.
     */
    WarmImages
    buildSharedWarmImages(const std::vector<const LoadRunSpec *> &recipes);

    /**
     * The shared fleet-cell body: construct the cluster (device d
     * forking @p images[d] when present and non-null, else fresh),
     * merge the tenant arrival streams, route every job, drain.
     */
    cluster::ClusterSnapshot runClusterCell(
        const ClusterRunSpec &spec,
        const std::vector<std::shared_ptr<const DeviceImage>>
            &images,
        const std::shared_ptr<trace::Tracer> &tracer);

    /** Time @p body, tallying cells/events into lastPerf(). */
    template <typename Body>
    void timedSweep(std::size_t cells, const Body &body);

    /**
     * Record cell @p i's attribution (workers own disjoint slots,
     * so no synchronization is needed beyond the pool join).
     */
    void recordCell(std::size_t i, std::string label,
                    double wallSeconds, std::uint64_t events);

    SweepOptions opts_;
    ProgramCache cache_;

    double perfWall_ = 0.0;
    std::size_t perfCells_ = 0;
    std::atomic<std::uint64_t> perfEvents_{0};
    std::vector<SweepPerf::CellPerf> perfPerCell_;
    double perfWarmWall_ = 0.0;
    std::size_t perfWarmImages_ = 0;

    /** Per-cell traces of the last sweep (see lastTraces()). */
    std::vector<trace::TraceCell> traceCells_;
};

} // namespace conduit::runner

#endif // CONDUIT_RUNNER_SWEEP_RUNNER_HH
