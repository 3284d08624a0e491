/**
 * @file
 * The persistent simulated SSD with dynamic job submission.
 *
 * Device is the one way to run a program on the simulated SSD. The
 * paper's methodology asks "what if these N programs start together
 * on a cold device?" — N jobs arriving at tick 0. A production SSD
 * instead serves a *stream* of arriving requests: jobs show up
 * over time, occupy logical-page regions while they run, and leave.
 * Device is that long-lived object — it owns one simulated SSD for
 * its whole lifetime and accepts jobs dynamically:
 *
 *   Device dev(opts);
 *   JobSpec spec;
 *   spec.workload = WorkloadId::Aes;
 *   JobId a = dev.submit(spec);
 *   spec.workload = WorkloadId::Jacobi1d;
 *   spec.policy = "DM-Offloading";
 *   spec.arrival = usToTicks(500);
 *   JobId b = dev.submit(spec);
 *   const JobResult &ra = dev.wait(a);   // advance sim until a retires
 *   DeviceSnapshot all = dev.drain();    // run everything submitted
 *
 * Jobs arrive at their simulated arrival tick (arrival events on the
 * shared EventQueue), get a logical-page region from a first-fit
 * allocator, co-run with whatever else is on the device, and retire:
 * results drain to the host and the region is reclaimed for later
 * jobs. Submission is open-loop — arrival times never depend on
 * completion times — so offered-load experiments (saturation curves,
 * SLO tails under churn) are first-class.
 *
 * Device is the only driver of engine sessions. A batch run is the
 * special case of every job arriving at tick 0: regions laid out in
 * submission order, retirement in submission order at quiescence.
 * wait() finishes one job, drain() a whole batch; the sweep runner's
 * scenario cells (through cluster::Cluster) are built on this class.
 *
 * Everything is deterministic: arrivals, admission, retirement and
 * reclamation all happen at defined points in simulated time, so
 * repeat runs — on any host thread count — are bit-identical.
 */

#ifndef CONDUIT_CORE_DEVICE_HH
#define CONDUIT_CORE_DEVICE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/engine.hh"
#include "src/core/program_cache.hh"
#include "src/workloads/workloads.hh"

namespace conduit
{

/** Identifies a job on one device (sequential from 1; 0 is invalid). */
using JobId = std::uint64_t;

/**
 * First-fit allocator over the device's logical-page pool.
 *
 * Jobs occupy contiguous regions; freeing coalesces with neighbours.
 * Allocation order is deterministic (lowest free base wins), so jobs
 * admitted in submission order from an empty pool land back to back
 * in submission order.
 */
class RegionAllocator
{
  public:
    explicit RegionAllocator(std::uint64_t pages = 0) { reset(pages); }

    /** Drop all allocations and resize the pool to @p pages. */
    void reset(std::uint64_t pages);

    /** First-fit allocate @p pages; nullopt when nothing fits. */
    std::optional<std::uint64_t> allocate(std::uint64_t pages);

    /** Return [base, base + pages), coalescing with free neighbours. */
    void release(std::uint64_t base, std::uint64_t pages);

    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t inUse() const { return inUse_; }

  private:
    std::map<std::uint64_t, std::uint64_t> free_; // base -> length
    std::uint64_t capacity_ = 0;
    std::uint64_t inUse_ = 0;
};

/** When a finished job's results drain and its region frees. */
enum class RetirePolicy
{
    /**
     * At device quiescence, in submission order — batch semantics
     * for simultaneous arrivals.
     */
    OnQuiesce,

    /**
     * Inside the job's final completion event — open-loop mode:
     * regions recycle while other jobs are still running, so a
     * bounded device can serve an unbounded job stream.
     */
    OnComplete,
};

/** Device-wide knobs (fixed for the device's lifetime). */
struct DeviceOptions
{
    /** Device configuration (defaults: Table 2 geometry, scaled). */
    SsdConfig config = SsdConfig::scaled(1.0 / 128.0);

    /** Engine options shared by every job. */
    EngineOptions engine;

    /** Workload dataset scale for JobSpec::workload compilation. */
    WorkloadParams workload;

    /**
     * Logical-page pool backing job regions. 0 sizes the pool to the
     * footprint sum of the jobs pending at the first advance, so a
     * batch of simultaneous arrivals admits at once. Set it
     * explicitly for open-ended operation with admission control.
     */
    std::uint64_t capacityPages = 0;

    /** Retirement policy (see RetirePolicy). */
    RetirePolicy retire = RetirePolicy::OnQuiesce;

    /**
     * Trace sink shared with the caller; null disables tracing. Never
     * captured into a DeviceImage — snapshot() strips it and a forked
     * device starts with no tracer (empty trace).
     */
    // lint: transient(observer wiring; never part of a warm image)
    std::shared_ptr<trace::Tracer> tracer;
};

/**
 * DeviceOptions from a (config, engine, workload) triple, every
 * other field at its default. Called by perfbench's driver and
 * test_runner.
 */
inline DeviceOptions
makeDeviceOptions(const SsdConfig &config, const EngineOptions &engine,
                  const WorkloadParams &workload)
{
    DeviceOptions d;
    d.config = config;
    d.engine = engine;
    d.workload = workload;
    return d;
}

/** One unit of work offered to the device. */
struct JobSpec
{
    /** Result label; defaults to the workload/program name. */
    std::string name;

    /** Workload to compile via the device's compile-once cache. */
    std::optional<WorkloadId> workload;

    /** Pre-compiled program (overrides @ref workload). */
    std::shared_ptr<const Program> program;

    /** Policy name resolved via makePolicy(). */
    std::string policy = "Conduit";

    /** Externally constructed policy (overrides @ref policy). */
    std::shared_ptr<OffloadPolicy> policyObj;

    /**
     * Simulated arrival tick. Clamped to the device's current time
     * when submitting after the simulation has advanced.
     */
    Tick arrival = 0;
};

/** Everything known about one retired (or in-flight) job. */
struct JobResult
{
    JobId id = 0;

    /** Tick the job arrived at the device. */
    Tick arrival = 0;

    /**
     * Tick the job was admitted (region allocated, stream attached).
     * Later than @ref arrival when the job queued for capacity.
     */
    Tick admitted = 0;

    /** Completion tick, result drain included. */
    Tick end = 0;

    /** Region the job occupied. */
    std::uint64_t basePage = 0;
    std::uint64_t pages = 0;

    /** The job's per-stream run result. */
    RunResult result;

    /** Arrival-to-completion time (queueing + service). */
    Tick sojourn() const { return end > arrival ? end - arrival : 0; }
};

/**
 * Host-visible utilization probe of a device at its current tick —
 * the backlog state a fleet placement policy (src/cluster) may
 * observe when routing a job, and nothing more. Taking a probe is
 * cheap and side-effect free: counters the device already tracks
 * plus one read of the NAND die calendars.
 */
struct DeviceProbe
{
    /** Device clock the probe was taken at. */
    Tick now = 0;

    /** Jobs submitted but not yet retired (queued + in service). */
    std::size_t pendingJobs = 0;

    /** Jobs queued for admission capacity (subset of pending). */
    std::size_t waitingJobs = 0;

    /** Logical pages held by admitted jobs. */
    std::uint64_t admittedPages = 0;

    /** Logical-page pool size (0 before the session starts). */
    std::uint64_t capacityPages = 0;

    /** Fraction of NAND dies with sensing backlog at @ref now. */
    double dieBusyFraction = 0.0;
};

/** drain()'s view of the device: every retired job plus aggregates. */
struct DeviceSnapshot
{
    /** Retired jobs, in submission order. */
    std::vector<JobResult> jobs;

    /**
     * Device-level aggregate: per-job counters and busy times
     * summed, latency histograms merged, labels joined with "+",
     * and the makespan as execTime.
     */
    RunResult aggregate;

    /** Latest job end (drains included); a fork's starts at its clock. */
    Tick makespan = 0;

    /** Events fired on the device's queue so far. */
    std::uint64_t eventsFired = 0;

    /**
     * Cumulative reliability counters (ECC retries, retired blocks,
     * scrub activity). All zero unless the device's config enables
     * the reliability subsystem.
     */
    reliability::ReliabilityStats reliability;
};

/**
 * A deep snapshot of a quiescent Device — everything needed to
 * construct a device whose subsequent simulation is byte-identical
 * to one that lived through the captured history (warmup, aging, GC,
 * retirements, the lot). It holds device state, not job history: a
 * fork starts with an empty job list. A value type: copy it, share
 * it read-only across threads (`std::shared_ptr<const DeviceImage>`),
 * and fork as many independent devices from one image as you like —
 * each Device::fromImage() deep-copies on construction.
 */
struct DeviceImage
{
    /** The captured device's options (config, engine, workload). */
    DeviceOptions options;

    /**
     * The logical-page pool capacity in force at capture. Recorded
     * explicitly so images taken from auto-sized devices
     * (capacityPages == 0) fork with the pool the warmup actually
     * established, not a re-derived one.
     */
    std::uint64_t capacityPages = 0;

    /** Full engine-level state (substrates, RNG, clock, stats). */
    Engine::Image engine;

    /** Jobs the captured device served: a count, not history (see
     *  Device::traceJobNumber). */
    std::uint64_t jobsServed = 0;
};

/**
 * A persistent simulated SSD accepting jobs over its lifetime.
 *
 * Not thread-safe: a Device advances one discrete-event simulation;
 * drive it from one thread (sweep across devices for parallelism,
 * as SweepRunner::runAll does).
 */
class Device
{
  public:
    explicit Device(DeviceOptions opts = {});

    /**
     * Construct a device continuing exactly where @p img left off:
     * same simulated clock, same wear and mappings, same RNG stream
     * positions, same cumulative counters and event count. Its job
     * list starts empty: JobIds restart at 1, drain() reports only
     * jobs submitted to the fork, and the makespan starts at the
     * image clock. Equivalent to fromImage(img).
     */
    explicit Device(const DeviceImage &img);

    /**
     * Non-copyable, non-movable: the engine's subsystems hold
     * references into each other and event callbacks hold addresses
     * of job records. (Returning a freshly constructed Device from a
     * factory still works — C++17 guaranteed elision.)
     */
    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    /**
     * Offer a job to the device. Compilation (for workload jobs) and
     * policy construction happen immediately; the job itself arrives
     * at max(arrival, now()) in simulated time. Returns the handle
     * for wait(). Throws std::invalid_argument if an operand of the
     * program leaves its footprint.
     */
    JobId submit(const JobSpec &spec);

    /**
     * Advance the simulation until @p id retires, then return its
     * result. Waiting on an already-retired job returns immediately.
     * @throws std::out_of_range on an unknown id.
     * @throws std::runtime_error when the job can never be admitted
     *         (its footprint exceeds what the pool could ever free).
     */
    const JobResult &wait(JobId id);

    /**
     * Advance the simulation until every submitted job has retired
     * and return the cumulative snapshot. The device stays usable —
     * more jobs may be submitted afterwards and drained again.
     */
    DeviceSnapshot drain();

    /**
     * Capture a deep image of the device: advance to quiescence
     * (every submitted job retired, queue empty), then copy all
     * mutable simulated state. The device stays usable afterwards.
     * Fork-equivalence contract: a Device built from the image and a
     * device that keeps living produce byte-identical simulated
     * results for identical subsequent submissions.
     */
    DeviceImage snapshot();

    /** Fork a fresh device from @p img (guaranteed-elision factory). */
    static Device fromImage(const DeviceImage &img)
    {
        return Device(img);
    }

    /**
     * Advance the simulation through every event at tick <= @p t
     * (arrivals, dispatches, completions, eager retirements). The
     * fleet layer uses this to bring a device to a job's arrival
     * tick before probing it; jobs submitted afterwards still arrive
     * at their requested tick (>= t by open-loop construction).
     */
    void advanceTo(Tick t);

    /**
     * Host-visible utilization probe at the device's current tick.
     * Const and side-effect free — callers wanting "state at tick t"
     * advanceTo(t) first.
     */
    DeviceProbe probe() const;

    /** Current simulated time of the device. */
    Tick now() const;

    /** Jobs submitted to this device (a fork starts at 0). */
    std::size_t jobCount() const { return jobs_.size(); }

    /** Job @p id's number in traces: counts jobs served before a fork. */
    std::uint64_t traceJobNumber(JobId id) const { return priorJobs_ + id; }

    /** Jobs not yet retired. */
    std::size_t unfinishedJobs() const
    {
        return jobs_.size() - retired_;
    }

    /** The underlying engine (stats and feature probes). */
    Engine &engine() { return engine_; }
    const Engine &engine() const { return engine_; }

    const DeviceOptions &options() const { return opts_; }

    /**
     * Attach a tracer (null detaches); @p device tags this device's
     * events in multi-device traces. Replaces any tracer installed
     * via DeviceOptions.
     */
    void setTracer(std::shared_ptr<trace::Tracer> t,
                   std::uint32_t device = 0);

  private:
    /** The only record of a job; retired exactly when live is null. */
    struct Job
    {
        /** Held from submission; retirement frees it in one step. */
        struct Live
        {
            explicit Live(const EnergyConfig &energy) : ctx(energy) {}
            std::string name;
            std::shared_ptr<const Program> program;
            std::shared_ptr<OffloadPolicy> policy;
            ExecContext ctx; // attached at admission; borrows the above
        };
        std::unique_ptr<Live> live;
        JobResult result; // arrival: the requested tick until scheduled

        std::uint64_t footprint() const
        {
            return live->program->footprintPages;
        }
        /** All completions fired, not yet retired. */
        bool finished() const { return live && live->ctx.finished(); }
    };

    /** Start the engine session lazily, at the first advance. */
    void ensureSession();

    /** Post the job's arrival event (or admit it at session start). */
    void scheduleArrival(Job &job);

    /** Arrival: allocate a region and attach, or queue for space. */
    void admit(Job &job);

    /** Attach the job's stream in [base, base+footprint). */
    void attach(Job &job, std::uint64_t base);

    /** A stream finished — mark its job, retire in OnComplete mode. */
    void onStreamDone(ExecContext &ctx);

    /**
     * Retire events (deferred region releases) fire after same-tick
     * dispatches and completions.
     */
    static constexpr int kRetirePriority = 2;

    /**
     * Drain results and finalize the job. In OnComplete mode the
     * region frees when the drain finishes in simulated time; in
     * OnQuiesce mode (batch semantics) it frees in place.
     */
    void retire(Job &job);

    /** Return a region to the pool and admit queued jobs, FIFO. */
    void releaseRegion(std::uint64_t base, std::uint64_t pages);

    /**
     * Quiescence: retire finished jobs in submission order.
     * @return true if any job retired (retiring can admit queued
     *         jobs — including empty-program ones that finish
     *         instantly — so callers must re-run until no progress).
     */
    bool retireFinished();

    /**
     * Run the event loop to quiescence, retiring and re-admitting
     * until no progress is possible.
     * @throws std::runtime_error if waiting jobs can never fit.
     */
    void advanceToQuiescence();

    /** Record a Queue admission-state sample if the cadence elapsed. */
    void sampleQueues();

    DeviceOptions opts_;
    Engine engine_;
    // lint: transient(memoized compiled programs; rebuilt on demand, never observable)
    ProgramCache cache_;
    RegionAllocator regions_;
    bool session_ = false;

    // lint: transient-begin(a fork carries no job history: it starts with an empty job list and JobIds restart at 1)
    std::deque<Job> jobs_; // deque: stable addresses for callbacks
    std::size_t retired_ = 0;
    // lint: transient-end
    // lint: transient(snapshot() drains to quiescence first, so the admission queue is empty at capture)
    std::deque<JobId> waiting_;
    Tick makespan_ = 0;
    /** Jobs served before the fork (DeviceImage::jobsServed). */
    std::uint64_t priorJobs_ = 0;

    /** @name Tracing wiring (never part of a DeviceImage) @{ */
    // lint: transient-begin(passive observer wiring; stripped from snapshots so forks start with empty traces)
    std::shared_ptr<trace::Tracer> tracer_;
    std::uint32_t traceId_ = 0;
    Tick nextQueueSampleAt_ = 0;
    // lint: transient-end
    /** @} */
};

} // namespace conduit

#endif // CONDUIT_CORE_DEVICE_HH
