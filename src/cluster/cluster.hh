/**
 * @file
 * A fleet of simulated SSDs behind one host-level placement policy.
 *
 * One core::Device simulates one drive exquisitely well; production
 * serving puts a *rack* of mixed-age drives behind a host scheduler.
 * Cluster owns N Devices (heterogeneous configs and ages allowed,
 * each optionally forked from a shared warm/pre-worn DeviceImage),
 * routes an open-loop stream of jobs across them through a pluggable
 * PlacementPolicy, and reports the fleet-level outcome: per-device
 * snapshots plus the fleet routing record that row emitters reduce
 * to throughput, utilization/imbalance, per-tenant SLO attainment,
 * and the fleet latency tails.
 *
 *   cluster::ClusterOptions opts;
 *   opts.devices.resize(4, {devOpts, nullptr});
 *   cluster::Cluster fleet(std::move(opts),
 *                          cluster::makePlacement("least-backlog"));
 *   JobSpec spec; spec.program = prog; spec.arrival = t;  // fleet tick
 *   fleet.submit(spec, 0);                                // tenant 0
 *   cluster::ClusterSnapshot snap = fleet.drain();
 *
 * Determinism: a cluster is one sequential discrete-event program.
 * Jobs must be submitted in non-decreasing arrival order (open loop:
 * arrivals never depend on completions); for probe-observing
 * policies the cluster advances every device to the job's arrival
 * tick and probes it, so routing decisions see exactly the simulated
 * state at that tick — the same state on every host thread count and
 * repeat. Probe-free policies (and single-device fleets) skip the
 * advancement entirely, leaving each device on the bare open-loop
 * submission path a standalone Device runs: a single-device Cluster
 * is byte-identical to the equivalent bare Device run (and, deciding
 * nothing, records no placement trace events).
 */

#ifndef CONDUIT_CLUSTER_CLUSTER_HH
#define CONDUIT_CLUSTER_CLUSTER_HH

#include <memory>
#include <vector>

#include "src/cluster/placement.hh"
#include "src/core/device.hh"

namespace conduit::cluster
{

/** Per-device construction recipe: options, or a shared image. */
struct DeviceSeed
{
    /** Options for a fresh device (ignored when @ref image set). */
    DeviceOptions options;

    /**
     * Fork the device from this image instead (Device::fromImage
     * deep-copies, so one image may seed any number of devices —
     * one warm/pre-worn image per age rung serves the whole fleet).
     */
    std::shared_ptr<const DeviceImage> image;
};

/** Fleet construction recipe. */
struct ClusterOptions
{
    /** One seed per device, in device-index order. */
    std::vector<DeviceSeed> devices;

    /**
     * Fleet-wide trace sink; null disables tracing. Attached to every
     * device after construction (device index = trace device id), so
     * image-forked devices trace too — forking strips per-device
     * tracers, never a fleet's.
     */
    std::shared_ptr<trace::Tracer> tracer;
};

/** One routed job's fleet-level record. */
struct RoutedJob
{
    /** Tenant slot the job belonged to. */
    std::size_t tenant = 0;

    /** Device the placement policy picked. */
    std::size_t device = 0;

    /** Device-local job handle (index into the device snapshot). */
    JobId id = 0;

    /** Arrival tick (absolute device time). */
    Tick arrival = 0;
};

/** drain()'s view of the fleet. */
struct ClusterSnapshot
{
    /** Per-device snapshots, in device-index order. */
    std::vector<DeviceSnapshot> devices;

    /** Every routed job, in fleet submission (arrival) order. */
    std::vector<RoutedJob> routed;

    /** Fleet clock epoch: max device clock at construction (warm
     *  images leave forked devices mid-life; fresh fleets start 0). */
    Tick base = 0;

    /** Latest device makespan: the latest routed-job end, or the
     *  clock a forked device that ran no job started at (absolute
     *  device time). */
    Tick makespan = 0;

    /** Events fired across the fleet (per-device counters summed;
     *  forked devices count from their image's total). */
    std::uint64_t eventsFired = 0;

    /** Result of routed job @p r (lives in the device snapshots). */
    const JobResult &
    result(std::size_t r) const
    {
        const RoutedJob &j = routed.at(r);
        return devices.at(j.device).jobs.at(j.id - 1);
    }
};

/**
 * N simulated SSDs behind one placement policy.
 *
 * Not thread-safe — a cluster advances one interleaved simulation;
 * drive it from one thread and sweep across clusters for parallelism
 * (SweepRunner::runAll).
 */
class Cluster
{
  public:
    /** @throws std::invalid_argument on an empty fleet / null policy. */
    Cluster(ClusterOptions opts,
            std::unique_ptr<PlacementPolicy> policy);
    Cluster(Cluster &&) = default;

    /**
     * Tears the devices down last-built first. Front to back, glibc
     * trims the heap top each time and the next fleet built faults
     * it back in (perfbench fleet-open set-up: 0.07 s against 0.04 s).
     */
    ~Cluster();

    std::size_t size() const { return devices_.size(); }

    Device &device(std::size_t i) { return *devices_.at(i); }
    const Device &device(std::size_t i) const
    {
        return *devices_.at(i);
    }

    PlacementPolicy &policy() { return *policy_; }

    /** Fleet clock epoch (see ClusterSnapshot::base). */
    Tick base() const { return base_; }

    /**
     * Route one job. @p spec.arrival is a tick on the fleet clock
     * (relative to base()); submissions must come in non-decreasing
     * arrival order. The placement policy decides the device —
     * observing per-device probes at the arrival tick when it needs
     * them — and the job is submitted there.
     */
    RoutedJob submit(const JobSpec &spec, std::size_t tenant = 0);

    /**
     * Probes of every device, each advanced through tick @p t
     * (absolute device time) first. What a probe-observing policy
     * sees at an arrival.
     */
    std::vector<DeviceProbe> probe(Tick t);

    /** Drain every device and collect the fleet snapshot. */
    ClusterSnapshot drain();

  private:
    std::vector<std::unique_ptr<Device>> devices_;
    std::unique_ptr<PlacementPolicy> policy_;
    std::vector<RoutedJob> routed_;
    std::vector<DeviceProbe> idleProbes_; // probe-free path
    std::shared_ptr<trace::Tracer> tracer_;
    Tick base_ = 0;
    Tick lastArrival_ = 0;
};

} // namespace conduit::cluster

#endif // CONDUIT_CLUSTER_CLUSTER_HH
