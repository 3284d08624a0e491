/**
 * @file
 * Declarative description of a simulation sweep.
 *
 * A RunSpec names one (workload, technique) cell on the default
 * device at a workload scale; a RunMatrix crosses workload and
 * technique axes into a vector of specs. The benches express each
 * paper figure's evaluation matrix this way and hand it to
 * SweepRunner instead of hand-rolling nested loops of Device jobs.
 * Every other experiment shape (co-location, offered load, aging,
 * fleets) is a Scenario built by one of the builders here.
 */

#ifndef CONDUIT_RUNNER_RUN_SPEC_HH
#define CONDUIT_RUNNER_RUN_SPEC_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/arrival.hh"
#include "src/core/device.hh"
#include "src/offload/policy.hh"
#include "src/sim/config.hh"
#include "src/workloads/workloads.hh"

namespace conduit::runner
{

/** Creates a fresh policy object for one run (must be reentrant). */
using PolicyFactory =
    std::function<std::unique_ptr<OffloadPolicy>()>;

/** Which host baseline (if any) a spec runs on. */
enum class HostKind { None, Cpu, Gpu };

/** Split a comma-separated filter list into trimmed labels. */
std::vector<std::string> splitCsv(const std::string &csv);

/** Comma-join labels for "accepted: …" error messages. */
std::string joinLabels(const std::vector<std::string> &labels);

/** First @p filter entry naming no @p labels entry, or nullptr. */
const std::string *findUnknown(const std::vector<std::string> &filter,
                               const std::vector<std::string> &labels);

/**
 * CLI-grade filter validation: report the first @p filter entry
 * naming no @p labels entry to stderr ("unknown <axis> '…';
 * accepted: …") and return false; true when every entry is known.
 */
bool reportUnknown(const std::vector<std::string> &filter,
                   const std::vector<std::string> &labels,
                   const char *axis);

/** The device every sweep runs on unless overridden: Device's default. */
inline SsdConfig
defaultSweepConfig()
{
    return DeviceOptions().config;
}

/**
 * One cell of a sweep: everything needed to execute a single
 * independent run and label its result row.
 */
struct RunSpec
{
    /** Row label; defaults to the workload's display name. */
    std::string workload;

    /**
     * Column label. "CPU" and "GPU" select the host baselines; any
     * other name is resolved through makePolicy() unless @ref policy
     * is set.
     */
    std::string technique;

    /** Workload-generator knobs (ignored with a custom program). */
    WorkloadParams params;

    /** Workload to build and compile (via the shared cache). */
    std::optional<WorkloadId> workloadId;

    /** Pre-compiled program overriding @ref workloadId. */
    std::shared_ptr<const Program> program;

    /**
     * Custom policy constructor overriding makePolicy(technique)
     * (used by the ablation bench for ConduitPolicy variants).
     */
    PolicyFactory policy;

    /**
     * Run on the host instead of the SSD engine. Left at None, the
     * technique labels "CPU" and "GPU" still select the baselines;
     * set it explicitly to run a host baseline under another label
     * (e.g. Fig. 4's "OSP").
     */
    HostKind host = HostKind::None;
};

/**
 * One job source of a Scenario: what its jobs run and under which
 * policy, plus the SLO and load share the row reducer and the fleet
 * builder read. Host baselines do not apply — tenants execute on the
 * SSD engine by definition.
 */
struct Tenant
{
    /** Job and row label; empty defaults to the workload's (or the
     *  program's own) name. */
    std::string name;

    /** Workload every job executes (via the shared compile cache). */
    std::optional<WorkloadId> workloadId;

    /** Pre-compiled program overriding @ref workloadId. */
    std::shared_ptr<const Program> program;

    /** Policy name resolved via makePolicy() unless @ref policy. */
    std::string technique = "Conduit";

    /** Custom policy constructor overriding makePolicy(technique). */
    PolicyFactory policy;

    /**
     * Per-job latency objective in milliseconds; a job attains its
     * SLO when (end - arrival) <= sloMs. 0 disables attainment
     * accounting for this tenant (reported as 1.0).
     */
    double sloMs = 0.0;

    /** Relative share of the offered load (weights need not sum
     *  to 1). */
    double weight = 1.0;
};

/** Display name of @p t: its name, else its workload's or program's. */
std::string tenantName(const Tenant &t);

/**
 * Warm traffic a device lives through before the measured phase:
 * jobs of one program at fixed arrival ticks, all under Conduit
 * (policies apply to measured jobs only, so cells that differ by
 * policy still share a warm phase). A device with warm traffic forks
 * a DeviceImage that SweepRunner builds once per distinct recipe in
 * a sweep.
 */
struct WarmTraffic
{
    /** Job label; empty defaults like Tenant::name. */
    std::string name;

    std::optional<WorkloadId> workloadId;
    std::shared_ptr<const Program> program;

    /** Arrival ticks on the fresh device's clock; empty = no warm
     *  phase (the device starts factory-fresh). */
    std::vector<Tick> ticks;
};

/** How to build one device of a Scenario. */
struct DeviceRecipe
{
    /**
     * Config, engine options, workload scale, page pool and
     * retirement. A fresh device with capacityPages 0 gets a pool
     * fitting every scheduled job at once; a warmed one keeps the
     * pool its warm phase established.
     */
    DeviceOptions options;

    /** Traffic baked into the device's shared warm image. */
    WarmTraffic warm;
};

/** One scheduled job: its arrival tick and which tenant offers it. */
struct ScheduledJob
{
    /** Tick on the fleet clock (see Scenario::schedule). */
    Tick at = 0;
    std::size_t tenant = 0;
};

/**
 * Every SSD experiment the runner executes: devices (fresh or forked
 * from a warm image) behind a placement policy, tenants offering jobs
 * at an explicit arrival schedule. One cell body runs it on a
 * cluster::Cluster — a one-device scenario is byte-identical to the
 * bare Device, so paper cells, co-location batches, offered-load and
 * aging cells and fleets are all Scenarios. The builders below
 * produce the common shapes.
 */
struct Scenario
{
    /** Cell label for per-cell perf and trace attribution. */
    std::string label;

    std::vector<DeviceRecipe> devices;

    /** Tenants, in reporting order. */
    std::vector<Tenant> tenants;

    /**
     * Arrivals in non-decreasing tick order, relative to the fleet
     * epoch: the latest device clock once warm devices are forked
     * (tick 0 for a fresh fleet).
     */
    std::vector<ScheduledJob> schedule;

    /** Placement policy name (resolved via cluster::makePlacement). */
    std::string placement = "round-robin";

    /** Offered load the rows report, in jobs per simulated second
     *  (0 = every job at tick 0). */
    double jobsPerSec = 0.0;
};

/**
 * Co-location batch: every tenant one tick-0 job on @p device.
 * Fresh batches keep DeviceOptions' default OnQuiesce retirement —
 * retirement in submission order at quiescence.
 */
Scenario batchScenario(std::string label, DeviceRecipe device,
                       std::vector<Tenant> tenants);

/** Open-loop traffic the load and fleet builders schedule. */
struct Offer
{
    /** Measured jobs (fleet-wide for a fleet). */
    std::size_t jobs = 8;

    /** Offered load in jobs per simulated second; 0 submits every
     *  job at tick 0. */
    double jobsPerSec = 0.0;

    /** Arrival-process family (mean spacing is 1 / rate). */
    ArrivalKind arrivals = ArrivalKind::Poisson;

    /** Seed for the randomized arrival processes. */
    std::uint64_t arrivalSeed = 1;

    /** Warm jobs per device before the measured phase (0 = cold). */
    std::size_t warmupJobs = 0;
};

/**
 * Offered-load cell: @p tenant's jobs offered open-loop to one
 * device, retiring eagerly so regions recycle under sustained load.
 * Warm and measured gaps come from one arrival process, so the
 * measured phase continues it from the fork epoch. An aging cell is
 * one whose config.reliability carries the age. Labelled
 * "workload/technique@<rate>jobs/s", plus "+w<cycles>+d<days>" on a
 * reliability-enabled device.
 */
Scenario loadScenario(DeviceOptions device, Tenant tenant,
                      const Offer &offer);

/**
 * Fleet cell: one device per entry of @p devices behind
 * @p placement. Jobs split across tenants by weight, each tenant
 * walking its own arrival process (seed arrivalSeed + t) at its share
 * of the rate, merged in (arrival, per-tenant index, tenant) order.
 * With warmupJobs, every device first lives through the first
 * tenant's jobs at its per-device share of the rate; the measured
 * processes then restart at the fleet epoch. An empty @p label
 * becomes "fleet<N>/<placement>@<rate>jobs/s".
 */
Scenario fleetScenario(std::string label, std::string placement,
                       std::vector<DeviceOptions> devices,
                       std::vector<Tenant> tenants, const Offer &offer);

/**
 * Builder crossing workload and technique axes into RunSpecs.
 *
 * Axis order is preserved: build() emits workload-major rows in the
 * exact order the axes were given, so result tables are stable
 * regardless of how the sweep is scheduled.
 */
class RunMatrix
{
  public:
    RunMatrix &params(const WorkloadParams &p);

    RunMatrix &workload(WorkloadId id);
    RunMatrix &workloads(const std::vector<WorkloadId> &ids);

    /** Add a custom-program row axis entry (e.g. a case study). */
    RunMatrix &program(const std::string &label,
                       std::shared_ptr<const Program> prog);

    RunMatrix &technique(const std::string &name);
    RunMatrix &techniques(const std::vector<std::string> &names);

    /** Add a custom-policy column axis entry (e.g. an ablation). */
    RunMatrix &technique(const std::string &label, PolicyFactory make);

    /** Add a host-baseline column under a custom label. */
    RunMatrix &hostTechnique(const std::string &label, bool gpu);

    /**
     * Keep only workloads / techniques whose display name appears in
     * the comma-separated list; an empty list keeps everything.
     * Used by the bench CLI to run reduced matrices (CI smoke).
     */
    RunMatrix &filterWorkloads(const std::string &csv);
    RunMatrix &filterTechniques(const std::string &csv);

    /** @name Axis labels, in axis order @{ */
    std::vector<std::string> workloadLabels() const;
    std::vector<std::string> techniqueLabels() const;
    /** @} */

    /** Cross product, workload-major. */
    std::vector<RunSpec> build() const;

  private:
    struct WorkloadAxis
    {
        std::string label;
        std::optional<WorkloadId> id;
        std::shared_ptr<const Program> program;
    };

    struct TechniqueAxis
    {
        std::string label;
        PolicyFactory policy; // null → resolve by label
        HostKind host = HostKind::None;
    };

    WorkloadParams params_;
    std::vector<WorkloadAxis> workloads_;
    std::vector<TechniqueAxis> techniques_;
    std::vector<std::string> workloadFilter_;
    std::vector<std::string> techniqueFilter_;
};

} // namespace conduit::runner

#endif // CONDUIT_RUNNER_RUN_SPEC_HH
