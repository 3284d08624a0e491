#include "src/runner/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/host/host_model.hh"

namespace conduit::runner
{

namespace
{

/**
 * Index-parallel for over [0, n) on @p threads workers (pre-clamped
 * via SweepRunner::workerCount): workers pull the next unclaimed
 * index, so each body(i) runs exactly once and output order never
 * depends on scheduling. Exceptions are captured per index and the
 * lowest-index one rethrown after the pool drains.
 */
template <typename Body>
void
parallelFor(unsigned threads, std::size_t n, const Body &body)
{
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    for (std::size_t i = 0; i < n; ++i)
        if (errors[i])
            std::rethrow_exception(errors[i]);
}

/** Seconds elapsed since @p t0. */
double
sinceSeconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Attribution label of an offered-load cell; cells on a device with
 * the reliability subsystem enabled append their age.
 */
std::string
loadCellLabel(const LoadRunSpec &spec)
{
    const std::string workload = !spec.workload.empty()
        ? spec.workload
        : spec.workloadId ? workloadName(*spec.workloadId)
        : spec.program    ? spec.program->name
                          : std::string("load");
    char rate[48];
    std::snprintf(rate, sizeof rate, "@%gjobs/s", spec.jobsPerSec);
    std::string label = workload + "/" + spec.technique + rate;
    const ReliabilityConfig &rel = spec.config.reliability;
    if (rel.enabled) {
        char age[64];
        std::snprintf(age, sizeof age, "+w%lu+d%g",
                      static_cast<unsigned long>(rel.preWearCycles),
                      rel.retentionDays);
        label += age;
    }
    return label;
}

/**
 * Resolve a cell's program: @p program when set, else @p workload
 * compiled through @p cache. @p kind and @p label name the cell in
 * the error raised when it has neither.
 */
std::shared_ptr<const Program>
resolveProgram(ProgramCache &cache,
               const std::shared_ptr<const Program> &program,
               const std::optional<WorkloadId> &workload,
               const WorkloadParams &params, const SsdConfig &config,
               const char *kind, const std::string &label)
{
    if (program)
        return program;
    if (!workload)
        throw std::invalid_argument(
            std::string(kind) +
            " has neither a program nor a workload: " + label);
    auto compiled = cache.get(*workload, params, config);
    return std::shared_ptr<const Program>(compiled,
                                          &compiled->program);
}

/** Resolve an offered-load cell's program (explicit > workload). */
std::shared_ptr<const Program>
resolveLoadProgram(ProgramCache &cache, const LoadRunSpec &spec)
{
    return resolveProgram(cache, spec.program, spec.workloadId,
                          spec.params, spec.config, "LoadRunSpec",
                          spec.workload + "/" + spec.technique);
}

/**
 * Display name jobs are submitted under: the explicit @p label, else
 * the workload's name, else the program's own.
 */
std::string
jobName(const std::string &label, const std::optional<WorkloadId> &id,
        const Program &prog)
{
    return !label.empty() ? label
        : id              ? workloadName(*id)
                          : prog.name;
}

/** Device options of an offered-load cell. */
DeviceOptions
loadDeviceOptions(const LoadRunSpec &spec)
{
    DeviceOptions dopts =
        makeDeviceOptions(spec.config, spec.engine, spec.params);
    dopts.capacityPages = spec.capacityPages;
    // Open-loop cells retire eagerly so page regions recycle while
    // later arrivals are still in flight.
    dopts.retire = RetirePolicy::OnComplete;
    return dopts;
}

/** Fresh arrival process of the cell (null at zero rate). */
std::unique_ptr<ArrivalProcess>
loadArrivals(const LoadRunSpec &spec)
{
    if (spec.jobsPerSec <= 0.0)
        return nullptr;
    return makeArrivals(spec.arrivals,
                        static_cast<double>(kPsPerS) / spec.jobsPerSec,
                        spec.arrivalSeed);
}

/**
 * Submit @p count jobs to @p dev, each advancing @p at by the next
 * arrival gap. Warm-phase jobs run under spec.warmupTechnique (by
 * name — custom policy factories apply to measured jobs only, so
 * warm phases stay shareable across a factory-varied sweep).
 */
void
submitLoadJobs(Device &dev, const LoadRunSpec &spec,
               const std::shared_ptr<const Program> &prog,
               const std::string &name, std::size_t count, bool warm,
               ArrivalProcess *arrivals, Tick &at)
{
    for (std::size_t i = 0; i < count; ++i) {
        if (arrivals)
            at += arrivals->next();
        JobSpec job;
        job.name = name;
        job.program = prog;
        // Fresh policy object per job (policies may carry state).
        job.policyObj = !warm && spec.policy
            ? std::shared_ptr<OffloadPolicy>(spec.policy())
            : std::shared_ptr<OffloadPolicy>(makePolicy(
                  warm ? spec.warmupTechnique : spec.technique));
        job.arrival = at;
        dev.submit(job);
    }
}

/**
 * Warm-image sharing key: every spec field the warm phase's
 * simulation reads. Equal keys mean byte-identical warm phases, so
 * buildSharedWarmImages builds the image once and lets every
 * matching cell fork it. Covers the axes the benches and aging vary
 * (technique and measured-job count are deliberately absent — the
 * warm phase runs under warmupTechnique before any measured job).
 */
std::string
warmImageKey(const LoadRunSpec &spec)
{
    char buf[448];
    std::snprintf(
        buf, sizeof buf,
        "|p%p|i%d|w%zu|r%.17g|a%d|as%llu|cap%llu|sc%.17g"
        "|sd%llu|mc%.17g|gc%.17g|ds%.17g|mf%.17g"
        "|re%d|pw%lu|rd%.17g|wl%d|wg%lu|wm%lu",
        static_cast<const void *>(spec.program.get()),
        spec.workloadId ? static_cast<int>(*spec.workloadId) : -1,
        spec.warmupJobs, spec.jobsPerSec,
        static_cast<int>(spec.arrivals),
        static_cast<unsigned long long>(spec.arrivalSeed),
        static_cast<unsigned long long>(spec.capacityPages),
        spec.params.scale,
        static_cast<unsigned long long>(spec.config.seed),
        spec.config.mappingCacheCoverage, spec.config.gcThreshold,
        spec.engine.dramStagingFraction,
        spec.engine.mappingCacheFraction,
        spec.config.reliability.enabled ? 1 : 0,
        static_cast<unsigned long>(
            spec.config.reliability.preWearCycles),
        spec.config.reliability.retentionDays,
        spec.config.reliability.wearLevelEnabled ? 1 : 0,
        static_cast<unsigned long>(spec.config.reliability.wearLevelGap),
        static_cast<unsigned long>(
            spec.config.reliability.wearLevelMaxPerPass));
    return spec.workload + "/" + spec.warmupTechnique + buf;
}

/** Age rung of fleet device @p d (ageMix cycles round-robin). */
std::uint32_t
clusterRung(const ClusterRunSpec &spec, std::size_t d)
{
    return spec.ageMix.empty()
        ? 0u
        : spec.ageMix[d % spec.ageMix.size()];
}

/**
 * Per-device recipe of a fleet cell: the offered-load spec one
 * device of the fleet would see — the first tenant's workload as
 * warm traffic at the per-device share of the fleet rate, with the
 * age rung folded into the reliability config. Equal recipes hash to
 * equal warmImageKeys, so a fleet of one age rung forks one image.
 */
LoadRunSpec
clusterDeviceRecipe(const ClusterRunSpec &spec, std::uint32_t rung)
{
    const ClusterTenant &t0 = spec.tenants.front();
    LoadRunSpec r;
    r.workload = !t0.name.empty() ? t0.name
        : t0.workloadId           ? workloadName(*t0.workloadId)
        : t0.program              ? t0.program->name
                                  : std::string();
    r.technique = spec.warmupTechnique;
    r.config = spec.config;
    r.engine = spec.engine;
    r.params = spec.params;
    r.workloadId = t0.workloadId;
    r.program = t0.program;
    r.jobsPerSec =
        spec.jobsPerSec / static_cast<double>(spec.devices);
    r.arrivals = spec.arrivals;
    r.arrivalSeed = spec.arrivalSeed;
    r.capacityPages = spec.capacityPages;
    r.warmupJobs = spec.warmupJobs;
    r.warmupTechnique = spec.warmupTechnique;
    r.steadyState = spec.warmupJobs > 0;
    if (rung > 0) {
        r.config.reliability.enabled = true;
        r.config.reliability.preWearCycles = rung;
        r.config.reliability.retentionDays =
            spec.retentionDaysPerKCycle * rung / 1000.0;
    }
    return r;
}

/** Attribution label of a fleet cell. */
std::string
clusterCellLabel(const ClusterRunSpec &spec)
{
    if (!spec.label.empty())
        return spec.label;
    char buf[96];
    std::snprintf(buf, sizeof buf, "fleet%zu/%s@%gjobs/s",
                  spec.devices, spec.placement.c_str(),
                  spec.jobsPerSec);
    return buf;
}

} // namespace

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts) {}

SweepPerf
SweepRunner::lastPerf() const
{
    SweepPerf p;
    p.wallSeconds = perfWall_;
    p.cells = perfCells_;
    p.eventsFired = perfEvents_.load(std::memory_order_relaxed);
    p.perCell = perfPerCell_;
    p.warmupSeconds = perfWarmWall_;
    p.warmupImages = perfWarmImages_;
    return p;
}

template <typename Body>
void
SweepRunner::timedSweep(std::size_t cells, const Body &body)
{
    perfCells_ = cells;
    perfEvents_.store(0, std::memory_order_relaxed);
    perfPerCell_.assign(cells, {});
    perfWarmWall_ = 0.0;
    perfWarmImages_ = 0;
    traceCells_.assign(cells, {});
    const auto t0 = std::chrono::steady_clock::now();
    body();
    perfWall_ = sinceSeconds(t0);
}

void
SweepRunner::recordCell(std::size_t i, std::string label,
                        double wallSeconds, std::uint64_t events)
{
    SweepPerf::CellPerf &cp = perfPerCell_[i];
    cp.label = std::move(label);
    cp.wallSeconds = wallSeconds;
    cp.eventsFired = events;
    perfEvents_.fetch_add(events, std::memory_order_relaxed);
}

unsigned
SweepRunner::workerCount(std::size_t jobs) const
{
    unsigned threads = opts_.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(
        std::min<std::size_t>(threads, std::max<std::size_t>(jobs, 1)));
}

RunResult
SweepRunner::runOne(const RunSpec &spec)
{
    std::uint64_t events = 0;
    return runOneCell(spec, nullptr, events);
}

RunResult
SweepRunner::runOneCell(const RunSpec &spec,
                        const std::shared_ptr<trace::Tracer> &tracer,
                        std::uint64_t &events)
{
    events = 0;
    std::shared_ptr<const Program> prog = resolveProgram(
        cache_, spec.program, spec.workloadId, spec.params, spec.config,
        "RunSpec", spec.workload + "/" + spec.technique);

    // Host baselines bypass the SSD engine entirely.
    HostKind host = spec.host;
    if (host == HostKind::None && !spec.policy) {
        if (spec.technique == "CPU")
            host = HostKind::Cpu;
        else if (spec.technique == "GPU")
            host = HostKind::Gpu;
    }
    if (host != HostKind::None) {
        const bool gpu = host == HostKind::Gpu;
        HostModel model(spec.config, gpu ? HostModel::Kind::Gpu
                                         : HostModel::Kind::Cpu);
        const HostResult hr = model.run(*prog);
        RunResult r;
        r.workload = spec.workload;
        r.policy = spec.technique;
        r.execTime = hr.totalTime;
        r.instrCount = prog->instrs.size();
        r.computeBusy = hr.computeTime;
        r.hostDmBusy = hr.transferTime;
        r.dmEnergyJ = hr.dmEnergyJ;
        r.computeEnergyJ = hr.computeEnergyJ;
        return r;
    }

    // The paper's cold-SSD methodology: one tick-0 job on a fresh Device.
    DeviceOptions dopts =
        makeDeviceOptions(spec.config, spec.engine, spec.params);
    dopts.tracer = tracer;
    Device dev(std::move(dopts));
    JobSpec job;
    job.program = std::move(prog);
    job.policyObj = spec.policy ? spec.policy()
                                : makePolicy(spec.technique);
    dev.submit(job);
    DeviceSnapshot snap = dev.drain();
    events = snap.eventsFired;
    RunResult r = std::move(snap.jobs.front().result);
    // Label with the spec's display names (a custom policy object's
    // own name may differ, e.g. ablation variants).
    r.workload = spec.workload;
    r.policy = spec.technique;
    return r;
}

sched::MultiRunResult
SweepRunner::runMulti(const MultiRunSpec &spec)
{
    return runMultiCell(spec, nullptr);
}

sched::MultiRunResult
SweepRunner::runMultiCell(const MultiRunSpec &spec,
                          const std::shared_ptr<trace::Tracer> &tracer)
{
    if (spec.streams.empty())
        throw std::invalid_argument(
            "MultiRunSpec has no streams: " + spec.label);
    std::vector<sched::StreamSpec> streams;
    streams.reserve(spec.streams.size());
    for (const StreamSlot &slot : spec.streams) {
        if (slot.technique == "CPU" || slot.technique == "GPU")
            throw std::invalid_argument(
                "multi-stream cells run on the SSD engine; host "
                "baseline '" + slot.technique +
                "' cannot be a stream: " + spec.label);
        sched::StreamSpec s;
        s.program = resolveProgram(cache_, slot.program, slot.workloadId,
                                   spec.params, spec.config, "StreamSlot",
                                   spec.label + "/" + slot.workload);
        s.policy = slot.policy ? slot.policy()
                               : makePolicy(slot.technique);
        s.name = jobName(slot.workload, slot.workloadId, *s.program);
        streams.push_back(std::move(s));
    }

    // Every stream a tick-0 job on one fresh Device.
    DeviceOptions dopts =
        makeDeviceOptions(spec.config, spec.engine, spec.params);
    dopts.tracer = tracer;
    sched::MultiRunResult mr =
        runStreamsOnDevice(dopts, std::move(streams));
    // Label per-stream results with the slot's display technique (a
    // custom policy object's own name may differ), and rebuild the
    // aggregate's joined label so both agree.
    std::string joined;
    for (std::size_t i = 0; i < mr.streams.size(); ++i) {
        if (!spec.streams[i].technique.empty())
            mr.streams[i].policy = spec.streams[i].technique;
        if (i > 0)
            joined += "+";
        joined += mr.streams[i].policy;
    }
    mr.aggregate.policy = joined;
    return mr;
}

std::vector<sched::MultiRunResult>
SweepRunner::runMultiAll(const std::vector<MultiRunSpec> &specs)
{
    std::vector<sched::MultiRunResult> results(specs.size());
    timedSweep(specs.size(), [&] {
        parallelFor(workerCount(specs.size()), specs.size(),
                    [&](std::size_t i) {
                        const auto c0 =
                            std::chrono::steady_clock::now();
                        auto tracer = makeTracer(opts_.trace);
                        results[i] = runMultiCell(specs[i], tracer);
                        traceCells_[i] = {specs[i].label,
                                          std::move(tracer)};
                        recordCell(i, specs[i].label,
                                   sinceSeconds(c0),
                                   results[i].eventsFired);
                    });
    });
    return results;
}

DeviceImage
SweepRunner::buildWarmImage(const LoadRunSpec &spec)
{
    if (spec.warmupJobs == 0)
        throw std::invalid_argument(
            "buildWarmImage: spec.warmupJobs is 0: " + spec.workload);
    auto prog = resolveLoadProgram(cache_, spec);
    const std::string name = jobName(spec.workload, spec.workloadId, *prog);
    Device dev(loadDeviceOptions(spec));
    auto arrivals = loadArrivals(spec);
    Tick at = 0;
    submitLoadJobs(dev, spec, prog, name, spec.warmupJobs,
                   /*warm=*/true, arrivals.get(), at);
    return dev.snapshot();
}

DeviceSnapshot
SweepRunner::runLoadCell(const LoadRunSpec &spec,
                         const DeviceImage *warm,
                         const std::shared_ptr<trace::Tracer> &tracer)
{
    if (spec.technique == "CPU" || spec.technique == "GPU")
        throw std::invalid_argument(
            "offered-load cells run on the SSD engine; host baseline "
            "'" + spec.technique + "' cannot serve jobs: " +
            spec.workload);
    if (spec.steadyState && spec.warmupJobs == 0)
        throw std::invalid_argument(
            "LoadRunSpec: steadyState needs warmupJobs > 0: " +
            spec.workload);
    auto prog = resolveLoadProgram(cache_, spec);
    const std::string name = jobName(spec.workload, spec.workloadId, *prog);
    auto arrivals = loadArrivals(spec);

    std::optional<Device> dev;
    Tick at = 0;
    if (spec.steadyState) {
        // Fork: the warm phase already ran inside the image. Burn
        // its arrival gaps so the measured phase continues the same
        // arrival process a cold two-phase run sees.
        if (warm) {
            dev.emplace(*warm);
        } else {
            const DeviceImage own = buildWarmImage(spec);
            dev.emplace(own);
        }
        if (arrivals)
            for (std::size_t i = 0; i < spec.warmupJobs; ++i)
                arrivals->next();
        at = dev->now();
    } else {
        dev.emplace(loadDeviceOptions(spec));
        if (spec.warmupJobs > 0) {
            // Cold two-phase: replay the warm phase in place, with
            // the same quiescence barrier snapshot() applies, then
            // resume the arrival clock from the drained device.
            submitLoadJobs(*dev, spec, prog, name, spec.warmupJobs,
                           /*warm=*/true, arrivals.get(), at);
            dev->drain();
            at = dev->now();
        }
    }
    // Attach the tracer only now — after the fork (forks start
    // traceless) or the in-place warm replay — so both steady-state
    // modes trace exactly the measured phase.
    if (tracer)
        dev->setTracer(tracer);
    submitLoadJobs(*dev, spec, prog, name, spec.jobs,
                   /*warm=*/false, arrivals.get(), at);
    return dev->drain();
}

DeviceSnapshot
SweepRunner::runLoad(const LoadRunSpec &spec)
{
    return runLoadCell(spec, nullptr, nullptr);
}

SweepRunner::WarmImages
SweepRunner::buildSharedWarmImages(
    const std::vector<const LoadRunSpec *> &recipes)
{
    // Recipes whose warm-phase inputs agree share one image read-only
    // (forking deep-copies), so an A-policies x B-ages sweep builds
    // B images, not A*B.
    const std::size_t n = recipes.size();
    std::unordered_map<std::string, std::size_t> slots;
    std::vector<std::size_t> slotOf(n, n);
    std::vector<const LoadRunSpec *> distinct;
    for (std::size_t i = 0; i < n; ++i) {
        if (!recipes[i])
            continue;
        const auto [it, fresh] =
            slots.emplace(warmImageKey(*recipes[i]), distinct.size());
        if (fresh)
            distinct.push_back(recipes[i]);
        slotOf[i] = it->second;
    }

    WarmImages warm;
    warm.images.resize(n);
    if (distinct.empty())
        return warm;
    std::vector<std::shared_ptr<const DeviceImage>> built(
        distinct.size());
    const auto w0 = std::chrono::steady_clock::now();
    parallelFor(workerCount(distinct.size()), distinct.size(),
                [&](std::size_t j) {
                    built[j] = std::make_shared<const DeviceImage>(
                        buildWarmImage(*distinct[j]));
                });
    warm.wallSeconds = sinceSeconds(w0);
    warm.built = distinct.size();
    for (std::size_t i = 0; i < n; ++i)
        if (slotOf[i] < n)
            warm.images[i] = built[slotOf[i]];
    return warm;
}

std::vector<DeviceSnapshot>
SweepRunner::runLoadAll(const std::vector<LoadRunSpec> &specs)
{
    const std::size_t n = specs.size();

    // Phase 1: the distinct warm images of the steady-state cells.
    std::vector<const LoadRunSpec *> recipes(n, nullptr);
    for (std::size_t i = 0; i < n; ++i)
        if (specs[i].steadyState && specs[i].warmupJobs > 0)
            recipes[i] = &specs[i];
    const WarmImages warm = buildSharedWarmImages(recipes);

    // Phase 2: the measured cells, forking from the shared images.
    std::vector<DeviceSnapshot> results(n);
    timedSweep(n, [&] {
        parallelFor(workerCount(n), n, [&](std::size_t i) {
            const auto c0 = std::chrono::steady_clock::now();
            const std::string label = loadCellLabel(specs[i]);
            auto tracer = makeTracer(opts_.trace);
            results[i] =
                runLoadCell(specs[i], warm.images[i].get(), tracer);
            traceCells_[i] = {label, std::move(tracer)};
            recordCell(i, label, sinceSeconds(c0),
                       results[i].eventsFired);
        });
    });
    perfWarmWall_ = warm.wallSeconds;
    perfWarmImages_ = warm.built;
    return results;
}

cluster::ClusterSnapshot
SweepRunner::runClusterCell(
    const ClusterRunSpec &spec,
    const std::vector<std::shared_ptr<const DeviceImage>> &images,
    const std::shared_ptr<trace::Tracer> &tracer)
{
    if (spec.devices == 0)
        throw std::invalid_argument(
            "ClusterRunSpec: zero devices: " + spec.label);
    if (spec.tenants.empty())
        throw std::invalid_argument(
            "ClusterRunSpec has no tenants: " + spec.label);
    for (const ClusterTenant &t : spec.tenants)
        if (t.technique == "CPU" || t.technique == "GPU")
            throw std::invalid_argument(
                "fleet cells run on the SSD engine; host baseline "
                "'" + t.technique + "' cannot be a tenant: " +
                spec.label);

    // Resolve each tenant's program and display name once.
    const std::size_t nt = spec.tenants.size();
    std::vector<std::shared_ptr<const Program>> progs(nt);
    std::vector<std::string> names(nt);
    for (std::size_t t = 0; t < nt; ++t) {
        const ClusterTenant &ten = spec.tenants[t];
        progs[t] = resolveProgram(cache_, ten.program, ten.workloadId,
                                  spec.params, spec.config, "LoadRunSpec",
                                  ten.name + "/" + ten.technique);
        names[t] = jobName(ten.name, ten.workloadId, *progs[t]);
    }

    // Merged arrival schedule: jobs split across tenants by weight
    // (floor, then remainder round-robin), each tenant walking its
    // own arrival process (seed offset by tenant index). Merge order
    // is (arrival, per-tenant index, tenant) — a total order, so the
    // stream is identical on every run, and a tick-0 burst (rate 0)
    // interleaves tenants round-robin instead of tenant-major.
    double weightSum = 0.0;
    for (const ClusterTenant &t : spec.tenants)
        weightSum += std::max(t.weight, 0.0);
    std::vector<std::size_t> quota(nt, 0);
    std::size_t assigned = 0;
    for (std::size_t t = 0; t < nt; ++t) {
        const double share = weightSum > 0.0
            ? std::max(spec.tenants[t].weight, 0.0) / weightSum
            : 1.0 / static_cast<double>(nt);
        quota[t] = static_cast<std::size_t>(
            static_cast<double>(spec.jobs) * share);
        assigned += quota[t];
    }
    for (std::size_t t = 0; assigned < spec.jobs; t = (t + 1) % nt) {
        ++quota[t];
        ++assigned;
    }

    struct Slot
    {
        Tick at;
        std::size_t idx;
        std::size_t tenant;
    };
    std::vector<Slot> schedule;
    schedule.reserve(spec.jobs);
    for (std::size_t t = 0; t < nt; ++t) {
        const double share = weightSum > 0.0
            ? std::max(spec.tenants[t].weight, 0.0) / weightSum
            : 1.0 / static_cast<double>(nt);
        const double rate = spec.jobsPerSec * share;
        std::unique_ptr<ArrivalProcess> arr;
        if (rate > 0.0)
            arr = makeArrivals(spec.arrivals,
                               static_cast<double>(kPsPerS) / rate,
                               spec.arrivalSeed + t);
        Tick at = 0;
        for (std::size_t i = 0; i < quota[t]; ++i) {
            if (arr)
                at += arr->next();
            schedule.push_back({at, i, t});
        }
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const Slot &a, const Slot &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.idx != b.idx)
                      return a.idx < b.idx;
                  return a.tenant < b.tenant;
              });

    // Fleet construction: device d forks its shared warm image when
    // one was built, else starts fresh from its age rung's recipe.
    // Fresh devices default to a pool fitting every measured job at
    // once — the fleet-wide footprint sum, which with one device is
    // exactly the auto-size a bare Device computes (the probe path
    // starts sessions before submissions, so auto-sizing can't see
    // the jobs itself).
    std::uint64_t defaultCap = spec.capacityPages;
    if (defaultCap == 0)
        for (std::size_t t = 0; t < nt; ++t)
            defaultCap += static_cast<std::uint64_t>(quota[t]) *
                progs[t]->footprintPages;
    cluster::ClusterOptions copts;
    copts.tracer = tracer;
    copts.devices.resize(spec.devices);
    for (std::size_t d = 0; d < spec.devices; ++d) {
        if (d < images.size() && images[d]) {
            copts.devices[d].image = images[d];
            continue;
        }
        DeviceOptions dopts = loadDeviceOptions(
            clusterDeviceRecipe(spec, clusterRung(spec, d)));
        dopts.capacityPages = defaultCap;
        copts.devices[d].options = std::move(dopts);
    }
    cluster::Cluster fleet(
        std::move(copts),
        cluster::makePlacement(spec.placement, spec.placementSeed));

    for (const Slot &s : schedule) {
        JobSpec job;
        job.name = names[s.tenant];
        job.program = progs[s.tenant];
        // Fresh policy object per job (policies may carry state).
        job.policyObj = std::shared_ptr<OffloadPolicy>(
            makePolicy(spec.tenants[s.tenant].technique));
        job.arrival = s.at;
        fleet.submit(job, s.tenant);
    }
    return fleet.drain();
}

std::vector<cluster::ClusterSnapshot>
SweepRunner::runClusterAll(const std::vector<ClusterRunSpec> &specs)
{
    const std::size_t n = specs.size();

    // Phase 1: the distinct warm device images. The recipes are per
    // device — config, age rung, warm traffic — flattened cell-major,
    // so dedup collapses equal rungs both within a fleet and across
    // cells (a P-policies x R-rungs sweep builds R images, not
    // P*R*devices).
    std::vector<LoadRunSpec> recipes;
    std::vector<std::size_t> firstRecipe(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        firstRecipe[i] = recipes.size();
        if (specs[i].warmupJobs == 0 || specs[i].tenants.empty())
            continue;
        for (std::size_t d = 0; d < specs[i].devices; ++d)
            recipes.push_back(clusterDeviceRecipe(
                specs[i], clusterRung(specs[i], d)));
    }
    firstRecipe[n] = recipes.size();
    std::vector<const LoadRunSpec *> recipePtrs;
    recipePtrs.reserve(recipes.size());
    for (const LoadRunSpec &r : recipes)
        recipePtrs.push_back(&r);
    const WarmImages warm = buildSharedWarmImages(recipePtrs);

    // Phase 2: the fleet cells, forking from the shared images.
    std::vector<cluster::ClusterSnapshot> results(n);
    timedSweep(n, [&] {
        parallelFor(workerCount(n), n, [&](std::size_t i) {
            const auto c0 = std::chrono::steady_clock::now();
            // A cell-level trace config overrides the sweep-wide one.
            auto tracer = makeTracer(specs[i].trace.enabled()
                                         ? specs[i].trace
                                         : opts_.trace);
            const std::vector<std::shared_ptr<const DeviceImage>>
                images(warm.images.begin() + firstRecipe[i],
                       warm.images.begin() + firstRecipe[i + 1]);
            results[i] = runClusterCell(specs[i], images, tracer);
            traceCells_[i] = {clusterCellLabel(specs[i]),
                              std::move(tracer)};
            recordCell(i, clusterCellLabel(specs[i]),
                       sinceSeconds(c0), results[i].eventsFired);
        });
    });
    perfWarmWall_ = warm.wallSeconds;
    perfWarmImages_ = warm.built;
    return results;
}

cluster::ClusterSnapshot
SweepRunner::runCluster(const ClusterRunSpec &spec)
{
    std::vector<cluster::ClusterSnapshot> snaps =
        runClusterAll({spec});
    return std::move(snaps.front());
}

SweepResult
SweepRunner::run(std::vector<RunSpec> specs)
{
    const std::size_t n = specs.size();
    std::vector<RunResult> results(n);
    const unsigned threads = workerCount(n);
    timedSweep(n, [&] {
        parallelFor(threads, n, [&](std::size_t i) {
            const auto c0 = std::chrono::steady_clock::now();
            auto tracer = makeTracer(opts_.trace);
            const std::string label =
                specs[i].workload + "/" + specs[i].technique;
            std::uint64_t events = 0;
            results[i] = runOneCell(specs[i], tracer, events);
            traceCells_[i] = {label, std::move(tracer)};
            recordCell(i, label, sinceSeconds(c0), events);
        });
    });
    return SweepResult(std::move(specs), std::move(results), perfWall_,
                       threads);
}

} // namespace conduit::runner
