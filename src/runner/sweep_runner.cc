#include "src/runner/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "src/host/host_model.hh"

namespace conduit::runner
{

namespace
{

/** Policy every warm job runs under, whatever its cells measure. */
constexpr const char *kWarmTechnique = "Conduit";

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
 * Resolve a cell's program: @p program when set, else @p workload
 * compiled through @p cache. @p label names the cell in the error
 * raised when it has neither.
 */
std::shared_ptr<const Program>
resolveProgram(ProgramCache &cache,
               const std::shared_ptr<const Program> &program,
               const std::optional<WorkloadId> &workload,
               const DeviceOptions &device, const std::string &label)
{
    if (program)
        return program;
    if (!workload)
        throw std::invalid_argument(
            "cell has neither a program nor a workload: " + label);
    auto compiled = cache.get(*workload, device.workload, device.config);
    return std::shared_ptr<const Program>(compiled,
                                          &compiled->program);
}

/** Fresh per-cell tracer, or null when @p cfg is disabled. */
std::shared_ptr<trace::Tracer>
makeTracer(const trace::TraceConfig &cfg)
{
    return cfg.enabled() ? std::make_shared<trace::Tracer>(cfg)
                         : nullptr;
}

/**
 * Appends fields to a warm-image key, each in a round-trip format
 * and '|'-terminated so adjacent fields stay apart.
 */
class KeyText
{
  public:
    template <typename T>
    KeyText &
    operator<<(const T &v)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            text_ += v;
        } else if constexpr (std::is_floating_point_v<T>) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            text_ += buf;
        } else if constexpr (std::is_enum_v<T>) {
            text_ += std::to_string(static_cast<long long>(v));
        } else {
            text_ += std::to_string(v);
        }
        text_ += '|';
        return *this;
    }

    std::string take() { return std::move(text_); }

  private:
    std::string text_;
};

/**
 * Warm-image sharing key: every input a warm phase's simulation
 * reads — each member of the recipe's DeviceOptions (every SsdConfig
 * sub-struct field, EngineOptions, WorkloadParams, capacity,
 * retirement) and its warm traffic. Equal keys mean byte-identical
 * warm phases, so the image is built once and every matching device
 * forks it. conduit-lint's member-coverage check fails the build when
 * a member of any of these structs is missing here, and its
 * write-only check when one is read nowhere else.
 */
std::string
imageKey(const DeviceRecipe &recipe)
{
    const DeviceOptions &o = recipe.options;
    const SsdConfig &c = o.config;
    const NandConfig &nand = c.nand;
    const DramConfig &dram = c.dram;
    const IspConfig &isp = c.isp;
    const HostConfig &host = c.host;
    const EnergyConfig &energy = c.energy;
    const OverheadConfig &overhead = c.overhead;
    const ComputeModelConfig &compute = c.compute;
    const ReliabilityConfig &rel = c.reliability;
    const EngineOptions &e = o.engine;
    const WarmTraffic &w = recipe.warm;

    KeyText k;
    k << nand.channels << nand.diesPerChannel << nand.planesPerDie
      << nand.blocksPerPlane << nand.pagesPerBlock << nand.pageBytes
      << nand.channelBytesPerSec << nand.readTicks << nand.programTicks
      << nand.eraseTicks << nand.cmdTicks << nand.dmaTicks
      << nand.andOrTicks << nand.xorTicks << nand.latchTicks
      << nand.maxAndOperands << nand.maxOrOperands;
    k << dram.banks << dram.rowBytes << dram.busBytesPerSec << dram.tRcd
      << dram.tRp << dram.tCas << dram.bbopTicks;
    k << isp.clockHz << isp.simdBytes << isp.streamBytesPerSec;
    k << host.pcieBytesPerSec << host.cpuLowOpsPerSec
      << host.cpuMedOpsPerSec << host.cpuHighOpsPerSec
      << host.gpuLowOpsPerSec << host.gpuMedOpsPerSec
      << host.gpuHighOpsPerSec << host.cpuCacheFraction
      << host.gpuCacheFraction << host.ioOverheadPerPage
      << host.cpuWatts << host.gpuWatts << host.pcieJoulesPerByte;
    k << energy.readJPerChannel << energy.andOrJPerKb << energy.xorJPerKb
      << energy.latchJPerKb << energy.dmaJPerChannel
      << energy.programJPerChannel << energy.bbopJ << energy.dramJPerByte
      << energy.ispWatts << energy.channelJPerByte;
    k << overhead.l2pLookupDram << overhead.l2pLookupFlash
      << overhead.depTrackPerQueue << overhead.queueTrackPerResource
      << overhead.dmTableLookup << overhead.compTableLookup
      << overhead.translationLookup << overhead.issueTicks;
    k << compute.pudBitwiseBbops << compute.pudAddBbops
      << compute.pudMulBbops << compute.pudPredBbops
      << compute.pudCopyBbops << compute.ispCyclesPerSimdLow
      << compute.ispCyclesPerSimdMed << compute.ispCyclesPerSimdHigh
      << compute.ispScalarCyclesPerElem << compute.ifpAddStepsPerBit
      << compute.ifpMulStepsPerBit << compute.ifpMulShuttles;
    k << rel.enabled << rel.preWearCycles << rel.retentionDays
      << rel.rberFresh << rel.ratedCycles << rel.wearAlpha
      << rel.retentionBeta << rel.nominalRetentionDays << rel.blockJitter
      << rel.hardDecodeRber << rel.retryRberFactor << rel.maxReadRetries
      << rel.retryTicks << rel.softDecodeTicks << rel.uncorrectableRber
      << rel.retireSoftThreshold << rel.scrubIntervalTicks
      << rel.scrubBlocksPerPass << rel.scrubRberThreshold
      << rel.scrubMaxRefreshPerPass << rel.wearLevelEnabled
      << rel.wearLevelGap << rel.wearLevelMaxPerPass;
    k << c.vectorLanes << c.gcThreshold << c.seed;
    k << e.transientFaultRate << e.versionFlushThreshold
      << e.latchPagesPerDie << e.drainResults << e.dramStagingFraction;
    k << o.workload.scale << o.capacityPages << o.retire;
    char prog[32];
    std::snprintf(prog, sizeof prog, "%p",
                  static_cast<const void *>(w.program.get()));
    k << w.name << (w.workloadId ? static_cast<int>(*w.workloadId) : -1)
      << std::string(prog);
    for (Tick t : w.ticks)
        k << t;
    return k.take();
}

} // namespace

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts) {}

template <typename Cell>
void
SweepRunner::sweepCells(std::size_t cells, const Cell &cell)
{
    perf_ = {};
    perf_.cells = cells;
    perf_.perCell.assign(cells, {});
    traceCells_.assign(cells, {});
    std::atomic<std::uint64_t> events_total{0};
    const auto t0 = std::chrono::steady_clock::now();
    // Workers own disjoint per-cell slots, so no synchronization is
    // needed beyond the pool join.
    parallelFor(workerCount(cells), cells, [&](std::size_t i) {
        const auto c0 = std::chrono::steady_clock::now();
        auto tracer = makeTracer(opts_.trace);
        auto [label, events] = cell(i, tracer);
        SweepPerf::CellPerf &cp = perf_.perCell[i];
        cp.wallSeconds = sinceSeconds(c0);
        cp.eventsFired = events;
        cp.label = label;
        events_total.fetch_add(events, std::memory_order_relaxed);
        traceCells_[i] = {std::move(label), std::move(tracer)};
    });
    perf_.wallSeconds = sinceSeconds(t0);
    perf_.eventsFired = events_total.load(std::memory_order_relaxed);
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

cluster::Cluster
SweepRunner::assemble(
    const Scenario &s,
    const std::vector<std::shared_ptr<const DeviceImage>> &images,
    std::shared_ptr<trace::Tracer> tracer)
{
    if (s.devices.empty())
        throw std::invalid_argument("Scenario has no devices: " +
                                    s.label);
    if (s.tenants.empty())
        throw std::invalid_argument("Scenario has no tenants: " +
                                    s.label);

    // Resolve each tenant's program once. Every device of a scenario
    // shares the vectorizer geometry, so the first recipe compiles
    // for all of them.
    const std::size_t nt = s.tenants.size();
    std::vector<std::shared_ptr<const Program>> progs(nt);
    for (std::size_t t = 0; t < nt; ++t) {
        const Tenant &ten = s.tenants[t];
        if (!ten.policy &&
            (ten.technique == "CPU" || ten.technique == "GPU"))
            throw std::invalid_argument(
                "scenario tenants run on the SSD engine; host baseline "
                "'" + ten.technique + "' cannot serve jobs: " + s.label);
        progs[t] = resolveProgram(cache_, ten.program, ten.workloadId,
                                  s.devices.front().options,
                                  s.label + "/" + tenantName(ten));
    }

    // Fresh devices default to a pool fitting every scheduled job at
    // once: with one device exactly the auto-size a bare Device
    // computes (a probing fleet starts sessions before its
    // submissions, so auto-sizing can't see the jobs itself).
    std::uint64_t scheduledPages = 0;
    for (const ScheduledJob &j : s.schedule)
        scheduledPages += progs.at(j.tenant)->footprintPages;
    cluster::ClusterOptions copts;
    copts.tracer = std::move(tracer);
    copts.devices.resize(s.devices.size());
    for (std::size_t d = 0; d < s.devices.size(); ++d) {
        if (d < images.size() && images[d]) {
            copts.devices[d].image = images[d];
            continue;
        }
        DeviceOptions dopts = s.devices[d].options;
        if (dopts.capacityPages == 0)
            dopts.capacityPages = scheduledPages;
        copts.devices[d].options = std::move(dopts);
    }
    cluster::Cluster fleet(std::move(copts),
                           cluster::makePlacement(s.placement));

    for (const ScheduledJob &j : s.schedule) {
        const Tenant &ten = s.tenants[j.tenant];
        JobSpec job;
        job.name = tenantName(ten);
        job.program = progs[j.tenant];
        // Fresh policy object per job (policies may carry state).
        job.policyObj = ten.policy
            ? std::shared_ptr<OffloadPolicy>(ten.policy())
            : std::shared_ptr<OffloadPolicy>(makePolicy(ten.technique));
        job.arrival = j.at;
        fleet.submit(job, j.tenant);
    }
    return fleet;
}

SweepRunner::WarmImages
SweepRunner::buildSharedWarmImages(
    const std::vector<const DeviceRecipe *> &recipes)
{
    // Recipes whose keys agree share one image read-only (forking
    // deep-copies), so an A-policies x B-ages sweep builds B images,
    // not A*B.
    const std::size_t n = recipes.size();
    std::unordered_map<std::string, std::size_t> slots;
    std::vector<std::size_t> slotOf(n, n);
    std::vector<const DeviceRecipe *> distinct;
    for (std::size_t i = 0; i < n; ++i) {
        if (!recipes[i])
            continue;
        const std::string key = imageKey(*recipes[i]);
        const auto [it, fresh] = slots.emplace(key, distinct.size());
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
                    // The warm phase is itself a scenario: the bare
                    // recipe serving its warm traffic, snapshotted at
                    // quiescence. Image builds never trace.
                    const DeviceRecipe &r = *distinct[j];
                    Tenant t;
                    t.name = r.warm.name;
                    t.workloadId = r.warm.workloadId;
                    t.program = r.warm.program;
                    t.technique = kWarmTechnique;
                    Scenario s;
                    s.label = "warm/" + tenantName(t);
                    s.devices.push_back({r.options, {}});
                    s.tenants.push_back(std::move(t));
                    for (Tick at : r.warm.ticks)
                        s.schedule.push_back({at, 0});
                    built[j] = std::make_shared<const DeviceImage>(
                        assemble(s, {}, nullptr).device(0).snapshot());
                });
    warm.wallSeconds = sinceSeconds(w0);
    warm.built = distinct.size();
    for (std::size_t i = 0; i < n; ++i)
        if (slotOf[i] < n)
            warm.images[i] = built[slotOf[i]];
    return warm;
}

std::vector<cluster::ClusterSnapshot>
SweepRunner::runAll(const std::vector<Scenario> &scenarios)
{
    const std::size_t n = scenarios.size();

    // Phase 1: the distinct warm images, over every device recipe
    // flattened cell-major, so equal recipes collapse both within a
    // fleet and across cells.
    std::vector<const DeviceRecipe *> recipes;
    std::vector<std::size_t> firstRecipe(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        firstRecipe[i] = recipes.size();
        for (const DeviceRecipe &r : scenarios[i].devices)
            recipes.push_back(r.warm.ticks.empty() ? nullptr : &r);
    }
    firstRecipe[n] = recipes.size();
    const WarmImages warm = buildSharedWarmImages(recipes);

    // Phase 2: the cells, forking from the shared images.
    std::vector<cluster::ClusterSnapshot> results(n);
    sweepCells(n, [&](std::size_t i,
                      const std::shared_ptr<trace::Tracer> &tracer) {
        const std::vector<std::shared_ptr<const DeviceImage>> images(
            warm.images.begin() + firstRecipe[i],
            warm.images.begin() + firstRecipe[i + 1]);
        results[i] = assemble(scenarios[i], images, tracer).drain();
        return std::make_pair(scenarios[i].label, results[i].eventsFired);
    });
    perf_.warmupSeconds = warm.wallSeconds;
    perf_.warmupImages = warm.built;
    return results;
}

SweepResult
SweepRunner::run(std::vector<RunSpec> specs)
{
    const std::size_t n = specs.size();
    std::vector<RunResult> results(n);
    sweepCells(n, [&](std::size_t i,
                      const std::shared_ptr<trace::Tracer> &tracer) {
        const RunSpec &spec = specs[i];
        std::string label = spec.workload + "/" + spec.technique;
        RunResult &r = results[i];
        std::uint64_t events = 0;

        // Host baselines bypass the SSD engine entirely.
        HostKind host = spec.host;
        if (host == HostKind::None && !spec.policy) {
            if (spec.technique == "CPU")
                host = HostKind::Cpu;
            else if (spec.technique == "GPU")
                host = HostKind::Gpu;
        }
        DeviceOptions device;
        device.workload = spec.params;
        if (host != HostKind::None) {
            const auto prog = resolveProgram(
                cache_, spec.program, spec.workloadId, device, label);
            HostModel model(device.config, host == HostKind::Gpu
                                               ? HostModel::Kind::Gpu
                                               : HostModel::Kind::Cpu);
            const HostResult hr = model.run(*prog);
            r.execTime = hr.totalTime;
            r.instrCount = prog->instrs.size();
            r.computeBusy = hr.computeTime;
            r.hostDmBusy = hr.transferTime;
            r.dmEnergyJ = hr.dmEnergyJ;
            r.computeEnergyJ = hr.computeEnergyJ;
        } else {
            // The paper's cold-SSD methodology: one tick-0 job on a
            // fresh device.
            Tenant t;
            t.workloadId = spec.workloadId;
            t.program = spec.program;
            t.technique = spec.technique;
            t.policy = spec.policy;
            const Scenario s = batchScenario(
                label, {std::move(device), {}}, {std::move(t)});
            cluster::ClusterSnapshot snap =
                assemble(s, {}, tracer).drain();
            events = snap.eventsFired;
            r = std::move(snap.devices.front().jobs.front().result);
        }
        // Label with the spec's display names (a custom policy
        // object's own name may differ, e.g. ablation variants).
        r.workload = spec.workload;
        r.policy = spec.technique;
        return std::make_pair(std::move(label), events);
    });
    return SweepResult(std::move(specs), std::move(results),
                       perf_.wallSeconds, workerCount(n));
}

} // namespace conduit::runner
