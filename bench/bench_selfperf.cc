/**
 * @file
 * Simulator self-performance: how fast the simulator itself runs.
 *
 * Every paper figure is now swept through the runner/Device
 * subsystems, so simulator wall-clock speed bounds how many scenario
 * cells a sweep can cover. This bench measures that speed and emits
 * a machine-readable record (BENCH_selfperf.json by default, or the
 * --json path), seeding the repo's performance trajectory: commit
 * the JSON, and later PRs diff against it.
 *
 * Two layers are measured:
 *
 * 1. An event-kernel microbench: raw EventQueue throughput on the
 *    shapes real runs produce — a dispatch chain (each callback
 *    schedules its successor), a pre-populated fan of events (plus a
 *    fan_wide variant with a 10x resident set), an open-loop
 *    pre-populated-arrivals shape (every arrival fires a same-tick
 *    dispatch step that schedules its completion — the shape of an
 *    open-loop Device run), an overload shape (pre-populated
 *    arrivals whose dispatch chains schedule every successor in
 *    front of a pile of pending completions), and a DeviceImage
 *    snapshot-fork round trip (the per-cell fixed cost of warmed
 *    sweeps). Reported as events (or forks) per second of wall
 *    time. Each event-queue micro also records the queue's
 *    deterministic work counters (EventQueue::Counters) under
 *    "kernel_counters"; they are exact on every host, so
 *    scripts/check_selfperf.py requires them to equal the committed
 *    record. Three dispatch micros time one fresh Device running
 *    one tick-0 job under Conduit, DM-Offloading and BW-Offloading
 *    (instructions per second, outside the event-kernel aggregate)
 *    and record the engine's work counters (Engine::Counters) under
 *    "engine_counters", gated exactly the same way. A host-baseline
 *    micro times HostModel::run on AES at scale 16, CPU and GPU, on
 *    the 1/128-scaled SSD (page touches per second; the host page
 *    cache evicts on most misses there) and records the model's work
 *    counts (HostResult::Work) under "host_counters", also gated
 *    exactly.
 *
 * 2. Representative end-to-end scenarios, timed around the
 *    SweepRunner entry points (SweepPerf hooks):
 *      - fig07a-reduced: the CI smoke matrix (AES + jacobi-1d under
 *        CPU / Conduit / DM-Offloading / Ideal),
 *      - multi-tenant-8: eight tenant streams co-run on one SSD,
 *      - open-loop-saturation: one saturation cell past the knee
 *        (pseudo-Poisson arrivals at 2x the calibrated base rate),
 *      - aging-fork: a 4-age x 3-policy warmed aging sweep whose
 *        cells fork one warm DeviceImage per age rung (image builds
 *        folded into the wall).
 *      - fleet-4x4: a four-device cluster cell per placement policy
 *        (round-robin / random / least-backlog / affinity), two
 *        skewed tenants at 2x the calibrated fleet service rate —
 *        the per-job routing loop src/cluster adds on top of the
 *        device kernel.
 *    Microbenches and scenarios run --repeat times (default 3);
 *    wall-clock minimum and mean are recorded, events/sec uses the
 *    minimum, so the numbers reflect the warmed steady state a sweep
 *    thread actually sees. Each scenario's JSON entry also carries
 *    the per-cell attribution (SweepPerf::perCell) of its fastest
 *    repetition, so a regression localizes to a workload cell.
 *
 * Simulated results are byte-identical across repeats, thread
 * counts, and wall-clock-only kernel changes — stdout prints only
 * simulated digests (deterministic), wall-clock numbers go to
 * stderr and the JSON. CI reproduces the three scenarios through
 * the pre-existing bench CLIs and diffs base vs branch.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <utility>

#include "bench/common.hh"
#include "src/cluster/placement.hh"
#include "src/host/host_model.hh"
#include "src/sim/event_queue.hh"

namespace
{

using namespace conduit;
using namespace conduit::bench;
using conduit::runner::Offer;
using conduit::runner::Scenario;
using conduit::runner::SweepPerf;
using conduit::runner::Tenant;

double
seconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Microbench result: operations and the wall time they took. */
struct MicroResult
{
    std::uint64_t ops = 0;
    double wallSeconds = 0.0;
    /** Work counters of the micro's queue (event-queue micros). */
    std::optional<EventQueue::Counters> counters;
    /** Work counters of the micro's engine (dispatch micro). */
    std::optional<Engine::Counters> engine;
    /** Host page-cache work (host-baseline micro). */
    std::optional<HostResult::Work> host{};

    double
    opsPerSec() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(ops) / wallSeconds
            : 0.0;
    }
};

/** Each microbench's record name, rate metric, the unit its ops
 *  count, and its stderr label, in run order. */
struct MicroName
{
    const char *name;
    const char *rate;
    const char *unit;
    const char *label;
};
constexpr MicroName kMicros[] = {
    {"chain", "chain_events_per_sec", "events", "chain (self-scheduling)"},
    {"fan", "fan_events_per_sec", "events", "fan (pre-populated)"},
    {"fan_wide", "fan_wide_events_per_sec", "events",
     "fan wide (10x resident set)"},
    {"open_loop", "open_loop_events_per_sec", "events",
     "open loop (pre-populated arrivals)"},
    {"overload", "overload_events_per_sec", "events",
     "overload (deep inserts)"},
    {"snapshot_fork", "snapshot_forks_per_sec", "forks",
     "snapshot fork (device image)"},
    {"dispatch", "dispatch_instructions_per_sec", "instructions",
     "dispatch (one fresh job)"},
    {"dispatch_dm", "dispatch_dm_instructions_per_sec", "instructions",
     "dispatch (DM-Offloading)"},
    {"dispatch_bw", "dispatch_bw_instructions_per_sec", "instructions",
     "dispatch (BW-Offloading)"},
    {"host_baseline", "host_page_touches_per_sec", "page touches",
     "host baseline (AES x16)"},
};

/** Dispatch-chain shape: every callback schedules its successor. */
MicroResult
microChain(std::uint64_t events)
{
    EventQueue q;
    std::uint64_t remaining = events;
    const auto t0 = std::chrono::steady_clock::now();
    std::function<void()> next; // self-referencing chain body
    next = [&] {
        if (--remaining > 0)
            q.scheduleAfter(1, [&] { next(); });
    };
    q.schedule(0, [&] { next(); });
    q.run();
    return {events, seconds(t0), q.counters()};
}

/** Fan shape: all events scheduled up front, then drained. */
MicroResult
microFan(std::uint64_t events)
{
    EventQueue q;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t fired = 0;
    // Interleaved ticks and priorities exercise the heap ordering.
    for (std::uint64_t i = 0; i < events; ++i) {
        q.schedule((i * 7919) % events,
                   [&fired] { ++fired; },
                   static_cast<int>(i & 3));
    }
    q.run();
    return {fired, seconds(t0), q.counters()};
}

/**
 * Open-loop pre-populated arrivals: every job's arrival event is
 * scheduled up front (as an open-loop Device run and saturation
 * sweep pre-populate them). Each arrival admits its job by
 * scheduling a same-tick dispatch step, and the step schedules the
 * job's completion kService ticks out, at completion priority.
 */
MicroResult
microOpenLoopArrivals(std::uint64_t jobs)
{
    constexpr Tick kGap = 100;
    constexpr Tick kService = 50;
    EventQueue q;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < jobs; ++i) {
        q.schedule(
            static_cast<Tick>(i) * kGap,
            [&q] {
                q.scheduleAfter(
                    0,
                    [&q] {
                        q.scheduleAfter(kService, [] {},
                                        Engine::kCompletionPriority);
                    },
                    Engine::kDispatchPriority);
            },
            Engine::kDispatchPriority);
    }
    q.run();
    return {q.eventsFired(), seconds(t0), q.counters()};
}

/**
 * Overload shape: pre-populated arrivals whose dispatch chains
 * outrun their completions. Each of a job's kSteps dispatches
 * schedules its completion kService ticks out and its successor
 * kStepGap ticks out, so about kService / kStepGap completions pile up
 * in the active bucket and every successor lands in front of all of
 * them — the shape of an overloaded device, where an insert that
 * keeps the bucket sorted in place would shift the whole pile.
 */
MicroResult
microOverload(std::uint64_t jobs)
{
    constexpr Tick kGap = 1000;
    constexpr Tick kStepGap = 2;
    constexpr Tick kService = 1200;
    constexpr int kSteps = 400;
    EventQueue q;
    const auto t0 = std::chrono::steady_clock::now();
    std::function<void(int)> dispatch = [&](int left) {
        q.scheduleAfter(kService, [] {});
        if (left > 1)
            q.scheduleAfter(kStepGap,
                            [&dispatch, left] { dispatch(left - 1); });
    };
    for (std::uint64_t i = 0; i < jobs; ++i)
        q.schedule(static_cast<Tick>(i) * kGap,
                   [&dispatch] { dispatch(kSteps); });
    q.run();
    return {q.eventsFired(), seconds(t0), q.counters()};
}

/**
 * Snapshot/fork round-trip: a warm DeviceImage is built once, then
 * repeatedly forked into a live Device. Each fork is the fixed cost
 * a warmed sweep pays per cell instead of replaying the warm phase,
 * so forks/sec bounds how cheaply warm state can be shared.
 */
MicroResult
microSnapshotFork(double scale, std::uint64_t forks)
{
    DeviceOptions opts;
    opts.workload.scale = scale;
    opts.retire = RetirePolicy::OnComplete;
    Device warm(opts);
    auto gaps = makeArrivals(ArrivalKind::Poisson, 1e9, 1);
    for (Tick at : gaps->schedule(4)) {
        JobSpec job;
        job.workload = WorkloadId::Aes;
        job.arrival = at;
        warm.submit(job);
    }
    const DeviceImage img = warm.snapshot();
    const auto t0 = std::chrono::steady_clock::now();
    Tick sink = 0; // defeat dead-fork elimination
    for (std::uint64_t i = 0; i < forks; ++i) {
        Device dev = Device::fromImage(img);
        sink ^= dev.now();
    }
    (void)sink;
    return {forks, seconds(t0), std::nullopt};
}

/**
 * Dispatch pipeline: one fresh Device runs one tick-0 job under
 * @p policy, so the wall time is the per-instruction pipeline
 * (offloader stage, features, decision, movement, execution,
 * coherence) plus the device's set-up. A staging region of a quarter
 * of the footprint keeps the DRAM-staging LRU choosing victims, so
 * every engine work counter moves under Conduit. A baseline policy
 * computes only the feature groups it reads, and its counters show
 * it: DM-Offloading folds source pages but walks fragment pages only
 * for IFP-bound instructions, BW-Offloading folds none. Reported as
 * instructions per second.
 */
MicroResult
microDispatch(double scale, const char *policy)
{
    DeviceOptions opts;
    opts.workload.scale = scale;
    opts.engine.dramStagingFraction = 0.25;
    const auto t0 = std::chrono::steady_clock::now();
    Device dev(opts);
    JobSpec job;
    job.workload = WorkloadId::Aes;
    job.policy = policy;
    dev.submit(job);
    const DeviceSnapshot snap = dev.drain();
    return {snap.jobs.front().result.instrCount, seconds(t0),
            std::nullopt, dev.engine().counters()};
}

/**
 * Host baselines: HostModel::run over @p prog (AES at scale 16 on the
 * 1/128-scaled SSD, as perfbench's paper-batch runs it), CPU then
 * GPU. Compilation stays outside the timed region. Reported as page
 * touches per second of the host page cache.
 */
MicroResult
microHostBaseline(const Program &prog, const SsdConfig &cfg)
{
    HostResult::Work sum;
    const auto t0 = std::chrono::steady_clock::now();
    for (auto kind : {HostModel::Kind::Cpu, HostModel::Kind::Gpu}) {
        const HostResult::Work w = HostModel(cfg, kind).run(prog).work;
        sum.pageTouches += w.pageTouches;
        sum.misses += w.misses;
        sum.evictions += w.evictions;
        sum.compactions += w.compactions;
        sum.victimSteps += w.victimSteps;
    }
    return {sum.pageTouches, seconds(t0), std::nullopt, std::nullopt,
            sum};
}

/** One timed scenario: simulated digest + wall-clock statistics. */
struct ScenarioResult
{
    std::string name;
    std::size_t cells = 0;
    std::uint64_t eventsFired = 0;
    double wallMin = 0.0;
    double wallMean = 0.0;
    /** Per-cell attribution of the fastest repetition. */
    std::vector<SweepPerf::CellPerf> perCell;
    /** Deterministic simulated digest lines for stdout. */
    std::vector<std::string> digest;

    double
    eventsPerSec() const
    {
        return wallMin > 0.0
            ? static_cast<double>(eventsFired) / wallMin
            : 0.0;
    }
};

void
fold(ScenarioResult &r, const SweepPerf &perf, int rep)
{
    r.cells = perf.cells;
    r.eventsFired = perf.eventsFired;
    if (rep == 0 || perf.wallSeconds < r.wallMin) {
        r.wallMin = perf.wallSeconds;
        r.perCell = perf.perCell;
    }
    r.wallMean += perf.wallSeconds;
}

std::string
digestLine(const std::string &label, Tick exec)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "%-28s %20llu ticks",
                  label.c_str(),
                  static_cast<unsigned long long>(exec));
    return buf;
}

ScenarioResult
scenarioFig07aReduced(SweepRunner &runner, const SweepCli &cli,
                      int repeat)
{
    ScenarioResult r;
    r.name = "fig07a-reduced";
    RunMatrix matrix;
    matrix.workloads({WorkloadId::Aes, WorkloadId::Jacobi1d});
    matrix.technique("CPU");
    matrix.techniques({"Conduit", "DM-Offloading", "Ideal"});
    WorkloadParams params;
    params.scale = cli.scale;
    matrix.params(params);

    SweepResult sweep;
    for (int rep = 0; rep < repeat; ++rep) {
        sweep = runner.run(matrix.build());
        fold(r, runner.lastPerf(), rep);
    }
    r.wallMean /= repeat;
    for (const auto &w : sweep.workloadLabels())
        for (const auto &t : sweep.techniqueLabels())
            r.digest.push_back(
                digestLine(w + "/" + t, sweep.at(w, t).execTime));
    return r;
}

ScenarioResult
scenarioMultiTenant8(SweepRunner &runner, const SweepCli &cli,
                     int repeat)
{
    ScenarioResult r;
    r.name = "multi-tenant-8";
    runner::DeviceRecipe device;
    device.options.workload.scale = cli.scale;
    std::vector<Tenant> tenants;
    const WorkloadId kinds[] = {
        WorkloadId::Aes, WorkloadId::XorFilter, WorkloadId::Jacobi1d,
        WorkloadId::LlamaInference};
    for (int copy = 0; copy < 2; ++copy) {
        for (WorkloadId id : kinds) {
            Tenant t;
            t.workloadId = id;
            t.name = workloadName(id);
            tenants.push_back(std::move(t));
        }
    }
    const Scenario cell =
        runner::batchScenario(r.name, device, std::move(tenants));

    std::vector<cluster::ClusterSnapshot> results;
    for (int rep = 0; rep < repeat; ++rep) {
        results = runner.runAll({cell});
        fold(r, runner.lastPerf(), rep);
    }
    r.wallMean /= repeat;
    const cluster::ClusterSnapshot &snap = results.front();
    r.digest.push_back(digestLine("makespan", snap.makespan));
    for (std::size_t i = 0; i < snap.routed.size(); ++i) {
        const RunResult &stream = snap.result(i).result;
        r.digest.push_back(digestLine(
            "stream" + std::to_string(i) + "/" + stream.workload,
            stream.execTime));
    }
    return r;
}

/**
 * Calibrated offered rate: @p mult x the isolated service rate of one
 * AES job, the anchor bench_saturation and bench_reliability use. The
 * anchor is simulated time, so every cell is deterministic.
 */
double
calibratedRate(SweepRunner &runner, const SweepCli &cli, double mult)
{
    DeviceOptions device;
    device.workload.scale = cli.scale;
    Tenant aes;
    aes.workloadId = WorkloadId::Aes;
    return mult /
        std::max(1e-9, isolatedServiceSeconds(runner, device, aes));
}

ScenarioResult
scenarioOpenLoopSaturation(SweepRunner &runner, const SweepCli &cli,
                           int repeat)
{
    ScenarioResult r;
    r.name = "open-loop-saturation";

    // 2x the calibrated service rate sits past the knee.
    DeviceOptions device;
    device.workload.scale = cli.scale;
    Tenant aes;
    aes.workloadId = WorkloadId::Aes;
    Offer offer;
    offer.jobs = 6;
    offer.jobsPerSec = calibratedRate(runner, cli, 2.0);
    const Scenario cell = runner::loadScenario(device, aes, offer);

    std::vector<cluster::ClusterSnapshot> snaps;
    for (int rep = 0; rep < repeat; ++rep) {
        snaps = runner.runAll({cell});
        fold(r, runner.lastPerf(), rep);
    }
    r.wallMean /= repeat;
    const DeviceSnapshot &snap = snaps.front().devices.front();
    r.digest.push_back(digestLine("makespan", snap.makespan));
    for (const auto &job : snap.jobs)
        r.digest.push_back(digestLine(
            "job" + std::to_string(job.id) + "/sojourn",
            job.sojourn()));
    return r;
}

/**
 * Warmed device-aging sweep: a 4-age x 3-policy matrix with a 12-job
 * warm phase and a 2-job measured phase per cell. The sweep builds
 * one warm image per age rung and forks it across the policies; the
 * image builds are folded into the wall, so the scenario times the
 * full end-to-end cost of a warmed sweep.
 */
ScenarioResult
scenarioAging(SweepRunner &runner, const SweepCli &cli, int repeat)
{
    ScenarioResult r;
    r.name = "aging-fork";

    Offer offer;
    offer.jobs = 2;
    offer.jobsPerSec = calibratedRate(runner, cli, 2.0);
    offer.warmupJobs = 12;
    static const char *kPolicies[] = {"Conduit", "DM-Offloading",
                                      "BW-Offloading"};
    static const std::uint32_t kAges[] = {0, 1000, 2000, 3000};
    std::vector<Scenario> cells;
    for (const char *policy : kPolicies) {
        for (std::uint32_t age : kAges) {
            DeviceOptions device;
            device.workload.scale = cli.scale;
            ReliabilityConfig &rel = device.config.reliability;
            rel.enabled = true;
            rel.preWearCycles = age;
            rel.retentionDays = age * 30.0 / 1000.0;
            Tenant aes;
            aes.workloadId = WorkloadId::Aes;
            aes.name = workloadName(WorkloadId::Aes);
            aes.technique = policy;
            cells.push_back(runner::loadScenario(device, aes, offer));
        }
    }

    std::vector<cluster::ClusterSnapshot> snaps;
    for (int rep = 0; rep < repeat; ++rep) {
        snaps = runner.runAll(cells);
        SweepPerf perf = runner.lastPerf();
        perf.wallSeconds += perf.warmupSeconds;
        fold(r, perf, rep);
    }
    r.wallMean /= repeat;
    for (std::size_t i = 0; i < cells.size(); ++i)
        r.digest.push_back(digestLine(
            cells[i].tenants.front().technique + "@" +
                std::to_string(cells[i]
                                   .devices.front()
                                   .options.config.reliability
                                   .preWearCycles) +
                "pe",
            snaps[i].makespan));
    return r;
}

/**
 * Fleet routing on top of the device kernel: one four-device
 * cluster cell per placement policy, two skewed tenants (AES 3 :
 * jacobi-1d 1) offered at 2x the calibrated aggregate service rate.
 * The digest is each policy's fleet makespan — routing decisions
 * feed device state feed later routing, so any cluster-layer drift
 * shows up here.
 */
ScenarioResult
scenarioFleet(SweepRunner &runner, const SweepCli &cli, int repeat)
{
    ScenarioResult r;
    r.name = "fleet-4x4";

    // The fleet's aggregate service rate is devices x the isolated
    // rate, and 2x that keeps every policy routing under pressure.
    Offer offer;
    offer.jobs = 24;
    offer.jobsPerSec = 4.0 * calibratedRate(runner, cli, 2.0);
    DeviceOptions device;
    device.workload.scale = cli.scale;
    Tenant heavy;
    heavy.workloadId = WorkloadId::Aes;
    heavy.weight = 3.0;
    Tenant light;
    light.workloadId = WorkloadId::Jacobi1d;
    light.weight = 1.0;

    std::vector<Scenario> cells;
    for (const std::string &placement : cluster::placementNames())
        cells.push_back(runner::fleetScenario(
            "fleet4/" + placement, placement,
            std::vector<DeviceOptions>(4, device),
            {heavy, light}, offer));

    std::vector<cluster::ClusterSnapshot> snaps;
    for (int rep = 0; rep < repeat; ++rep) {
        snaps = runner.runAll(cells);
        fold(r, runner.lastPerf(), rep);
    }
    r.wallMean /= repeat;
    for (std::size_t i = 0; i < cells.size(); ++i)
        r.digest.push_back(
            digestLine(cells[i].placement, snaps[i].makespan));
    return r;
}

bool
writeJson(const std::string &path, const SweepCli &cli, int repeat,
          unsigned threads, const std::vector<MicroResult> &micro,
          const std::vector<ScenarioResult> &scenarios)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"selfperf\",\n");
    std::fprintf(f, "  \"scale\": %g,\n", cli.scale);
    std::fprintf(f, "  \"repeat\": %d,\n", repeat);
    std::fprintf(f, "  \"threads\": %u,\n", threads);
    std::fprintf(f, "  \"microbench\": {\n");
    std::uint64_t ops = 0;
    double wall = 0.0;
    for (std::size_t i = 0; i < micro.size(); ++i) {
        // The aggregate stays an event-kernel number: snapshot_fork
        // counts device forks, dispatch instructions and
        // host_baseline page touches, not queue events, so mixing
        // their ops into the pooled rate would skew the kernel
        // trendline.
        if (micro[i].counters) {
            ops += micro[i].ops;
            wall += micro[i].wallSeconds;
        }
        std::fprintf(f, "    \"%s\": %.0f,\n", kMicros[i].rate,
                     micro[i].opsPerSec());
    }
    std::fprintf(f, "    \"events_per_sec\": %.0f\n  },\n",
                 wall > 0.0 ? static_cast<double>(ops) / wall : 0.0);
    std::fprintf(f, "  \"kernel_counters\": {\n");
    bool first = true;
    for (std::size_t i = 0; i < micro.size(); ++i) {
        if (!micro[i].counters)
            continue;
        const EventQueue::Counters &c = *micro[i].counters;
        const std::pair<const char *, std::uint64_t> fields[] = {
            {"in_place_inserts", c.inPlaceInserts},
            {"shifted_entries", c.shiftedEntries},
            {"late_pushes", c.latePushes},
            {"late_high_water", c.lateHighWater},
            {"re_anchors", c.reAnchors},
            {"counting_sorts", c.countingSorts},
            {"comparison_sorts", c.comparisonSorts}};
        std::fprintf(f, "%s    \"%s\": {", first ? "" : ",\n",
                     kMicros[i].name);
        for (std::size_t k = 0; k < std::size(fields); ++k)
            std::fprintf(f, "%s\"%s\": %llu", k ? ", " : "",
                         fields[k].first,
                         static_cast<unsigned long long>(
                             fields[k].second));
        std::fprintf(f, "}");
        first = false;
    }
    std::fprintf(f, "\n  },\n");
    std::fprintf(f, "  \"engine_counters\": {\n");
    first = true;
    for (std::size_t i = 0; i < micro.size(); ++i) {
        if (!micro[i].engine)
            continue;
        const Engine::Counters &c = *micro[i].engine;
        std::fprintf(f,
                     "%s    \"%s\": {\"folded_pages\": %llu, "
                     "\"fragment_pages\": %llu, "
                     "\"latch_scan_steps\": %llu, "
                     "\"lru_victim_steps\": %llu}",
                     first ? "" : ",\n", kMicros[i].name,
                     static_cast<unsigned long long>(c.foldedPages),
                     static_cast<unsigned long long>(c.fragmentPages),
                     static_cast<unsigned long long>(c.latchScanSteps),
                     static_cast<unsigned long long>(c.lruVictimSteps));
        first = false;
    }
    std::fprintf(f, "\n  },\n");
    std::fprintf(f, "  \"host_counters\": {\n");
    first = true;
    for (std::size_t i = 0; i < micro.size(); ++i) {
        if (!micro[i].host)
            continue;
        const HostResult::Work &w = *micro[i].host;
        std::fprintf(f,
                     "%s    \"%s\": {\"page_touches\": %llu, "
                     "\"misses\": %llu, \"evictions\": %llu, "
                     "\"compactions\": %llu, \"victim_steps\": %llu}",
                     first ? "" : ",\n", kMicros[i].name,
                     static_cast<unsigned long long>(w.pageTouches),
                     static_cast<unsigned long long>(w.misses),
                     static_cast<unsigned long long>(w.evictions),
                     static_cast<unsigned long long>(w.compactions),
                     static_cast<unsigned long long>(w.victimSteps));
        first = false;
    }
    std::fprintf(f, "\n  },\n");
    std::fprintf(f, "  \"scenarios\": [\n");
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const ScenarioResult &s = scenarios[i];
        std::fprintf(f, "    {\n      \"name\": \"%s\",\n",
                     s.name.c_str());
        std::fprintf(f, "      \"cells\": %zu,\n", s.cells);
        std::fprintf(f, "      \"events_fired\": %llu,\n",
                     static_cast<unsigned long long>(s.eventsFired));
        std::fprintf(f, "      \"wall_seconds_min\": %.6f,\n",
                     s.wallMin);
        std::fprintf(f, "      \"wall_seconds_mean\": %.6f,\n",
                     s.wallMean);
        std::fprintf(f, "      \"per_cell\": [\n");
        for (std::size_t c = 0; c < s.perCell.size(); ++c) {
            const auto &cell = s.perCell[c];
            std::fprintf(
                f,
                "        {\"label\": \"%s\", "
                "\"wall_seconds\": %.6f, "
                "\"events_fired\": %llu, "
                "\"events_per_sec\": %.0f}%s\n",
                cell.label.c_str(), cell.wallSeconds,
                static_cast<unsigned long long>(cell.eventsFired),
                cell.eventsPerSec(),
                c + 1 < s.perCell.size() ? "," : "");
        }
        std::fprintf(f, "      ],\n");
        std::fprintf(f, "      \"events_per_sec\": %.0f\n    }%s\n",
                     s.eventsPerSec(),
                     i + 1 < scenarios.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    int repeat = 3;
    const auto extra = [&](const std::string &flag,
                           const std::function<std::string()> &value) {
        if (flag != "--repeat")
            return false;
        repeat = parseCount<int>("--repeat", value());
        return true;
    };
    const SweepCli cli = SweepCli::parse(
        argc, argv, extra,
        "  --repeat N         timing repetitions per scenario "
        "(default 3);\n"
        "                     --json names the perf record "
        "(default BENCH_selfperf.json)\n");
    if (!cli.tracePath.empty()) {
        // The perf record is the tracing-off guard: every scenario
        // runs with a null tracer, so the recorded wall numbers are
        // exactly the disabled-tracer fast path the perf gate diffs.
        // Tracing a timing run would measure the tracer, not the
        // simulator.
        std::fprintf(stderr,
                     "bench_selfperf measures the tracing-off fast "
                     "path; --trace is not supported here\n");
        return 2;
    }

    static const std::vector<std::string> kScenarios = {
        "fig07a-reduced", "multi-tenant-8", "open-loop-saturation",
        "aging-fork", "fleet-4x4"};
    if (cli.listWorkloads)
        runner::listAndExit(kScenarios);
    if (cli.listTechniques)
        runner::listAndExit(policyNames());
    const auto keep = runner::splitCsv(cli.workloadFilter);
    if (!runner::reportUnknown(keep, kScenarios, "scenario"))
        return 2;
    const auto want = [&](const std::string &name) {
        return keep.empty() ||
            std::find(keep.begin(), keep.end(), name) != keep.end();
    };

    // stdout carries only simulated digests, so it stays
    // byte-identical across repeats, thread counts, and output
    // paths; wall-clock numbers go to stderr and the JSON record.
    std::printf("Simulator self-performance (simulated digests)\n\n");

    // Event-kernel microbench (single-threaded by construction).
    // Best-of---repeat, like the scenarios: the first run pays the
    // page-fault cost of faulting in fresh kernel memory; later runs
    // reuse the thread-local recycling pool, which is what a sweep
    // thread running many cells sees.
    const auto bestOf = [&](auto &&f) {
        MicroResult best = f();
        for (int rep = 1; rep < repeat; ++rep) {
            const MicroResult r = f();
            if (r.wallSeconds < best.wallSeconds)
                best = r;
        }
        return best;
    };
    SweepRunner runner(cli.runnerOptions());
    const unsigned threads = runner.workerCount(8);
    const SsdConfig hostCfg = SsdConfig::scaled(1.0 / 128.0);
    WorkloadParams aes16;
    aes16.scale = 16.0;
    const auto hostProg = ProgramCache().get(WorkloadId::Aes, aes16, hostCfg);

    const std::vector<MicroResult> micro = {
        bestOf([] { return microChain(2'000'000); }),
        bestOf([] { return microFan(1'000'000); }),
        bestOf([] { return microFan(10'000'000); }),
        bestOf([] { return microOpenLoopArrivals(500'000); }),
        bestOf([] { return microOverload(2'000); }),
        bestOf([&] { return microSnapshotFork(cli.scale, 1'000); }),
        bestOf([&] { return microDispatch(cli.scale, "Conduit"); }),
        bestOf([&] { return microDispatch(cli.scale, "DM-Offloading"); }),
        bestOf([&] { return microDispatch(cli.scale, "BW-Offloading"); }),
        bestOf([&] { return microHostBaseline(hostProg->program, hostCfg); }),
    };
    std::fprintf(stderr, "event-kernel microbench:\n");
    for (std::size_t i = 0; i < micro.size(); ++i)
        std::fprintf(stderr, "  %-28s %12.0f %s/s\n", kMicros[i].label,
                     micro[i].opsPerSec(), kMicros[i].unit);

    std::vector<ScenarioResult> scenarios;
    if (want("fig07a-reduced"))
        scenarios.push_back(
            scenarioFig07aReduced(runner, cli, repeat));
    if (want("multi-tenant-8"))
        scenarios.push_back(scenarioMultiTenant8(runner, cli, repeat));
    if (want("open-loop-saturation"))
        scenarios.push_back(
            scenarioOpenLoopSaturation(runner, cli, repeat));
    if (want("aging-fork"))
        scenarios.push_back(scenarioAging(runner, cli, repeat));
    if (want("fleet-4x4"))
        scenarios.push_back(scenarioFleet(runner, cli, repeat));

    for (const ScenarioResult &s : scenarios) {
        std::printf("%s (%zu cells, %llu simulated events)\n",
                    s.name.c_str(), s.cells,
                    static_cast<unsigned long long>(s.eventsFired));
        for (const std::string &line : s.digest)
            std::printf("  %s\n", line.c_str());
        std::printf("\n");
        std::fprintf(stderr,
                     "%-22s wall min %8.3f s  mean %8.3f s  "
                     "%12.0f events/s\n",
                     s.name.c_str(), s.wallMin, s.wallMean,
                     s.eventsPerSec());
    }

    const std::string out =
        cli.jsonPath.empty() ? "BENCH_selfperf.json" : cli.jsonPath;
    if (!writeJson(out, cli, repeat, threads, micro, scenarios))
        return 1;
    if (!cli.csvPath.empty())
        std::fprintf(stderr,
                     "note: --csv is ignored; the self-perf record "
                     "is JSON only\n");
    return 0;
}
