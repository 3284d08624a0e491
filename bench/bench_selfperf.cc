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
 *    pre-populated-arrivals shape (every arrival fires a short chain
 *    and arms-then-cancels a timeout — the exact shape of an
 *    open-loop Device run), a cancel-heavy rolling window, and a
 *    DeviceImage snapshot-fork round trip (the per-cell fixed cost
 *    of steady-state sweeps). Reported as events (or forks, or
 *    schedule+cancel pairs) per second of wall time.
 *
 * 2. Representative end-to-end scenarios, timed around the
 *    SweepRunner entry points (SweepPerf hooks):
 *      - fig07a-reduced: the CI smoke matrix (AES + jacobi-1d under
 *        CPU / Conduit / DM-Offloading / Ideal),
 *      - multi-tenant-8: eight tenant streams co-run on one SSD,
 *      - open-loop-saturation: one saturation cell past the knee
 *        (pseudo-Poisson arrivals at 2x the calibrated base rate),
 *      - aging-cold / aging-fork: the same 4-age x 3-policy warmed
 *        aging sweep, warm phase replayed per cell vs forked from
 *        per-age DeviceImages — simulated digests byte-identical,
 *        the wall ratio is the steady-state speedup.
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
#include <deque>

#include "bench/common.hh"
#include "src/cluster/placement.hh"
#include "src/sim/event_queue.hh"

namespace
{

using namespace conduit;
using namespace conduit::bench;
using conduit::runner::ClusterRunSpec;
using conduit::runner::ClusterTenant;
using conduit::runner::LoadRunSpec;
using conduit::runner::MultiRunSpec;
using conduit::runner::SweepPerf;
using conduit::runner::StreamSlot;

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

    double
    opsPerSec() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(ops) / wallSeconds
            : 0.0;
    }
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
    return {events, seconds(t0)};
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
    return {fired, seconds(t0)};
}

/**
 * Open-loop pre-populated arrivals: every job's arrival event is
 * scheduled up front (the shape every open-loop Device run and
 * saturation sweep pre-populates), then each arrival runs a short
 * dispatch step and arms a timeout that completion cancels.
 */
MicroResult
microOpenLoopArrivals(std::uint64_t jobs)
{
    EventQueue q;
    std::vector<EventId> timeout(jobs);
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t done = 0;
    for (std::uint64_t i = 0; i < jobs; ++i) {
        q.schedule(static_cast<Tick>(i) * 100, [&q, &timeout, &done, i] {
            timeout[i] = q.scheduleAfter(10'000, [] {});
            q.scheduleAfter(50, [&q, &timeout, &done, i] {
                q.cancel(timeout[i]);
                ++done;
            });
        });
    }
    q.run();
    return {q.eventsFired() + done, seconds(t0)};
}

/** Open-loop shape: rolling window of schedule + cancel pairs. */
MicroResult
microCancel(std::uint64_t pairs)
{
    EventQueue q;
    std::deque<EventId> window;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < pairs; ++i) {
        window.push_back(
            q.schedule(static_cast<Tick>(pairs + i), [] {}));
        if (window.size() > 512) {
            q.cancel(window.front());
            window.pop_front();
        }
    }
    q.run();
    return {pairs, seconds(t0)};
}

/**
 * Snapshot/fork round-trip: a warm DeviceImage is built once, then
 * repeatedly forked into a live Device. Each fork is the fixed cost
 * a steady-state sweep pays per cell instead of replaying the warm
 * phase, so forks/sec bounds how cheaply warm state can be shared.
 */
MicroResult
microSnapshotFork(SweepRunner &runner, double scale,
                  std::uint64_t forks)
{
    LoadRunSpec warm;
    warm.workloadId = WorkloadId::Aes;
    warm.workload = workloadName(WorkloadId::Aes);
    warm.technique = "Conduit";
    warm.params.scale = scale;
    warm.jobs = 0;
    warm.warmupJobs = 4;
    warm.jobsPerSec = 1000.0;
    const DeviceImage img = runner.buildWarmImage(warm);
    const auto t0 = std::chrono::steady_clock::now();
    Tick sink = 0; // defeat dead-fork elimination
    for (std::uint64_t i = 0; i < forks; ++i) {
        Device dev = Device::fromImage(img);
        sink ^= dev.now();
    }
    (void)sink;
    return {forks, seconds(t0)};
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
    MultiRunSpec cell;
    cell.label = "multi-tenant-8";
    cell.params.scale = cli.scale;
    const WorkloadId tenants[] = {
        WorkloadId::Aes, WorkloadId::XorFilter, WorkloadId::Jacobi1d,
        WorkloadId::LlamaInference};
    for (int copy = 0; copy < 2; ++copy) {
        for (WorkloadId id : tenants) {
            StreamSlot s;
            s.workloadId = id;
            s.workload = workloadName(id);
            s.technique = "Conduit";
            cell.streams.push_back(std::move(s));
        }
    }

    std::vector<sched::MultiRunResult> results;
    for (int rep = 0; rep < repeat; ++rep) {
        results = runner.runMultiAll({cell});
        fold(r, runner.lastPerf(), rep);
    }
    r.wallMean /= repeat;
    const sched::MultiRunResult &mr = results.front();
    r.digest.push_back(digestLine("makespan", mr.makespan));
    for (std::size_t i = 0; i < mr.streams.size(); ++i)
        r.digest.push_back(digestLine(
            "stream" + std::to_string(i) + "/" +
                mr.streams[i].workload,
            mr.streams[i].execTime));
    return r;
}

ScenarioResult
scenarioOpenLoopSaturation(SweepRunner &runner, const SweepCli &cli,
                           int repeat)
{
    ScenarioResult r;
    r.name = "open-loop-saturation";

    // Calibrate like bench_saturation: one isolated job's makespan
    // anchors the offered rate; 2x that sits past the knee. The
    // anchor is simulated time, so the cell is deterministic.
    LoadRunSpec calib;
    calib.workloadId = WorkloadId::Aes;
    calib.technique = "Conduit";
    calib.params.scale = cli.scale;
    calib.jobs = 1;
    const DeviceSnapshot one = runner.runLoad(calib);
    const double base_rate =
        1.0 / std::max(1e-9, ticksToSeconds(one.makespan));

    LoadRunSpec cell = calib;
    cell.jobs = 6;
    cell.jobsPerSec = 2.0 * base_rate;
    cell.arrivals = ArrivalKind::Poisson;
    cell.arrivalSeed = 1;

    std::vector<DeviceSnapshot> snaps;
    for (int rep = 0; rep < repeat; ++rep) {
        snaps = runner.runLoadAll({cell});
        fold(r, runner.lastPerf(), rep);
    }
    r.wallMean /= repeat;
    const DeviceSnapshot &snap = snaps.front();
    r.digest.push_back(digestLine("makespan", snap.makespan));
    for (const auto &job : snap.jobs)
        r.digest.push_back(digestLine(
            "job" + std::to_string(job.id) + "/sojourn",
            job.sojourn()));
    return r;
}

/**
 * Device-aging sweep, cold two-phase vs forked steady-state: the
 * same 4-age x 3-policy matrix with a 12-job warm phase and a 2-job
 * measured phase per cell. aging-cold replays the warm phase inside
 * every cell; aging-fork builds one warm image per age rung and
 * forks it across the policies. Simulated digests are byte-identical
 * between the two scenarios — only the wall-clock (warm-image build
 * included for the fork mode) differs, and the cold/fork wall ratio
 * is the headline speedup of steady-state sweeps.
 */
ScenarioResult
scenarioAging(SweepRunner &runner, const SweepCli &cli, int repeat,
              bool fork)
{
    ScenarioResult r;
    r.name = fork ? "aging-fork" : "aging-cold";

    // Calibrate once, like bench_reliability: a fresh isolated job
    // anchors the offered rate at 2x its service rate.
    LoadRunSpec calib;
    calib.workloadId = WorkloadId::Aes;
    calib.technique = "Conduit";
    calib.params.scale = cli.scale;
    calib.jobs = 1;
    const DeviceSnapshot one = runner.runLoad(calib);
    const double rate =
        2.0 / std::max(1e-9, ticksToSeconds(one.makespan));

    static const char *kPolicies[] = {"Conduit", "DM-Offloading",
                                      "BW-Offloading"};
    static const std::uint32_t kAges[] = {0, 1000, 2000, 3000};
    std::vector<LoadRunSpec> cells;
    for (const char *policy : kPolicies) {
        for (std::uint32_t age : kAges) {
            LoadRunSpec cell;
            cell.workloadId = WorkloadId::Aes;
            cell.workload = workloadName(WorkloadId::Aes);
            cell.technique = policy;
            cell.params.scale = cli.scale;
            cell.jobs = 2;
            cell.jobsPerSec = rate;
            cell.arrivals = ArrivalKind::Poisson;
            cell.arrivalSeed = 1;
            cell.warmupJobs = 12;
            cell.steadyState = fork;
            ReliabilityConfig &rel = cell.config.reliability;
            rel.enabled = true;
            rel.preWearCycles = age;
            rel.retentionDays = age * 30.0 / 1000.0;
            cells.push_back(std::move(cell));
        }
    }

    std::vector<DeviceSnapshot> snaps;
    for (int rep = 0; rep < repeat; ++rep) {
        snaps = runner.runLoadAll(cells);
        SweepPerf perf = runner.lastPerf();
        // Warm-image builds are part of what the fork mode pays;
        // fold them into the wall so cold vs fork compares the full
        // end-to-end sweep cost.
        perf.wallSeconds += perf.warmupSeconds;
        fold(r, perf, rep);
    }
    r.wallMean /= repeat;
    for (std::size_t i = 0; i < cells.size(); ++i)
        r.digest.push_back(digestLine(
            cells[i].technique + "@" +
                std::to_string(cells[i].config.reliability.preWearCycles) +
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

    // Calibrate on an isolated job, like the saturation scenario:
    // the fleet's aggregate service rate is devices x the isolated
    // rate, and 2x that keeps every policy routing under pressure.
    LoadRunSpec calib;
    calib.workloadId = WorkloadId::Aes;
    calib.technique = "Conduit";
    calib.params.scale = cli.scale;
    calib.jobs = 1;
    const DeviceSnapshot one = runner.runLoad(calib);
    const double iso =
        1.0 / std::max(1e-9, ticksToSeconds(one.makespan));

    std::vector<ClusterRunSpec> cells;
    for (const std::string &placement : cluster::placementNames()) {
        ClusterRunSpec cell;
        cell.label = "fleet4/" + placement;
        cell.placement = placement;
        cell.params.scale = cli.scale;
        cell.devices = 4;
        cell.jobs = 24;
        cell.jobsPerSec = 2.0 * 4.0 * iso;
        cell.arrivals = ArrivalKind::Poisson;
        cell.arrivalSeed = 1;
        ClusterTenant heavy;
        heavy.workloadId = WorkloadId::Aes;
        heavy.weight = 3.0;
        ClusterTenant light;
        light.workloadId = WorkloadId::Jacobi1d;
        light.weight = 1.0;
        cell.tenants = {heavy, light};
        cells.push_back(std::move(cell));
    }

    std::vector<cluster::ClusterSnapshot> snaps;
    for (int rep = 0; rep < repeat; ++rep) {
        snaps = runner.runClusterAll(cells);
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
    static const char *kMicroNames[] = {"chain", "fan", "fan_wide",
                                        "open_loop", "cancel_window",
                                        "snapshot_fork"};
    std::fprintf(f, "{\n  \"bench\": \"selfperf\",\n");
    std::fprintf(f, "  \"scale\": %g,\n", cli.scale);
    std::fprintf(f, "  \"repeat\": %d,\n", repeat);
    std::fprintf(f, "  \"threads\": %u,\n", threads);
    std::fprintf(f, "  \"microbench\": {\n");
    std::uint64_t ops = 0;
    double wall = 0.0;
    for (std::size_t i = 0; i < micro.size(); ++i) {
        // The aggregate stays an event-kernel number: snapshot_fork
        // counts device forks, not queue events, so mixing its ops
        // into the pooled rate would skew the kernel trendline.
        if (std::string(kMicroNames[i]) != "snapshot_fork") {
            ops += micro[i].ops;
            wall += micro[i].wallSeconds;
        }
        std::fprintf(f,
                     "    \"%s_events_per_sec\": %.0f,\n",
                     kMicroNames[i], micro[i].opsPerSec());
    }
    std::fprintf(f, "    \"events_per_sec\": %.0f\n  },\n",
                 wall > 0.0 ? static_cast<double>(ops) / wall : 0.0);
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
        repeat = static_cast<int>(parseCount("--repeat", value()));
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
        "aging-cold", "aging-fork", "fleet-4x4"};
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

    const std::vector<MicroResult> micro = {
        bestOf([] { return microChain(2'000'000); }),
        bestOf([] { return microFan(1'000'000); }),
        bestOf([] { return microFan(10'000'000); }),
        bestOf([] { return microOpenLoopArrivals(500'000); }),
        bestOf([] { return microCancel(2'000'000); }),
        bestOf([&] {
            return microSnapshotFork(runner, cli.scale, 1'000);
        }),
    };
    static const char *kMicroLabels[] = {
        "chain (self-scheduling)", "fan (pre-populated)",
        "fan wide (10x resident set)",
        "open loop (pre-populated arrivals)",
        "cancel window (open-loop)",
        "snapshot fork (device image)"};
    std::fprintf(stderr, "event-kernel microbench:\n");
    for (std::size_t i = 0; i < micro.size(); ++i)
        std::fprintf(stderr, "  %-28s %12.0f events/s\n",
                     kMicroLabels[i], micro[i].opsPerSec());

    std::vector<ScenarioResult> scenarios;
    if (want("fig07a-reduced"))
        scenarios.push_back(
            scenarioFig07aReduced(runner, cli, repeat));
    if (want("multi-tenant-8"))
        scenarios.push_back(scenarioMultiTenant8(runner, cli, repeat));
    if (want("open-loop-saturation"))
        scenarios.push_back(
            scenarioOpenLoopSaturation(runner, cli, repeat));
    if (want("aging-cold"))
        scenarios.push_back(
            scenarioAging(runner, cli, repeat, /*fork=*/false));
    if (want("aging-fork"))
        scenarios.push_back(
            scenarioAging(runner, cli, repeat, /*fork=*/true));
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
