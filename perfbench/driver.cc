/**
 * @file
 * Benchmark driver for the conduit simulator.
 *
 * Runs one of three long workloads against the library's public API
 * (Device, DeviceImage, cluster::Cluster with makePlacement,
 * makePolicy, ProgramCache, HostModel) and times every layer from
 * outside, by timing the calls the driver makes into it:
 *
 *   fleet-open   8 fresh devices behind a Cluster, two tenants (AES
 *                and jacobi-1d at arrival weights 3:1), Poisson
 *                open-loop arrivals at a fixed fleet-wide rate; one
 *                round-robin cell, then one least-backlog cell.
 *   aged-rw      single devices at three age rungs; each rung's warm
 *                image is built once and forked per offload policy,
 *                then serves alternating write-heavy (LLM Training)
 *                and read-heavy (LlaMA2 Inference) jobs.
 *   paper-batch  the Fig. 7a matrix (6 workloads x CPU, GPU and 8 SSD
 *                techniques) at dataset scales 1, 4 and 16; every SSD
 *                cell is one tick-0 job on a fresh Device, host cells
 *                go through HostModel.
 *
 * One run = a few set-ups plus repetitions ("reps") of the workload's
 * measured phase until --seconds elapse. A measured phase is timed
 * in units, the same in every rep, and its host time is the sum of
 * each unit's fastest untraced run (see bestCellTimes); set-up time
 * is the median of its samples. Every rep re-simulates identical
 * inputs, so the simulated digest must repeat exactly. With --trace 1
 * every third rep is traced: traced reps record a host-time span
 * around every public call, which gives per-layer self time and the
 * tracing overhead, and their digest must equal the untraced one.
 *
 * Output: one "metric <TAB> name <TAB> value|N/A <TAB> unit" line per
 * metric, "check" lines for the correctness checks, the digest, and a
 * closing "result" line. perfbench/run.py turns this into the
 * benchmark's JSON record.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cluster/cluster.hh"
#include "src/cluster/placement.hh"
#include "src/core/arrival.hh"
#include "src/core/device.hh"
#include "src/core/program_cache.hh"
#include "src/host/host_model.hh"

namespace
{

using namespace conduit;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The sweep benches' default device: Table 2 geometry, scaled. */
SsdConfig
benchConfig()
{
    return SsdConfig::scaled(1.0 / 128.0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in [0, 100]); sorts @p v in place. */
double
nearestRank(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::max<std::size_t>(rank, 1);
    return v[std::min(rank, v.size()) - 1];
}

double
gmean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(xs.size()));
}

/** Resident set size now, in MB. */
double
rssNowMb()
{
    long pages = 0;
    long resident = 0;
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0.0;
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
        resident = 0;
    std::fclose(f);
    return static_cast<double>(resident) *
        static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** Peak resident set size of the process so far, in MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Keeps the driver on the least contended CPU it may run on. On a
 * shared host another tenant's thread on the same physical core slows
 * this throughput-bound simulator by up to 2x, one vCPU at a time and
 * for seconds to minutes, while a latency-bound loop barely notices.
 * At unit boundaries, at most every half second, the driver times a
 * short throughput-bound probe on each allowed CPU and pins itself to
 * the fastest. This changes where the driver runs, never what it runs.
 */
class CpuPicker
{
  public:
    CpuPicker()
    {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &allowed))
                    cpus_.push_back(c);
    }

    /** Re-pick if the last pick is older than kRepickS. */
    void
    maybeRepick()
    {
        if (cpus_.size() < 2 || secondsSince(last_) < kRepickS)
            return;
        int best = cpus_.front();
        double bestS = 0.0;
        for (int c : cpus_) {
            if (!pin(c))
                continue;
            const double s = std::min(probe(), probe());
            if (bestS == 0.0 || s < bestS) {
                bestS = s;
                best = c;
            }
        }
        pin(best);
        last_ = Clock::now();
    }

  private:
    static constexpr double kRepickS = 0.5;

    static bool
    pin(int cpu)
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0;
    }

    /** About half a millisecond of independent ALU chains. */
    static double
    probe()
    {
        const auto t0 = Clock::now();
        std::uint64_t a = 1, b = 2, c = 3, d = 4;
        for (int i = 0; i < 500000; ++i) {
            a = a * 6364136223846793005ULL + 1;
            b = b * 2862933555777941757ULL + 3;
            c ^= c << 7;
            d += d >> 3;
        }
        sink_ = a + b + c + d;
        return secondsSince(t0);
    }

    static inline volatile std::uint64_t sink_ = 0;
    std::vector<int> cpus_;
    Clock::time_point last_{};
};

/** FNV-1a over 64-bit words: the simulated-output digest. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }

    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ULL;
        }
        add(s.size());
    }
};

// ------------------------------------------------------------ spans

/** Layers a span can belong to (self time is reported per layer). */
enum class Layer
{
    Driver,
    Compile,
    Device,
    Image,
    Cluster,
    Host,
    Count
};

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::Driver: return "driver";
      case Layer::Compile: return "compile";
      case Layer::Device: return "device";
      case Layer::Image: return "image";
      case Layer::Cluster: return "cluster";
      case Layer::Host: return "host";
      case Layer::Count: break;
    }
    return "?";
}

struct Span
{
    const char *name = "";
    Layer layer = Layer::Driver;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;
    std::uint32_t rep = 0;
    std::uint32_t cell = 0;
    std::uint64_t job = 0;
};

/**
 * In-memory span recorder. Off (the timed reps) it does nothing;
 * on, every Scope records name, host start/end, parent span and its
 * rep/cell/job ids. Written out as Chrome trace JSON at exit.
 */
class Spans
{
  public:
    bool on = false;
    std::uint32_t rep = 0;
    std::vector<Span> spans;

    std::int32_t
    open(const char *name, Layer layer, std::uint32_t cell,
         std::uint64_t job)
    {
        Span s;
        s.name = name;
        s.layer = layer;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.rep = rep;
        s.cell = cell;
        s.job = job;
        s.startNs = nowNs();
        spans.push_back(s);
        stack_.push_back(static_cast<std::int32_t>(spans.size() - 1));
        return stack_.back();
    }

    void
    close(std::int32_t idx)
    {
        spans[static_cast<std::size_t>(idx)].endNs = nowNs();
        stack_.pop_back();
    }

    bool writeChrome(const std::string &path,
                     const std::string &workload) const;

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<std::int32_t> stack_;
};

bool
Spans::writeChrome(const std::string &path,
                   const std::string &workload) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"span\":%zu,\"parent\":%d,"
                     "\"workload\":\"%s\",\"cell\":%u,\"job\":%llu}}\n",
                     i ? "," : "", s.name, layerName(s.layer),
                     static_cast<double>(s.startNs) / 1000.0,
                     static_cast<double>(s.endNs - s.startNs) / 1000.0,
                     s.rep, i, s.parent, workload.c_str(), s.cell,
                     static_cast<unsigned long long>(s.job));
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
}

/** RAII span: records only while the recorder is on. */
class Scope
{
  public:
    Scope(Spans &spans, const char *name, Layer layer,
          std::uint32_t cell = 0, std::uint64_t job = 0)
        : spans_(spans),
          idx_(spans.on ? spans.open(name, layer, cell, job) : -1)
    {
    }

    ~Scope()
    {
        if (idx_ >= 0)
            spans_.close(idx_);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans &spans_;
    std::int32_t idx_;
};

// --------------------------------------------------------- rep data

/**
 * Host time and events of one measured cell. A cell is timed in
 * units (a whole paper-batch or aged-rw cell; a chunk of fleet
 * submits or one device's share of the fleet drain), the same units
 * in every rep.
 */
struct CellPerf
{
    std::string name;
    std::vector<double> unitS;
    std::uint64_t events = 0;
};

/** Everything one rep (set-up + measured phase) produced. */
struct Rep
{
    /** @name Host time (s) @{ */
    double setupS = 0.0;
    double compileS = 0.0;
    double warmBuildS = 0.0;
    double wallS = 0.0;
    /** @} */

    /** @name Measured-phase work (deltas across any fork) @{ */
    std::uint64_t events = 0;
    std::map<std::string, std::uint64_t> counters;
    reliability::ReliabilityStats rel;
    std::uint64_t instructions = 0;
    std::array<std::uint64_t, kNumTargets> perResource{};
    Tick offloaderBusy = 0;
    Tick internalDmBusy = 0;
    Tick flashReadBusy = 0;
    double latencyP9999Us = 0.0;
    std::uint64_t statSamples = 0;
    double rssAfterDrainMb = 0.0;
    /** @} */

    /** @name Simulated outcome @{ */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t late = 0;
    std::vector<double> sojournMs;
    std::uint64_t sloJobs = 0;
    std::uint64_t sloMet = 0;
    double spanSec = 0.0;
    double residencySec = 0.0;
    double admissionWaitMs = 0.0;
    std::uint64_t jobs = 0;
    double imbalance = 0.0; // worst cell
    std::vector<CellPerf> cells;
    /** @} */

    /** @name paper-batch only @{ */
    double speedupGmean = 0.0;
    double paperErrorPct = 0.0;
    std::string gmeanRow;
    /** @} */

    Digest digest;
    std::vector<std::string> errors;
};

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/**
 * Host seconds of every cell of the measured phase: the fastest run
 * of each of its timed units over @p reps, summed. Every rep runs the
 * same cells and units in the same order. Host-side noise only ever
 * adds time, and on a shared machine it comes in phases of seconds
 * (other tenants thrashing the shared cache slow this cache-heavy
 * simulator by up to 2x while a pure ALU loop stays flat), so the
 * per-unit minimum is the estimate that repeats across runs; a median
 * would track the phase.
 */
std::vector<double>
bestCellTimes(const std::vector<Rep> &reps)
{
    std::vector<std::vector<double>> best;
    for (const Rep &r : reps)
        for (std::size_t c = 0; c < r.cells.size(); ++c) {
            if (c == best.size())
                best.push_back(r.cells[c].unitS);
            for (std::size_t u = 0; u < r.cells[c].unitS.size(); ++u)
                best[c][u] = std::min(best[c][u], r.cells[c].unitS[u]);
        }
    std::vector<double> out;
    for (const auto &units : best)
        out.push_back(sum(units));
    return out;
}

using CounterMap = std::map<std::string, std::uint64_t>;

CounterMap
counterValues(const StatSet &stats)
{
    CounterMap m;
    for (const auto &kv : stats.counters())
        m[kv.first] = kv.second.value();
    return m;
}

/** Add after - before of every counter into @p rep (and digest). */
void
foldCounters(Rep &rep, const CounterMap &before, const CounterMap &after)
{
    for (const auto &kv : after) {
        const auto it = before.find(kv.first);
        const std::uint64_t base = it == before.end() ? 0 : it->second;
        const std::uint64_t d = kv.second - base;
        rep.counters[kv.first] += d;
        rep.digest.add(kv.first);
        rep.digest.add(d);
    }
}

void
foldReliability(Rep &rep, const reliability::ReliabilityStats &before,
                const reliability::ReliabilityStats &after)
{
    const auto fold = [&](std::uint64_t &acc, std::uint64_t a,
                          std::uint64_t b) {
        acc += b - a;
        rep.digest.add(b - a);
    };
    fold(rep.rel.retriedReads, before.retriedReads, after.retriedReads);
    fold(rep.rel.eccRetries, before.eccRetries, after.eccRetries);
    fold(rep.rel.softDecodes, before.softDecodes, after.softDecodes);
    fold(rep.rel.uncorrectableReads, before.uncorrectableReads,
         after.uncorrectableReads);
    fold(rep.rel.retiredBlocks, before.retiredBlocks,
         after.retiredBlocks);
    fold(rep.rel.scrubPasses, before.scrubPasses, after.scrubPasses);
    fold(rep.rel.scrubRefreshes, before.scrubRefreshes,
         after.scrubRefreshes);
    fold(rep.rel.wearLevelMigrations, before.wearLevelMigrations,
         after.wearLevelMigrations);
}

/** Engine-side work of one run result. */
void
foldRun(Rep &rep, const RunResult &r)
{
    rep.digest.add(r.execTime);
    rep.digest.add(r.instrCount);
    for (std::uint64_t v : r.perResource)
        rep.digest.add(v);
    rep.instructions += r.instrCount;
    for (std::size_t t = 0; t < kNumTargets; ++t)
        rep.perResource[t] += r.perResource[t];
    rep.offloaderBusy += r.offloaderBusy;
    rep.internalDmBusy += r.internalDmBusy;
    rep.flashReadBusy += r.flashReadBusy;
}

/**
 * One measured job: digest its ticks, check it retired and arrived
 * on schedule, and collect its sojourn.
 */
void
foldJob(Rep &rep, const JobResult &j, Tick scheduled, Histogram &lat)
{
    rep.digest.add(j.arrival);
    rep.digest.add(j.admitted);
    rep.digest.add(j.end);
    foldRun(rep, j.result);
    lat.merge(j.result.latencyUs);
    ++rep.jobs;
    if (j.id == 0 || j.admitted < j.arrival || j.end < j.admitted)
        ++rep.failed;
    if (j.arrival > scheduled)
        ++rep.late;
    rep.sojournMs.push_back(ticksToUs(j.sojourn()) / 1000.0);
    rep.residencySec += ticksToSeconds(j.sojourn());
    if (j.admitted > j.arrival)
        rep.admissionWaitMs += ticksToUs(j.admitted - j.arrival) / 1000.0;
}

/** Per-cell pooled instruction-latency tail; keeps the worst cell. */
void
foldLatency(Rep &rep, const Histogram &lat)
{
    if (lat.count())
        rep.latencyP9999Us =
            std::max(rep.latencyP9999Us, lat.percentile(99.99));
}

std::shared_ptr<const Program>
compileProgram(ProgramCache &cache, WorkloadId id,
               const WorkloadParams &params, const SsdConfig &cfg,
               Spans &spans)
{
    Scope s(spans, "compile", Layer::Compile, 0,
            static_cast<std::uint64_t>(id));
    auto vp = cache.get(id, params, cfg);
    return std::shared_ptr<const Program>(vp, &vp->program);
}

/** Driver-wide settings taken from the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string traceOut;
};

// ------------------------------------------------------- workloads

class Workload
{
  public:
    explicit Workload(CpuPicker &cpu) : cpu_(cpu) {}
    virtual ~Workload() = default;

    /** Set up and run the measured phase once. */
    virtual Rep rep(Spans &spans) = 0;

    /** Set up once and discard (extra set-up samples); seconds. */
    virtual double setupOnly(Spans &spans) = 0;

  protected:
    /** Called before every timed unit, never inside one. */
    CpuPicker &cpu_;
};

/**
 * fleet-open: 8 fresh devices, two tenants (AES : jacobi-1d = 3:1),
 * Poisson open-loop arrivals at a fixed 688 jobs/s fleet-wide,
 * round-robin then least-backlog placement, 256 jobs per cell.
 */
class FleetOpen final : public Workload
{
  public:
    FleetOpen(const Options &o, CpuPicker &cpu)
        : Workload(cpu), seed_(o.seed), jobs_(o.smoke ? 32 : 256)
    {
        // Merged arrival schedule, built the way a fleet sweep builds
        // it: jobs split across tenants by weight (floor, remainder
        // round-robin), each tenant walking its own Poisson process
        // (seed offset by tenant index), merged in (arrival, per-
        // tenant index, tenant) order.
        double weightSum = 0.0;
        for (const Tenant &t : tenants_)
            weightSum += t.weight;
        quota_.assign(tenants_.size(), 0);
        std::size_t assigned = 0;
        for (std::size_t t = 0; t < tenants_.size(); ++t) {
            quota_[t] = static_cast<std::size_t>(
                static_cast<double>(jobs_) * tenants_[t].weight /
                weightSum);
            assigned += quota_[t];
        }
        for (std::size_t t = 0; assigned < jobs_;
             t = (t + 1) % tenants_.size()) {
            ++quota_[t];
            ++assigned;
        }
        for (std::size_t t = 0; t < tenants_.size(); ++t) {
            const double rate = kRate * tenants_[t].weight / weightSum;
            auto arr = makeArrivals(ArrivalKind::Poisson,
                                    static_cast<double>(kPsPerS) / rate,
                                    o.seed + t);
            Tick at = 0;
            for (std::size_t i = 0; i < quota_[t]; ++i) {
                at += arr->next();
                schedule_.push_back({at, i, t});
            }
        }
        std::sort(schedule_.begin(), schedule_.end(),
                  [](const Slot &a, const Slot &b) {
                      if (a.at != b.at)
                          return a.at < b.at;
                      if (a.idx != b.idx)
                          return a.idx < b.idx;
                      return a.tenant < b.tenant;
                  });
    }

    double
    setupOnly(Spans &spans) override
    {
        Rep scratch;
        const auto progs = compile(scratch, spans);
        for (const char *placement : kPlacements) {
            cpu_.maybeRepick();
            const auto t0 = Clock::now();
            auto fleet = construct(progs, placement, 0, spans);
            scratch.setupS += secondsSince(t0);
        }
        return scratch.setupS;
    }

    Rep
    rep(Spans &spans) override
    {
        Rep r;
        const auto progs = compile(r, spans);
        std::uint32_t cell = 0;
        for (const char *placement : kPlacements)
            runCell(r, progs, placement, cell++, spans);
        return r;
    }

  private:
    struct Tenant
    {
        WorkloadId id;
        double weight;
        double sloMs;
    };

    /** One scheduled arrival (idx: the job's index in its tenant). */
    struct Slot
    {
        Tick at;
        std::size_t idx;
        std::size_t tenant;
    };

    static constexpr double kRate = 688.0;
    static constexpr std::size_t kDevices = 8;
    static constexpr std::size_t kSubmitsPerUnit = 32;
    static constexpr const char *kPlacements[2] = {"round-robin",
                                                   "least-backlog"};

    std::vector<std::shared_ptr<const Program>>
    compile(Rep &r, Spans &spans) const
    {
        cpu_.maybeRepick();
        const auto t0 = Clock::now();
        ProgramCache cache;
        std::vector<std::shared_ptr<const Program>> progs;
        for (const Tenant &t : tenants_)
            progs.push_back(
                compileProgram(cache, t.id, {}, benchConfig(), spans));
        r.compileS += secondsSince(t0);
        r.setupS += secondsSince(t0);
        return progs;
    }

    std::unique_ptr<cluster::Cluster>
    construct(const std::vector<std::shared_ptr<const Program>> &progs,
              const char *placement, std::uint32_t cell,
              Spans &spans) const
    {
        Scope s(spans, "cluster.construct", Layer::Cluster, cell);
        // Fresh devices get a pool fitting every measured job at
        // once (the fleet-wide footprint sum) and retire eagerly, as
        // open-loop cells do.
        std::uint64_t cap = 0;
        for (std::size_t t = 0; t < tenants_.size(); ++t)
            cap += quota_[t] * progs[t]->footprintPages;
        DeviceOptions dopts =
            makeDeviceOptions(benchConfig(), EngineOptions{}, {});
        dopts.capacityPages = cap;
        dopts.retire = RetirePolicy::OnComplete;
        cluster::ClusterOptions copts;
        copts.devices.resize(kDevices, {dopts, nullptr});
        return std::make_unique<cluster::Cluster>(
            std::move(copts),
            cluster::makePlacement(placement, seed_));
    }

    void
    runCell(Rep &r, const std::vector<std::shared_ptr<const Program>> &progs,
            const char *placement, std::uint32_t cell, Spans &spans) const
    {
        Scope cs(spans, "cell", Layer::Driver, cell);
        cpu_.maybeRepick();
        const auto s0 = Clock::now();
        auto fleet = construct(progs, placement, cell, spans);
        r.setupS += secondsSince(s0);

        r.attempted += schedule_.size();
        cluster::ClusterSnapshot snap;
        std::vector<double> units;
        try {
            cpu_.maybeRepick();
            auto u0 = Clock::now();
            for (std::size_t i = 0; i < schedule_.size(); ++i) {
                const Slot &s = schedule_[i];
                JobSpec job;
                job.name = workloadName(tenants_[s.tenant].id);
                job.program = progs[s.tenant];
                job.arrival = s.at;
                {
                    Scope js(spans, "cluster.submit", Layer::Cluster,
                             cell, i);
                    fleet->submit(job, s.tenant);
                }
                if ((i + 1) % kSubmitsPerUnit == 0 ||
                    i + 1 == schedule_.size()) {
                    units.push_back(secondsSince(u0));
                    cpu_.maybeRepick();
                    u0 = Clock::now();
                }
            }
            // Cluster::drain runs the devices to quiescence one by
            // one in index order. Doing that first, device by device,
            // is the same simulation timed in finer units; the drain
            // then only collects the snapshots.
            Scope ds(spans, "cluster.drain", Layer::Cluster, cell);
            for (std::size_t d = 0; d < fleet->size(); ++d) {
                cpu_.maybeRepick();
                const auto d0 = Clock::now();
                {
                    Scope s(spans, "device.advance", Layer::Device, cell,
                            d);
                    fleet->device(d).advanceTo(kMaxTick);
                }
                units.push_back(secondsSince(d0));
            }
            cpu_.maybeRepick();
            const auto c0 = Clock::now();
            snap = fleet->drain();
            units.push_back(secondsSince(c0));
        } catch (const std::exception &e) {
            r.failed += schedule_.size();
            r.errors.push_back(std::string(placement) + ": " + e.what());
            return;
        }
        r.wallS += sum(units);
        r.cells.push_back({placement, std::move(units), snap.eventsFired});
        r.rssAfterDrainMb = std::max(r.rssAfterDrainMb, rssNowMb());

        // Fresh devices: every counter is a measured-phase delta.
        r.events += snap.eventsFired;
        r.digest.add(snap.eventsFired);
        for (std::size_t d = 0; d < fleet->size(); ++d) {
            foldCounters(r, {},
                         counterValues(fleet->device(d).engine().stats()));
            foldReliability(r, {}, snap.devices[d].reliability);
        }
        fleet.reset();

        if (snap.routed.size() != schedule_.size()) {
            r.failed += schedule_.size() - std::min(schedule_.size(),
                                                     snap.routed.size());
            r.errors.push_back(std::string(placement) +
                               ": not every job was routed");
        }
        Histogram lat;
        Tick maxEnd = snap.base;
        std::vector<std::uint64_t> perDev(snap.devices.size(), 0);
        for (std::size_t i = 0; i < snap.routed.size(); ++i) {
            const cluster::RoutedJob &rj = snap.routed[i];
            const JobResult *jr = nullptr;
            try {
                jr = &snap.result(i);
            } catch (const std::out_of_range &) {
                ++r.failed;
                continue;
            }
            r.digest.add(rj.device);
            foldJob(r, *jr, snap.base + schedule_[i].at, lat);
            maxEnd = std::max(maxEnd, jr->end);
            ++perDev[rj.device];
            const double sojournMs = ticksToUs(jr->sojourn()) / 1000.0;
            ++r.sloJobs;
            if (sojournMs <= tenants_[rj.tenant].sloMs)
                ++r.sloMet;
        }
        for (const DeviceSnapshot &ds : snap.devices) {
            r.statSamples += ds.aggregate.latencyUs.count();
            for (const JobResult &j : ds.jobs)
                r.statSamples += j.result.latencyUs.count();
        }
        foldLatency(r, lat);
        r.spanSec += ticksToSeconds(maxEnd - snap.base);
        const std::uint64_t maxRouted =
            *std::max_element(perDev.begin(), perDev.end());
        if (!snap.routed.empty())
            r.imbalance =
                std::max(r.imbalance,
                         static_cast<double>(perDev.size() * maxRouted) /
                             static_cast<double>(snap.routed.size()));
    }

    const std::vector<Tenant> tenants_ = {
        {WorkloadId::Aes, 3.0, 21.6},
        {WorkloadId::Jacobi1d, 1.0, 4.8},
    };
    std::uint64_t seed_;
    std::size_t jobs_;
    std::vector<std::size_t> quota_;
    std::vector<Slot> schedule_;
};

/**
 * aged-rw: one device per age rung (0, 1500, 3000 P/E; 30 days of
 * retention per 1000 cycles). Each rung runs warm traffic once and
 * snapshots it; the image is forked per offload policy and serves an
 * open-loop stream alternating LLM Training (write-heavy) and LlaMA2
 * Inference (read-heavy) jobs at a fixed rate.
 */
class AgedRw final : public Workload
{
  public:
    AgedRw(const Options &o, CpuPicker &cpu)
        : Workload(cpu), warmJobs_(o.smoke ? 8 : 64),
          measuredJobs_(o.smoke ? 24 : 192)
    {
        // One Poisson process: the warm phase takes the first gaps,
        // the measured phase continues the same process from the
        // forked device's clock.
        auto arr = makeArrivals(ArrivalKind::Poisson,
                                static_cast<double>(kPsPerS) / kRate,
                                o.seed);
        Tick at = 0;
        for (std::size_t i = 0; i < warmJobs_; ++i) {
            at += arr->next();
            warmAt_.push_back(at);
        }
        Tick off = 0;
        for (std::size_t i = 0; i < measuredJobs_; ++i) {
            off += arr->next();
            measuredOffset_.push_back(off);
        }
    }

    double
    setupOnly(Spans &spans) override
    {
        Rep scratch;
        setup(scratch, spans);
        return scratch.setupS;
    }

    Rep
    rep(Spans &spans) override
    {
        Rep r;
        const Images images = setup(r, spans);
        std::uint32_t cell = 0;
        for (std::size_t g = 0; g < kRungs.size(); ++g)
            for (const char *policy : kPolicies)
                runCell(r, images, g, policy, cell++, spans);
        return r;
    }

  private:
    static constexpr double kRate = 5.0;
    static constexpr std::array<std::uint32_t, 3> kRungs = {0, 1500,
                                                            3000};
    static constexpr double kRetentionDaysPerKCycle = 30.0;
    static constexpr std::uint64_t kPoolJobs = 16;
    static constexpr const char *kPolicies[3] = {
        "Conduit", "DM-Offloading", "BW-Offloading"};
    static constexpr const char *kWarmPolicy = "Conduit";

    struct Images
    {
        std::array<std::shared_ptr<const Program>, 2> progs;
        std::vector<std::shared_ptr<const DeviceImage>> images;
    };

    static SsdConfig
    rungConfig(std::uint32_t rung)
    {
        SsdConfig cfg = benchConfig();
        cfg.reliability.enabled = true;
        cfg.reliability.preWearCycles = rung;
        cfg.reliability.retentionDays =
            kRetentionDaysPerKCycle * rung / 1000.0;
        return cfg;
    }

    /** Tenant of job @p i: even = write-heavy, odd = read-heavy. */
    static std::size_t tenantOf(std::size_t i) { return i % 2; }

    static JobSpec
    makeJob(const Images &img, std::size_t i, Tick at, const char *policy)
    {
        JobSpec job;
        job.program = img.progs[tenantOf(i)];
        job.name = job.program->name;
        job.policy = policy;
        job.arrival = at;
        return job;
    }

    Images
    setup(Rep &r, Spans &spans) const
    {
        Images out;
        cpu_.maybeRepick();
        const auto c0 = Clock::now();
        {
            ProgramCache cache;
            out.progs[0] = compileProgram(cache, WorkloadId::LlmTraining,
                                          {}, benchConfig(), spans);
            out.progs[1] = compileProgram(
                cache, WorkloadId::LlamaInference, {}, benchConfig(),
                spans);
        }
        r.compileS += secondsSince(c0);

        const auto w0 = Clock::now();
        for (std::uint32_t rung : kRungs) {
            Scope ws(spans, "warm.build", Layer::Driver, 0, rung);
            DeviceOptions dopts =
                makeDeviceOptions(rungConfig(rung), EngineOptions{}, {});
            dopts.retire = RetirePolicy::OnComplete;
            // A bounded pool: jobs reuse page regions, so the write-
            // heavy tenant overwrites earlier data and GC reclaims it
            // (a pool sized for every warm job at once would fill the
            // drive and run planes out of free blocks).
            dopts.capacityPages =
                kPoolJobs * std::max(out.progs[0]->footprintPages,
                                     out.progs[1]->footprintPages);
            std::unique_ptr<Device> dev;
            {
                Scope s(spans, "device.construct", Layer::Device);
                dev = std::make_unique<Device>(dopts);
            }
            for (std::size_t i = 0; i < warmJobs_; ++i) {
                Scope s(spans, "warm.submit", Layer::Device, 0, i);
                dev->submit(makeJob(out, i, warmAt_[i], kWarmPolicy));
            }
            {
                Scope s(spans, "warm.drain", Layer::Device);
                dev->drain();
            }
            Scope s(spans, "image.snapshot", Layer::Image);
            out.images.push_back(
                std::make_shared<const DeviceImage>(dev->snapshot()));
        }
        r.warmBuildS = secondsSince(w0);
        r.setupS += secondsSince(c0);
        return out;
    }

    void
    runCell(Rep &r, const Images &img, std::size_t rung,
            const char *policy, std::uint32_t cell, Spans &spans) const
    {
        Scope cs(spans, "cell", Layer::Driver, cell);
        r.attempted += measuredJobs_;
        cpu_.maybeRepick();
        const auto t0 = Clock::now();
        DeviceSnapshot snap;
        CounterMap before;
        reliability::ReliabilityStats relBefore;
        std::uint64_t eventsBefore = 0;
        std::size_t jobsBefore = 0;
        Tick base = 0;
        std::unique_ptr<Device> dev;
        try {
            {
                Scope s(spans, "image.fork", Layer::Image, cell);
                dev = std::make_unique<Device>(*img.images[rung]);
            }
            // Forked devices inherit the image's counters and event
            // count: take the measured phase as deltas from here.
            before = counterValues(dev->engine().stats());
            if (const auto *rel = dev->engine().reliability())
                relBefore = rel->stats();
            eventsBefore = dev->engine().sessionQueue().eventsFired();
            jobsBefore = dev->jobCount();
            base = dev->now();
            for (std::size_t i = 0; i < measuredJobs_; ++i) {
                Scope s(spans, "device.submit", Layer::Device, cell, i);
                dev->submit(makeJob(img, warmJobs_ + i,
                                    base + measuredOffset_[i], policy));
            }
            Scope s(spans, "device.drain", Layer::Device, cell);
            snap = dev->drain();
        } catch (const std::exception &e) {
            r.failed += measuredJobs_;
            r.errors.push_back(std::string(policy) + ": " + e.what());
            return;
        }
        const double wall = secondsSince(t0);
        r.wallS += wall;
        const std::uint64_t events = snap.eventsFired - eventsBefore;
        char name[64];
        std::snprintf(name, sizeof name, "%uPE/%s",
                      static_cast<unsigned>(kRungs[rung]), policy);
        r.cells.push_back({name, {wall}, events});
        r.rssAfterDrainMb = std::max(r.rssAfterDrainMb, rssNowMb());

        r.events += events;
        r.digest.add(events);
        foldCounters(r, before, counterValues(dev->engine().stats()));
        foldReliability(r, relBefore, snap.reliability);
        dev.reset();

        if (snap.jobs.size() != jobsBefore + measuredJobs_) {
            r.failed += measuredJobs_;
            r.errors.push_back(std::string(name) +
                               ": not every job retired");
            return;
        }
        Histogram lat;
        Tick maxEnd = base;
        for (std::size_t i = 0; i < measuredJobs_; ++i) {
            const JobResult &j = snap.jobs[jobsBefore + i];
            foldJob(r, j, base + measuredOffset_[i], lat);
            maxEnd = std::max(maxEnd, j.end);
        }
        r.statSamples += snap.aggregate.latencyUs.count();
        for (const JobResult &j : snap.jobs)
            r.statSamples += j.result.latencyUs.count();
        foldLatency(r, lat);
        r.spanSec += ticksToSeconds(maxEnd - base);
    }

    std::size_t warmJobs_;
    std::size_t measuredJobs_;
    std::vector<Tick> warmAt_;
    std::vector<Tick> measuredOffset_;
};

/**
 * paper-batch: the Fig. 7a matrix at dataset scales 1, 4 and 16. The
 * matrix is the paper's at every seed, so the seed changes nothing.
 */
class PaperBatch final : public Workload
{
  public:
    PaperBatch(const Options &o, CpuPicker &cpu) : Workload(cpu)
    {
        if (o.smoke)
            scales_ = {1.0};
        for (std::size_t s = 0; s < scales_.size(); ++s)
            for (std::size_t w = 0; w < allWorkloads().size(); ++w)
                for (std::size_t t = 0; t < kTechniques.size(); ++t)
                    cells_.push_back({s, w, t});
    }

    double
    setupOnly(Spans &spans) override
    {
        Rep scratch;
        compileAll(scratch, spans);
        // One fresh device per SSD cell is part of set-up too.
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            if (isHost(cells_[i].technique))
                continue;
            cpu_.maybeRepick();
            const auto t0 = Clock::now();
            auto dev = construct(i, spans);
            scratch.setupS += secondsSince(t0);
        }
        return scratch.setupS;
    }

    Rep
    rep(Spans &spans) override
    {
        Rep r;
        const auto progs = compileAll(r, spans);
        std::vector<Tick> exec(cells_.size(), 0);
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const Cell &c = cells_[i];
            const auto id = static_cast<std::uint32_t>(i);
            Scope cs(spans, "cell", Layer::Driver, id);
            ++r.attempted;
            const auto &prog =
                progs[c.scale * allWorkloads().size() + c.workload];
            cpu_.maybeRepick();
            if (isHost(c.technique)) {
                const auto t0 = Clock::now();
                HostModel model(benchConfig(),
                                kTechniques[c.technique] ==
                                        std::string("GPU")
                                    ? HostModel::Kind::Gpu
                                    : HostModel::Kind::Cpu);
                HostResult hr;
                {
                    Scope s(spans, "host.run", Layer::Host, id);
                    hr = model.run(*prog);
                }
                const double wall = secondsSince(t0);
                r.wallS += wall;
                r.cells.push_back({kTechniques[c.technique], {wall}, 0});
                exec[i] = hr.totalTime;
                for (std::uint64_t v :
                     {hr.totalTime, hr.computeTime, hr.transferTime,
                      hr.pcieBytes, hr.flashPagesRead})
                    r.digest.add(v);
                continue;
            }
            const auto s0 = Clock::now();
            auto dev = construct(i, spans);
            r.setupS += secondsSince(s0);
            cpu_.maybeRepick();
            const auto t0 = Clock::now();
            DeviceSnapshot snap;
            try {
                JobSpec job;
                job.program = prog;
                job.name = prog->name;
                job.policy = kTechniques[c.technique];
                {
                    Scope s(spans, "device.submit", Layer::Device, id);
                    dev->submit(job);
                }
                Scope s(spans, "device.drain", Layer::Device, id);
                snap = dev->drain();
            } catch (const std::exception &e) {
                ++r.failed;
                r.errors.push_back(std::string(kTechniques[c.technique]) +
                                   ": " + e.what());
                continue;
            }
            const double wall = secondsSince(t0);
            r.wallS += wall;
            r.cells.push_back(
                {kTechniques[c.technique], {wall}, snap.eventsFired});
            r.rssAfterDrainMb = std::max(r.rssAfterDrainMb, rssNowMb());
            if (snap.jobs.size() != 1) {
                ++r.failed;
                continue;
            }
            const JobResult &job = snap.jobs.front();
            r.events += snap.eventsFired;
            r.digest.add(snap.eventsFired);
            foldCounters(r, {}, counterValues(dev->engine().stats()));
            foldReliability(r, {}, snap.reliability);
            Histogram lat;
            foldJob(r, job, 0, lat);
            foldLatency(r, lat);
            // One job per device: its sojourn is the device's span.
            r.spanSec += ticksToSeconds(job.sojourn());
            r.statSamples += snap.aggregate.latencyUs.count() +
                job.result.latencyUs.count();
            exec[i] = job.result.execTime;
        }
        reduce(r, exec);
        return r;
    }

  private:
    struct Cell
    {
        std::size_t scale;
        std::size_t workload; // index into allWorkloads()
        std::size_t technique;
    };

    /** Fig. 7a columns: the CPU baseline, then the paper's order. */
    static constexpr std::array<const char *, 10> kTechniques = {
        "CPU",           "GPU",           "ISP",
        "PuD-SSD",       "Flash-Cosmos",  "Ares-Flash",
        "BW-Offloading", "DM-Offloading", "Conduit",
        "Ideal"};

    /**
     * bench_fig07a_speedup's GMEAN row at its default settings — the
     * scale-1 row this workload must reproduce exactly.
     */
    static constexpr const char *kFig07aGmeanRow =
        "GMEAN                       1.83x          0.84x          3.48x"
        "          1.06x          1.94x          1.73x          2.24x"
        "          3.40x         15.00x";

    static bool
    isHost(std::size_t t)
    {
        return t < 2;
    }

    std::vector<std::shared_ptr<const Program>>
    compileAll(Rep &r, Spans &spans) const
    {
        cpu_.maybeRepick();
        const auto t0 = Clock::now();
        ProgramCache cache;
        std::vector<std::shared_ptr<const Program>> progs;
        for (double scale : scales_) {
            WorkloadParams p;
            p.scale = scale;
            for (WorkloadId w : allWorkloads())
                progs.push_back(
                    compileProgram(cache, w, p, benchConfig(), spans));
        }
        r.compileS += secondsSince(t0);
        r.setupS += secondsSince(t0);
        return progs;
    }

    std::unique_ptr<Device>
    construct(std::size_t cell, Spans &spans) const
    {
        Scope s(spans, "device.construct", Layer::Device,
                static_cast<std::uint32_t>(cell));
        WorkloadParams p;
        p.scale = scales_[cells_[cell].scale];
        return std::make_unique<Device>(
            makeDeviceOptions(benchConfig(), EngineOptions{}, p));
    }

    /** Speedup tables, the scale-1 GMEAN row and the paper error. */
    void
    reduce(Rep &r, const std::vector<Tick> &exec) const
    {
        const std::size_t nw = allWorkloads().size();
        const std::size_t nt = kTechniques.size();
        // Scale 1 is always the first scale.
        std::vector<std::vector<double>> speedups(nt);
        for (std::size_t w = 0; w < nw; ++w) {
            const double cpu = static_cast<double>(exec[w * nt]);
            for (std::size_t t = 1; t < nt; ++t) {
                const double e = static_cast<double>(exec[w * nt + t]);
                speedups[t].push_back(e > 0.0 ? cpu / e : 0.0);
            }
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%-18s", "GMEAN");
        r.gmeanRow = buf;
        std::vector<double> g(nt, 0.0);
        for (std::size_t t = 1; t < nt; ++t) {
            g[t] = gmean(speedups[t]);
            std::snprintf(buf, sizeof buf, " %13.2fx", g[t]);
            r.gmeanRow += buf;
        }
        const auto col = [&](const char *name) {
            for (std::size_t t = 0; t < nt; ++t)
                if (std::strcmp(kTechniques[t], name) == 0)
                    return g[t];
            return 0.0;
        };
        const double conduit = col("Conduit");
        r.speedupGmean = conduit;
        // The nine bracketed key observations bench_fig07a_speedup
        // prints, with the paper's values.
        const struct
        {
            const char *base;
            double paper;
        } keys[] = {
            {"CPU", 4.2},           {"GPU", 1.8},
            {"ISP", 3.3},           {"PuD-SSD", 2.2},
            {"Flash-Cosmos", 3.3},  {"Ares-Flash", 2.3},
            {"BW-Offloading", 2.0}, {"DM-Offloading", 1.8},
        };
        double err = 0.0;
        for (const auto &k : keys) {
            const double model = std::strcmp(k.base, "CPU") == 0
                ? conduit
                : conduit / col(k.base);
            err += std::fabs(model - k.paper) / k.paper;
        }
        err += std::fabs(conduit / col("Ideal") - 0.62) / 0.62;
        r.paperErrorPct = 100.0 * err / 9.0;
    }

  public:
    /** The expected scale-1 GMEAN row. */
    static std::string expectedGmeanRow() { return kFig07aGmeanRow; }

  private:
    std::vector<double> scales_ = {1.0, 4.0, 16.0};
    std::vector<Cell> cells_;
};

// ------------------------------------------------------------ report

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    bool applies;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, value, unit, true});
    }

    void
    na(const std::string &name, const std::string &unit)
    {
        metrics_.push_back({name, 0.0, unit, false});
    }

    void
    print() const
    {
        for (const Metric &m : metrics_) {
            if (m.applies)
                std::printf("metric\t%s\t%.17g\t%s\n", m.name.c_str(),
                            m.value, m.unit.c_str());
            else
                std::printf("metric\t%s\tN/A\t%s\n", m.name.c_str(),
                            m.unit.c_str());
        }
    }

  private:
    std::vector<Metric> metrics_;
};

/** Host-time sums over one traced rep's spans. */
struct SpanTotals
{
    std::array<double, static_cast<std::size_t>(Layer::Count)> self{};
    std::map<std::string, double> byName;
    std::map<std::string, std::size_t> countByName;
    std::vector<double> clusterSubmitUs;
};

SpanTotals
spanTotals(const Spans &spans, std::uint32_t rep)
{
    SpanTotals t;
    std::vector<double> childNs(spans.spans.size(), 0.0);
    for (const Span &s : spans.spans)
        if (s.rep == rep && s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.endNs - s.startNs);
    for (std::size_t i = 0; i < spans.spans.size(); ++i) {
        const Span &s = spans.spans[i];
        if (s.rep != rep)
            continue;
        const double dur = static_cast<double>(s.endNs - s.startNs);
        t.self[static_cast<std::size_t>(s.layer)] +=
            (dur - childNs[i]) / 1e9;
        t.byName[s.name] += dur / 1e9;
        ++t.countByName[s.name];
        if (std::strcmp(s.name, "cluster.submit") == 0)
            t.clusterSubmitUs.push_back(dur / 1000.0);
    }
    return t;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fleet-open|aged-rw|paper-batch\n"
                 "          [--seed N] [--seconds S] [--trace 0|1]\n"
                 "          [--smoke] [--trace-out PATH]\n",
                 argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
        } else if (a == "--trace") {
            o.trace = value() != "0";
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--trace-out") {
            o.traceOut = value();
        } else {
            usage(argv[0]);
        }
    }
    if (o.workload.empty() || !(o.seconds >= 0.0))
        usage(argv[0]);
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o, CpuPicker &cpu)
{
    if (o.workload == "fleet-open")
        return std::make_unique<FleetOpen>(o, cpu);
    if (o.workload == "aged-rw")
        return std::make_unique<AgedRw>(o, cpu);
    if (o.workload == "paper-batch")
        return std::make_unique<PaperBatch>(o, cpu);
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    std::exit(2);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    CpuPicker cpu;
    std::unique_ptr<Workload> work = makeWorkload(opts, cpu);
    const bool fleet = opts.workload == "fleet-open";
    const bool aged = opts.workload == "aged-rw";
    const bool paper = opts.workload == "paper-batch";

    Spans spans;
    const auto run0 = Clock::now();

    // Set-up samples: set-up-only passes up front (at least 4, more
    // while they fit in a tenth of the run, at most 20), then the
    // set-up of every rep. Reported as their median.
    std::vector<double> setups;
    std::vector<double> compiles;
    std::vector<double> warmBuilds;
    while (setups.size() < 20 &&
           (setups.size() < 4 || secondsSince(run0) < 0.1 * opts.seconds))
        setups.push_back(work->setupOnly(spans));

    // Reps: untraced until --seconds elapse (at least one); with
    // --trace 1, the second rep and then every third one are traced
    // (at least one), leaving two thirds of the reps for the timed
    // figures. Peak memory is read after the first rep, so it does not
    // depend on how many reps fit in the run.
    std::vector<Rep> plain;
    std::vector<Rep> traced;
    std::vector<std::uint32_t> tracedIds;
    double peakRss = 0.0;
    std::vector<double> repSeconds;
    std::uint32_t repId = 0;
    while (true) {
        const bool traceThis =
            opts.trace && plain.size() > 2 * traced.size();
        spans.on = traceThis;
        spans.rep = repId;
        Rep r;
        const auto rep0 = Clock::now();
        {
            Scope rs(spans, "rep", Layer::Driver, 0, repId);
            r = work->rep(spans);
        }
        spans.on = false;
        if (repId == 0)
            peakRss = peakRssMb();
        repSeconds.push_back(secondsSince(rep0));
        std::printf("rep\t%u\ttraced\t%d\tsetup_s\t%.6f\twall_s\t%.6f\t"
                    "rep_s\t%.6f\n",
                    repId, traceThis ? 1 : 0, r.setupS, r.wallS,
                    repSeconds.back());
        if (traceThis) {
            traced.push_back(std::move(r));
            tracedIds.push_back(repId);
        } else {
            setups.push_back(r.setupS);
            compiles.push_back(r.compileS);
            warmBuilds.push_back(r.warmBuildS);
            plain.push_back(std::move(r));
        }
        ++repId;
        // Stop before a rep that would overrun --seconds, so a run
        // ends on time whatever the rep length.
        const bool enough = !plain.empty() &&
            (!opts.trace || !traced.empty());
        if (enough &&
            secondsSince(run0) + median(repSeconds) > opts.seconds)
            break;
    }

    // ---------------------------------------------------- checks
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t late = 0;
    const Rep &ref = plain.front();
    bool digestsMatch = true;
    bool tracedMatch = true;
    for (const Rep &r : plain) {
        attempted += r.attempted;
        failed += r.failed;
        late += r.late;
        digestsMatch = digestsMatch && r.digest.h == ref.digest.h;
        for (const std::string &e : r.errors)
            std::fprintf(stderr, "error: %s\n", e.c_str());
    }
    for (const Rep &r : traced) {
        attempted += r.attempted;
        failed += r.failed;
        late += r.late;
        tracedMatch = tracedMatch && r.digest.h == ref.digest.h;
    }
    std::printf("workload\t%s\tseed\t%llu\treps\t%zu\ttraced_reps\t%zu\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), plain.size(),
                traced.size());
    std::printf("digest\t%s\n", hex(ref.digest.h).c_str());
    const auto check = [&](const char *name, bool ok) {
        std::printf("check\t%s\t%s\n", name, ok ? "ok" : "FAIL");
        correct = correct && ok;
    };
    check("every_job_retired", failed == 0);
    check("arrivals_on_schedule", late == 0);
    check("digest_repeats", digestsMatch);
    if (opts.trace)
        check("traced_digest_matches", tracedMatch);
    if (paper) {
        const bool rowOk = ref.gmeanRow == PaperBatch::expectedGmeanRow();
        std::printf("gmean_row\t%s\n", ref.gmeanRow.c_str());
        check("fig07a_gmean_row", rowOk);
    }

    // --------------------------------------------------- metrics
    // Timed figures come from the untraced reps only.
    const std::vector<double> cellTimes = bestCellTimes(plain);
    const double wall = sum(cellTimes);
    Report rep;
    rep.add("wall_s", wall, "s");
    rep.add("setup_s", median(setups), "s");
    rep.add("events_per_s",
            wall > 0.0 ? static_cast<double>(ref.events) / wall : 0.0,
            "1/s");
    rep.add("peak_rss_mb", peakRss, "MB");
    rep.add("failed_frac",
            attempted ? static_cast<double>(failed) /
                    static_cast<double>(attempted)
                      : 1.0,
            "fraction");

    std::vector<double> sojourn = ref.sojournMs;
    if (fleet || aged) {
        rep.add("sim_throughput_jobs_per_s",
                ref.spanSec > 0.0
                    ? static_cast<double>(ref.jobs) / ref.spanSec
                    : 0.0,
                "jobs/s");
        rep.add("sim_sojourn_p50_ms", nearestRank(sojourn, 50.0),
                "sim_ms");
        rep.add("sim_sojourn_p95_ms", nearestRank(sojourn, 95.0),
                "sim_ms");
        rep.add("sim_sojourn_samples", static_cast<double>(sojourn.size()),
                "count");
    } else {
        rep.na("sim_throughput_jobs_per_s", "jobs/s");
        rep.na("sim_sojourn_p50_ms", "sim_ms");
        rep.na("sim_sojourn_p95_ms", "sim_ms");
        rep.na("sim_sojourn_samples", "count");
    }
    if (fleet)
        rep.add("sim_slo_attainment",
                ref.sloJobs ? static_cast<double>(ref.sloMet) /
                        static_cast<double>(ref.sloJobs)
                            : 0.0,
                "fraction");
    else
        rep.na("sim_slo_attainment", "fraction");
    if (paper) {
        rep.add("sim_speedup_gmean", ref.speedupGmean, "x");
        rep.add("paper_error_pct", ref.paperErrorPct, "%");
    } else {
        rep.na("sim_speedup_gmean", "x");
        rep.na("paper_error_pct", "%");
    }

    // Kernel and dispatch.
    const double events = static_cast<double>(ref.events);
    const double instrs = static_cast<double>(ref.instructions);
    rep.add("sim.events", events, "count");
    rep.add("sim.host_ns_per_event", events > 0 ? wall / events * 1e9 : 0,
            "ns");
    if (fleet) {
        for (std::size_t c = 0;
             c < std::min(ref.cells.size(), cellTimes.size()); ++c) {
            const double cellEvents =
                static_cast<double>(ref.cells[c].events);
            const std::string pre = "cell." + ref.cells[c].name;
            rep.add(pre + ".host_ns_per_event",
                    cellEvents > 0 ? cellTimes[c] / cellEvents * 1e9 : 0.0,
                    "ns");
            rep.add(pre + ".events", cellEvents, "count");
        }
    } else {
        for (const char *cellName : {"round-robin", "least-backlog"}) {
            const std::string pre = std::string("cell.") + cellName;
            rep.na(pre + ".host_ns_per_event", "ns");
            rep.na(pre + ".events", "count");
        }
    }
    rep.add("engine.instructions", instrs, "count");
    rep.add("engine.host_ns_per_instr", instrs > 0 ? wall / instrs * 1e9 : 0,
            "ns");
    std::uint64_t placed = 0;
    for (std::uint64_t v : ref.perResource)
        placed += v;
    const char *shareNames[kNumTargets] = {"engine.isp_share",
                                           "engine.pud_share",
                                           "engine.ifp_share"};
    for (std::size_t t = 0; t < kNumTargets; ++t)
        rep.add(shareNames[t],
                placed ? static_cast<double>(ref.perResource[t]) /
                        static_cast<double>(placed)
                       : 0.0,
                "fraction");
    rep.add("engine.offloader_busy_ms", ticksToUs(ref.offloaderBusy) / 1e3,
            "sim_ms");
    rep.add("engine.internal_dm_busy_ms",
            ticksToUs(ref.internalDmBusy) / 1e3, "sim_ms");
    rep.add("engine.flash_read_busy_ms", ticksToUs(ref.flashReadBusy) / 1e3,
            "sim_ms");
    rep.add("engine.instr_latency_p9999_us", ref.latencyP9999Us, "sim_us");

    // Device.
    rep.add("device.admission_wait_ms",
            ref.jobs ? ref.admissionWaitMs / static_cast<double>(ref.jobs)
                     : 0.0,
            "sim_ms");
    rep.add("device.jobs_in_system_mean",
            ref.spanSec > 0.0 ? ref.residencySec / ref.spanSec : 0.0,
            "jobs");

    // Cluster (deterministic part).
    if (fleet) {
        rep.add("cluster.imbalance", ref.imbalance, "ratio");
    } else {
        rep.na("cluster.imbalance", "ratio");
    }

    // Runner and images.
    rep.add("compile.host_s", median(compiles), "s");
    if (aged)
        rep.add("runner.warm_build_host_s", median(warmBuilds), "s");
    else
        rep.na("runner.warm_build_host_s", "s");
    rep.add("runner.stat_samples", static_cast<double>(ref.statSamples),
            "count");
    rep.add("mem.rss_after_drain_mb", ref.rssAfterDrainMb, "MB");

    // Substrates (measured-phase deltas).
    const auto ctr = [&](const char *n) {
        const auto it = ref.counters.find(n);
        return it == ref.counters.end() ? 0.0
                                        : static_cast<double>(it->second);
    };
    const double hits = ctr("ftl.map_hits");
    const double misses = ctr("ftl.map_misses");
    rep.add("ftl.map_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 1.0, "fraction");
    rep.add("ftl.gc_runs", ctr("ftl.gc_runs"), "count");
    rep.add("ftl.gc_migrations", ctr("ftl.gc_migrations"), "count");
    const double programs = ctr("nand.programs");
    const double migrations = ctr("ftl.gc_migrations");
    rep.add("ftl.write_amplification",
            programs > migrations ? programs / (programs - migrations) : 1.0,
            "ratio");
    rep.add("nand.reads", ctr("nand.reads"), "count");
    rep.add("nand.programs", programs, "count");
    rep.add("nand.erases", ctr("nand.erases"), "count");
    rep.add("nand.xfer_bytes",
            ctr("nand.xfer_in_bytes") + ctr("nand.xfer_out_bytes"), "bytes");
    rep.add("dram.bytes", ctr("dram.bytes"), "bytes");
    rep.add("pud.ops", ctr("pud.ops"), "count");
    rep.add("isp.ops", ctr("isp.ops"), "count");
    rep.add("isp.busy_ms", ctr("isp.busy_ps") / 1e9, "sim_ms");
    rep.add("ifp.ops", ctr("ifp.ops"), "count");
    rep.add("reliability.ecc_retries",
            static_cast<double>(ref.rel.eccRetries), "count");
    rep.add("reliability.retried_reads",
            static_cast<double>(ref.rel.retriedReads), "count");
    rep.add("reliability.scrub_refreshes",
            static_cast<double>(ref.rel.scrubRefreshes), "count");
    rep.add("reliability.retired_blocks",
            static_cast<double>(ref.rel.retiredBlocks), "count");

    // Host-time splits from the traced reps (medians over them).
    if (opts.trace) {
        std::vector<SpanTotals> totals;
        for (std::uint32_t id : tracedIds)
            totals.push_back(spanTotals(spans, id));
        const auto med = [&](const auto &get) {
            std::vector<double> v;
            for (const SpanTotals &t : totals)
                v.push_back(get(t));
            return median(v);
        };
        const auto byName = [&](const char *n) {
            return med([&](const SpanTotals &t) {
                const auto it = t.byName.find(n);
                return it == t.byName.end() ? 0.0 : it->second;
            });
        };
        rep.add("trace.overhead_frac",
                wall > 0.0 ? sum(bestCellTimes(traced)) / wall - 1.0
                           : 0.0,
                "fraction");
        for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::Count);
             ++l)
            rep.add(std::string("trace.self.") +
                        layerName(static_cast<Layer>(l)) + "_s",
                    med([&](const SpanTotals &t) { return t.self[l]; }),
                    "s");
        const char *submit = fleet ? "cluster.submit" : "device.submit";
        const char *drain = fleet ? "cluster.drain" : "device.drain";
        rep.add("api.submit_host_s", byName(submit), "s");
        rep.add("api.drain_host_s", byName(drain), "s");
        if (fleet) {
            rep.na("device.submit_host_s", "s");
            // The devices' run to quiescence inside the fleet drain.
            rep.add("device.drain_host_s", byName("device.advance"), "s");
            rep.add("cluster.submit_host_s", byName("cluster.submit"), "s");
            rep.add("cluster.submit_host_us_p99",
                    med([](const SpanTotals &t) {
                        std::vector<double> v = t.clusterSubmitUs;
                        return nearestRank(v, 99.0);
                    }),
                    "us");
        } else {
            rep.add("device.submit_host_s", byName("device.submit"), "s");
            rep.add("device.drain_host_s", byName("device.drain"), "s");
            rep.na("cluster.submit_host_s", "s");
            rep.na("cluster.submit_host_us_p99", "us");
        }
        if (aged) {
            const double forks = med([](const SpanTotals &t) {
                const auto it = t.countByName.find("image.fork");
                return it == t.countByName.end()
                    ? 0.0
                    : static_cast<double>(it->second);
            });
            rep.add("runner.fork_host_ms",
                    forks > 0 ? byName("image.fork") / forks * 1e3 : 0.0,
                    "ms");
        } else {
            rep.na("runner.fork_host_ms", "ms");
        }
        if (paper)
            rep.add("host.baseline_host_s", byName("host.run"), "s");
        else
            rep.na("host.baseline_host_s", "s");
        rep.add("trace.spans",
                med([](const SpanTotals &t) {
                    double n = 0;
                    for (const auto &kv : t.countByName)
                        n += static_cast<double>(kv.second);
                    return n;
                }),
                "count");
        if (!opts.traceOut.empty() &&
            !spans.writeChrome(opts.traceOut, opts.workload)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opts.traceOut.c_str());
            correct = false;
        }
    }

    rep.print();
    std::printf("result\tcorrect\t%d\tattempted\t%llu\tfailed\t%llu\n",
                correct ? 1 : 0, static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    return 0;
}
