/**
 * @file
 * Fork-equivalence tests for the DeviceImage snapshot subsystem.
 *
 * The contract under test: Device::snapshot() at quiescence captures
 * every piece of mutable simulated state, and a device forked from
 * the image (Device::fromImage) behaves byte-identically to the
 * device that lived through the history — same job results, same
 * event counts, same RNG stream positions — under any subsequent
 * traffic. Snapshots are exercised mid-life (after GC has run, and
 * after aged-device block retirement), forks are shown to be
 * mutually independent, and sweeps that share warm images across
 * cells are shown to emit the rows each cell produces alone — and to
 * share an image only between cells whose recipes are equal.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "src/core/arrival.hh"
#include "src/core/device.hh"
#include "src/runner/sweep_result.hh"
#include "src/runner/sweep_runner.hh"

namespace conduit
{
namespace
{

using runner::Scenario;
using runner::SweepOptions;
using runner::SweepRunner;

/**
 * A small device with GC pressure: a handful of small blocks and an
 * early GC trigger, so a handful of jobs already churns the FTL
 * through whole garbage-collection cycles.
 */
SsdConfig
gcCfg()
{
    SsdConfig cfg = SsdConfig::scaled(1.0 / 256.0);
    cfg.nand.channels = 2;
    cfg.nand.diesPerChannel = 2;
    cfg.nand.planesPerDie = 1;
    cfg.nand.blocksPerPlane = 8;
    cfg.nand.pagesPerBlock = 32;
    cfg.gcThreshold = 0.30;
    return cfg;
}

/**
 * gcCfg() fast-forwarded past rated life, with extra spare blocks:
 * the base RBER sits just under the retry ladder's reach, so only
 * the high-jitter tail of blocks soft-decodes, accumulates
 * retirement votes, and retires at its next GC erase — real
 * retirement churn without collapsing the free pool.
 */
SsdConfig
agedCfg()
{
    SsdConfig cfg = gcCfg();
    // Extra spare blocks absorb the retirements, and a higher GC
    // trigger keeps the collector erasing despite the bigger pool
    // (retirement only happens at erase time).
    cfg.nand.blocksPerPlane = 12;
    cfg.gcThreshold = 0.45;
    cfg.reliability.enabled = true;
    cfg.reliability.preWearCycles = 3250;
    cfg.reliability.retentionDays = 90.0;
    // Two soft-decoded reads are enough to condemn a block: the
    // handful of high-jitter blocks retire within the short test
    // run instead of needing a long vote history.
    cfg.reliability.retireSoftThreshold = 2;
    return cfg;
}

/** Serial chain over disjoint page-sized vectors (see test_engine). */
std::shared_ptr<const Program>
chainProgram(const std::string &name, std::size_t n)
{
    auto prog = std::make_shared<Program>();
    prog->name = name;
    prog->pageBytes = 4096;
    for (std::size_t i = 0; i < n; ++i) {
        VecInstruction vi;
        vi.id = i;
        vi.op = OpCode::Add;
        vi.elemBits = 8;
        vi.lanes = 16384;
        vi.srcs = {Operand{12 * i, 4}, Operand{12 * i + 4, 4}};
        vi.dst = Operand{12 * i + 8, 4};
        if (i > 0)
            vi.deps = {i - 1};
        prog->instrs.push_back(vi);
    }
    prog->footprintPages = 12 * n + 4;
    return prog;
}

DeviceOptions
imageTestOptions(const SsdConfig &cfg)
{
    DeviceOptions d;
    d.config = cfg;
    // Open-loop shape: eager retirement recycles a bounded page pool
    // between jobs — the write churn that makes GC (and on an aged
    // device, block retirement) actually happen mid-history.
    d.retire = RetirePolicy::OnComplete;
    d.capacityPages = 600;
    // Bound the DRAM staging pool too, so eviction victim selection
    // draws from the engine RNG and the stream position is
    // mid-sequence when snapshots capture it.
    d.engine.dramStagingFraction = 0.3;
    return d;
}

/**
 * Offer @p jobs jobs of @p prog with deterministic pseudo-Poisson
 * gaps, continuing @p at (the caller threads one arrival clock
 * through warm and measured phases, exactly like the sweep runner).
 */
void
offerJobs(Device &dev, const std::shared_ptr<const Program> &prog,
          std::size_t jobs, ArrivalProcess &gaps, Tick &at)
{
    for (std::size_t i = 0; i < jobs; ++i) {
        at += gaps.next();
        JobSpec job;
        job.name = prog->name;
        job.program = prog;
        job.policyObj =
            std::shared_ptr<OffloadPolicy>(makePolicy("Conduit"));
        job.arrival = at;
        dev.submit(job);
    }
}

/** Mean arrival gap that keeps the device busy but not saturated. */
constexpr double kGapPs = 4.0e8;

void
expectSameJob(const JobResult &x, const JobResult &y)
{
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.arrival, y.arrival);
    EXPECT_EQ(x.admitted, y.admitted);
    EXPECT_EQ(x.end, y.end);
    EXPECT_EQ(x.basePage, y.basePage);
    EXPECT_EQ(x.pages, y.pages);
    EXPECT_EQ(x.result.execTime, y.result.execTime);
    EXPECT_EQ(x.result.instrCount, y.result.instrCount);
    EXPECT_EQ(x.result.perResource, y.result.perResource);
    EXPECT_EQ(x.result.latencyUs.count(), y.result.latencyUs.count());
    EXPECT_EQ(x.result.latencyUs.max(), y.result.latencyUs.max());
    EXPECT_EQ(x.result.coherenceCommits, y.result.coherenceCommits);
    EXPECT_EQ(x.result.latchEvictions, y.result.latchEvictions);
    EXPECT_DOUBLE_EQ(x.result.dmEnergyJ, y.result.dmEnergyJ);
    EXPECT_DOUBLE_EQ(x.result.computeEnergyJ,
                     y.result.computeEnergyJ);
}

void
expectSameSnapshot(const DeviceSnapshot &x, const DeviceSnapshot &y)
{
    EXPECT_EQ(x.makespan, y.makespan);
    ASSERT_EQ(x.jobs.size(), y.jobs.size());
    for (std::size_t i = 0; i < x.jobs.size(); ++i)
        expectSameJob(x.jobs[i], y.jobs[i]);
    EXPECT_EQ(x.aggregate.execTime, y.aggregate.execTime);
    EXPECT_EQ(x.aggregate.latencyUs.count(),
              y.aggregate.latencyUs.count());
    EXPECT_EQ(x.reliability.eccRetries, y.reliability.eccRetries);
    EXPECT_EQ(x.reliability.softDecodes, y.reliability.softDecodes);
    EXPECT_EQ(x.reliability.retiredBlocks,
              y.reliability.retiredBlocks);
    EXPECT_EQ(x.reliability.scrubRefreshes,
              y.reliability.scrubRefreshes);
}

/**
 * The core experiment: warm a device with @p warm jobs, snapshot,
 * then offer @p measured more jobs to (a) the continued original and
 * (b) a fork of the image — with identical arrival clocks — and
 * require byte-identical outcomes, including the post-run RNG
 * stream positions and event totals of a second snapshot of each.
 */
void
forkEqualsContinued(const SsdConfig &cfg, std::size_t warm,
                    std::size_t measured)
{
    auto prog = chainProgram("img", 24);

    Device dev(imageTestOptions(cfg));
    auto gaps = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    Tick at = 0;
    offerJobs(dev, prog, warm, *gaps, at);
    const DeviceImage img = dev.snapshot();
    EXPECT_EQ(img.jobs.size(), warm);

    // Continue the original.
    at = dev.now();
    offerJobs(dev, prog, measured, *gaps, at);
    const DeviceSnapshot contSnap = dev.drain();
    const DeviceImage contImg = dev.snapshot();

    // Fork, replaying the same arrival clock (burn the warm gaps).
    Device fork = Device::fromImage(img);
    auto gaps2 = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    for (std::size_t i = 0; i < warm; ++i)
        gaps2->next();
    Tick at2 = fork.now();
    EXPECT_EQ(at2, img.engine.queueNow);
    offerJobs(fork, prog, measured, *gaps2, at2);
    const DeviceSnapshot forkSnap = fork.drain();
    const DeviceImage forkImg = fork.snapshot();

    expectSameSnapshot(contSnap, forkSnap);
    EXPECT_EQ(contSnap.eventsFired, forkSnap.eventsFired);
    EXPECT_EQ(contImg.engine.queueNow, forkImg.engine.queueNow);
    EXPECT_EQ(contImg.engine.queueFired, forkImg.engine.queueFired);
    EXPECT_TRUE(contImg.engine.session.rng_ == forkImg.engine.session.rng_);
    EXPECT_EQ(contImg.engine.ftl.nextSlot_, forkImg.engine.ftl.nextSlot_);
    EXPECT_EQ(contImg.engine.ftl.freeBlockCount_,
              forkImg.engine.ftl.freeBlockCount_);
    EXPECT_EQ(contImg.engine.ftl.gcRuns_, forkImg.engine.ftl.gcRuns_);
    EXPECT_EQ(contImg.engine.ftl.retiredBlocks_,
              forkImg.engine.ftl.retiredBlocks_);
}

// ------------------------------------------------ fork equivalence

TEST(DeviceImage, ForkEqualsContinuedAfterGc)
{
    forkEqualsContinued(gcCfg(), 8, 4);
}

TEST(DeviceImage, ForkEqualsContinuedAfterBlockRetirement)
{
    forkEqualsContinued(agedCfg(), 8, 4);
}

TEST(DeviceImage, SnapshotCapturesMidLifeFtlState)
{
    auto prog = chainProgram("gc", 24);
    Device dev(imageTestOptions(gcCfg()));
    auto gaps = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    Tick at = 0;
    offerJobs(dev, prog, 8, *gaps, at);
    const DeviceImage img = dev.snapshot();

    // The snapshot must land mid-life, after real FTL churn: GC has
    // run and the mapping table is populated — the state whose loss
    // a warm-from-scratch rebuild could never hide.
    EXPECT_GT(img.engine.ftl.gcRuns_, 0u);
    EXPECT_GT(img.engine.ftl.mapHits_ + img.engine.ftl.mapMisses_, 0u);
    EXPECT_LT(img.engine.ftl.freeBlockCount_,
              img.engine.ftl.blocks_.size());
    EXPECT_EQ(img.capacityPages, 600u);
}

TEST(DeviceImage, SnapshotCapturesBlockRetirement)
{
    auto prog = chainProgram("aged", 24);
    Device dev(imageTestOptions(agedCfg()));
    auto gaps = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    Tick at = 0;
    offerJobs(dev, prog, 8, *gaps, at);
    const DeviceImage img = dev.snapshot();

    // End-of-life wear: the retry ladder fired and blocks retired
    // before the snapshot, so the image carries a shrunken
    // over-provisioning pool and per-block wear state.
    EXPECT_GT(img.engine.rel->stats_.eccRetries, 0u);
    EXPECT_GT(img.engine.ftl.retiredBlocks_, 0u);
}

TEST(DeviceImage, RngStreamRestoredExactly)
{
    auto prog = chainProgram("rng", 16);
    Device dev(imageTestOptions(gcCfg()));
    auto gaps = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    Tick at = 0;
    offerJobs(dev, prog, 4, *gaps, at);
    const DeviceImage img = dev.snapshot();

    // An immediate re-snapshot of a fork reproduces the exact RNG
    // stream position (not just a fresh seed).
    Device fork = Device::fromImage(img);
    const DeviceImage again = fork.snapshot();
    EXPECT_TRUE(img.engine.session.rng_ == again.engine.session.rng_);

    // And the position is mid-stream: a fresh device's RNG differs.
    Device fresh(imageTestOptions(gcCfg()));
    fresh.submit([&] {
        JobSpec job;
        job.program = prog;
        job.policyObj =
            std::shared_ptr<OffloadPolicy>(makePolicy("Conduit"));
        return job;
    }());
    const DeviceImage freshImg = fresh.snapshot();
    EXPECT_TRUE(img.engine.session.rng_ != freshImg.engine.session.rng_);
}

TEST(DeviceImage, ForksAreMutuallyIndependent)
{
    auto prog = chainProgram("indep", 24);
    Device dev(imageTestOptions(gcCfg()));
    auto gaps = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    Tick at = 0;
    offerJobs(dev, prog, 6, *gaps, at);
    const DeviceImage img = dev.snapshot();

    const auto runFork = [&](std::uint64_t seed, std::size_t jobs) {
        Device f = Device::fromImage(img);
        auto g = makeArrivals(ArrivalKind::Poisson, kGapPs, seed);
        Tick a = f.now();
        offerJobs(f, prog, jobs, *g, a);
        return f.drain();
    };

    // Three forks, interleaved with a fork running different
    // traffic: equal traffic keeps producing equal outcomes, so no
    // fork mutates the shared image.
    const DeviceSnapshot first = runFork(7, 3);
    const DeviceSnapshot other = runFork(99, 5);
    const DeviceSnapshot second = runFork(7, 3);
    const DeviceSnapshot third = runFork(7, 3);
    expectSameSnapshot(first, second);
    expectSameSnapshot(first, third);
    EXPECT_NE(other.jobs.size(), first.jobs.size());
}

TEST(DeviceImage, ConcurrentReadersShareOneImage)
{
    // Threads share one read-only image, as the sweep runner shares
    // warm images across cells. Each reads tail percentiles straight
    // off the image's retired jobs, then forks it: reads must not
    // write to the image, so every fork equals a serial fork.
    auto prog = chainProgram("shared", 24);
    Device dev(imageTestOptions(gcCfg()));
    auto gaps = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    Tick at = 0;
    offerJobs(dev, prog, 6, *gaps, at);
    const auto img = std::make_shared<const DeviceImage>(dev.snapshot());

    const auto runFork = [&prog](const DeviceImage &image) {
        Device f = Device::fromImage(image);
        auto g = makeArrivals(ArrivalKind::Poisson, kGapPs, 7);
        Tick a = f.now();
        offerJobs(f, prog, 3, *g, a);
        return f.drain();
    };
    const DeviceSnapshot serial = runFork(*img);

    constexpr int kThreads = 4;
    std::vector<DeviceSnapshot> forks(kThreads);
    std::vector<std::vector<double>> tails(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (const JobResult &j : img->jobs)
                for (double p : {50.0, 99.0, 99.99})
                    tails[t].push_back(j.result.latencyUs.percentile(p));
            forks[t] = runFork(*img);
        });
    }
    for (auto &th : pool)
        th.join();

    std::vector<double> want;
    for (const JobResult &j : img->jobs)
        for (double p : {50.0, 99.0, 99.99})
            want.push_back(j.result.latencyUs.percentile(p));
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(tails[t], want);
        expectSameSnapshot(serial, forks[t]);
        EXPECT_EQ(serial.eventsFired, forks[t].eventsFired);
    }
}

// --------------------------------------- sweep-runner shared images

/** A warmed aging cell: AES offered open-loop at @p age P/E cycles. */
Scenario
agingCell(const char *policy, std::uint32_t age, double scale,
          std::size_t warmupJobs, double rberFresh = 2e-4)
{
    DeviceOptions device;
    device.workload.scale = scale;
    ReliabilityConfig &rel = device.config.reliability;
    rel.enabled = true;
    rel.preWearCycles = age;
    rel.retentionDays = age * 0.03;
    rel.rberFresh = rberFresh;
    runner::Tenant aes;
    aes.name = "AES";
    aes.workloadId = WorkloadId::Aes;
    aes.technique = policy;
    runner::Offer offer;
    offer.jobs = 2;
    offer.jobsPerSec = 2000.0;
    offer.warmupJobs = warmupJobs;
    return runner::loadScenario(device, aes, offer);
}

/** A tiny aging ladder crossed with two policies. */
std::vector<Scenario>
agingMatrix()
{
    std::vector<Scenario> cells;
    for (const char *policy : {"Conduit", "DM-Offloading"})
        for (std::uint32_t age : {0u, 1500u, 3000u})
            cells.push_back(agingCell(policy, age, 1.0 / 64.0, 3));
    return cells;
}

std::string
agingCsv(SweepRunner &runner, const std::vector<Scenario> &cells)
{
    const auto snaps = runner.runAll(cells);
    std::vector<runner::ScenarioRow> rows;
    for (std::size_t i = 0; i < cells.size(); ++i)
        rows.push_back(runner::makeRows(cells[i], snaps[i]).at(1));
    std::ostringstream os;
    runner::writeRowsCsv(os, rows, runner::RowFormat::Aging);
    return os.str();
}

/** CSV of every cell of @p cells run in its own one-cell sweep. */
std::string
perCellCsv(const std::vector<Scenario> &cells)
{
    std::string csv;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SweepRunner alone;
        const std::string one = agingCsv(alone, {cells[i]});
        // Keep the header once, then one data row per cell.
        csv += i == 0 ? one : one.substr(one.find('\n') + 1);
    }
    return csv;
}

TEST(DeviceImage, SharedImageSweepMatchesPerCellSweeps)
{
    // One warm image per age rung, shared across the two policies —
    // and sharing is undetectable: every row equals the cell forked
    // from its own private image.
    SweepRunner runner;
    const std::string shared = agingCsv(runner, agingMatrix());
    EXPECT_EQ(runner.lastPerf().warmupImages, 3u);
    EXPECT_EQ(shared, perCellCsv(agingMatrix()));
}

TEST(DeviceImage, ImagesAreNotSharedAcrossConfigs)
{
    // Two warmed aging cells that differ only in the fresh-device
    // RBER: every config field feeds the image key, so the sweep
    // builds two images and each row equals the cell run alone.
    const std::vector<Scenario> cells = {
        agingCell("Conduit", 2000, 0.5, 4, 2e-4),
        agingCell("Conduit", 2000, 0.5, 4, 2e-3)};
    SweepRunner runner;
    const std::string shared = agingCsv(runner, cells);
    EXPECT_EQ(runner.lastPerf().warmupImages, 2u);
    EXPECT_EQ(shared, perCellCsv(cells));
}

TEST(DeviceImage, ForkModeSweepIsThreadCountInvariant)
{
    SweepRunner serial(SweepOptions{1});
    SweepRunner pooled(SweepOptions{4});
    const std::string one = agingCsv(serial, agingMatrix());
    const std::string four = agingCsv(pooled, agingMatrix());
    EXPECT_EQ(one, four);
}

// ------------------------------------------------ snapshot guards

TEST(DeviceImage, SnapshotRejectsGeometryMismatch)
{
    auto prog = chainProgram("geom", 8);
    Device dev(imageTestOptions(gcCfg()));
    JobSpec job;
    job.program = prog;
    job.policyObj =
        std::shared_ptr<OffloadPolicy>(makePolicy("Conduit"));
    dev.submit(job);
    DeviceImage img = dev.snapshot();

    // A fork must be built against the image's own geometry: images
    // restore into a same-config engine, never reinterpret state.
    img.options.config.nand.blocksPerPlane /= 2;
    EXPECT_THROW(Device::fromImage(img), std::invalid_argument);
}

} // namespace
} // namespace conduit
