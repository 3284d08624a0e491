/**
 * @file
 * Tests for the persistent-device job API: tick-0 batch runs (region
 * layout, admission, determinism, and agreement between wait() and
 * drain()), arrival semantics
 * (staggered-arrival determinism across repeats and thread counts,
 * causality of late arrivals),
 * region allocation/reclamation across job lifetimes, wait()
 * semantics, admission queueing under a bounded page pool, and the
 * deterministic arrival processes.
 */

#include <gtest/gtest.h>

#include "src/core/arrival.hh"
#include "src/core/device.hh"
#include "src/runner/sweep_runner.hh"

namespace conduit
{
namespace
{

SsdConfig
testCfg()
{
    return SsdConfig::scaled(1.0 / 256.0);
}

/** Serial chain over disjoint page-sized vectors (see test_engine). */
std::shared_ptr<const Program>
chainProgram(const std::string &name, std::size_t n,
             OpCode op = OpCode::Add)
{
    auto prog = std::make_shared<Program>();
    prog->name = name;
    prog->pageBytes = 4096;
    for (std::size_t i = 0; i < n; ++i) {
        VecInstruction vi;
        vi.id = i;
        vi.op = op;
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

void
expectSameResult(const RunResult &x, const RunResult &y)
{
    EXPECT_EQ(x.workload, y.workload);
    EXPECT_EQ(x.policy, y.policy);
    EXPECT_EQ(x.execTime, y.execTime);
    EXPECT_EQ(x.instrCount, y.instrCount);
    EXPECT_EQ(x.perResource, y.perResource);
    EXPECT_EQ(x.latencyUs.count(), y.latencyUs.count());
    EXPECT_DOUBLE_EQ(x.latencyUs.percentile(99),
                     y.latencyUs.percentile(99));
    EXPECT_DOUBLE_EQ(x.dmEnergyJ, y.dmEnergyJ);
    EXPECT_DOUBLE_EQ(x.computeEnergyJ, y.computeEnergyJ);
    EXPECT_EQ(x.coherenceCommits, y.coherenceCommits);
    EXPECT_EQ(x.latchEvictions, y.latchEvictions);
}

DeviceOptions
testDeviceOptions()
{
    DeviceOptions d;
    d.config = testCfg();
    return d;
}

// ------------------------------------------------- batch runs

/** Two contending tenants under different policies. */
std::vector<JobSpec>
twoStreams()
{
    std::vector<JobSpec> jobs(2);
    jobs[0].name = "tenantA";
    jobs[0].program = chainProgram("a", 24, OpCode::Add);
    jobs[1].name = "tenantB";
    jobs[1].program = chainProgram("b", 24, OpCode::Xor);
    jobs[1].policy = "DM-Offloading";
    return jobs;
}

/** Submit @p jobs as tick-0 jobs on a fresh device and drain. */
DeviceSnapshot
drainStreams(const std::vector<JobSpec> &jobs)
{
    Device dev(testDeviceOptions());
    for (const JobSpec &job : jobs)
        dev.submit(job);
    return dev.drain();
}

/** One tick-0 job of @p prog under @p policy, finished via wait(). */
RunResult
waitOneJob(const std::shared_ptr<const Program> &prog,
           const std::string &policy)
{
    Device dev(testDeviceOptions());
    JobSpec job;
    job.program = prog;
    job.policy = policy;
    const JobId id = dev.submit(job);
    return dev.wait(id).result;
}

/** The same job as a one-job batch, drained to quiescence. */
RunResult
batchOneJob(const std::shared_ptr<const Program> &prog,
            const std::string &policy)
{
    JobSpec job;
    job.program = prog;
    job.policy = policy;
    return drainStreams({job}).jobs.front().result;
}

TEST(Device, TickZeroBatchIsBackToBackAndDeterministic)
{
    const DeviceSnapshot snap = drainStreams(twoStreams());

    ASSERT_EQ(snap.jobs.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        // Tick-0 jobs admit on arrival, with no admission queueing.
        EXPECT_EQ(snap.jobs[i].arrival, 0u);
        EXPECT_EQ(snap.jobs[i].admitted, 0u);
    }
    EXPECT_EQ(snap.aggregate.execTime, snap.makespan);
    // Regions laid out back to back in submission order.
    EXPECT_EQ(snap.jobs[0].basePage, 0u);
    EXPECT_EQ(snap.jobs[1].basePage, snap.jobs[0].pages);

    // Deterministic: a repeat batch is identical.
    const DeviceSnapshot again = drainStreams(twoStreams());
    for (std::size_t i = 0; i < 2; ++i)
        expectSameResult(snap.jobs[i].result, again.jobs[i].result);
    expectSameResult(snap.aggregate, again.aggregate);
    EXPECT_EQ(snap.makespan, again.makespan);
    EXPECT_EQ(snap.eventsFired, again.eventsFired);
}

TEST(Device, SingleJobReproducesSingleStreamEngineRun)
{
    // A waited-on job (advanced one event at a time) matches the
    // same job run as a one-job batch (drained to quiescence).
    auto prog = chainProgram("solo", 32);
    expectSameResult(waitOneJob(prog, "Conduit"),
                     batchOneJob(prog, "Conduit"));
}

TEST(Device, IdealPolicyJobMatchesEngineRun)
{
    auto prog = chainProgram("ideal", 16);
    const RunResult waited = waitOneJob(prog, "Ideal");
    expectSameResult(waited, batchOneJob(prog, "Ideal"));
    // Ideal mode bypasses movement and the offloader entirely.
    EXPECT_EQ(waited.offloaderBusy, 0u);
    EXPECT_EQ(waited.internalDmBusy, 0u);
}

// ------------------------------------------------ arrival semantics

TEST(Device, StaggeredArrivalsAreDeterministicAcrossRepeats)
{
    const auto runOnce = [] {
        Device dev(testDeviceOptions());
        auto prog = chainProgram("j", 16);
        for (int i = 0; i < 4; ++i) {
            JobSpec job;
            job.program = prog;
            job.arrival = static_cast<Tick>(i) * usToTicks(200);
            dev.submit(job);
        }
        return dev.drain();
    };
    const DeviceSnapshot a = runOnce();
    const DeviceSnapshot b = runOnce();
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        expectSameResult(a.jobs[i].result, b.jobs[i].result);
        EXPECT_EQ(a.jobs[i].end, b.jobs[i].end);
    }
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.eventsFired, b.eventsFired);
}

TEST(Device, LoadSweepIsThreadCountInvariant)
{
    std::vector<runner::Scenario> cells;
    for (double rate : {500.0, 2000.0}) {
        DeviceOptions device;
        device.config = testCfg();
        device.workload.scale = 0.25;
        runner::Tenant aes;
        aes.name = "AES";
        aes.workloadId = WorkloadId::Aes;
        runner::Offer offer;
        offer.jobs = 3;
        offer.jobsPerSec = rate;
        cells.push_back(runner::loadScenario(device, aes, offer));
    }
    runner::SweepRunner serial({1}), parallel({4});
    const auto r1 = serial.runAll(cells);
    const auto rN = parallel.runAll(cells);
    ASSERT_EQ(r1.size(), rN.size());
    for (std::size_t c = 0; c < r1.size(); ++c) {
        const DeviceSnapshot &a = r1[c].devices.front();
        const DeviceSnapshot &b = rN[c].devices.front();
        ASSERT_EQ(a.jobs.size(), b.jobs.size());
        for (std::size_t j = 0; j < a.jobs.size(); ++j)
            expectSameResult(a.jobs[j].result, b.jobs[j].result);
        EXPECT_EQ(a.makespan, b.makespan);
        EXPECT_EQ(a.eventsFired, b.eventsFired);
    }
}

TEST(Device, LateArrivalNeverStartsBeforeItsTick)
{
    Device dev(testDeviceOptions());
    auto prog = chainProgram("late", 8);
    JobSpec early;
    early.program = prog;
    dev.submit(early);
    JobSpec late;
    late.program = prog;
    late.arrival = msToTicks(5);
    const JobId lateId = dev.submit(late);
    const JobResult &r = dev.wait(lateId);
    EXPECT_EQ(r.arrival, msToTicks(5));
    EXPECT_GE(r.admitted, r.arrival);
    EXPECT_GT(r.end, r.arrival);
}

TEST(Device, ColocatedArrivalsContendButBothComplete)
{
    // An overlapping arrival inflates the first job's tail vs its
    // isolated run (shared calendars), while both still finish.
    auto prog = chainProgram("hot", 32);
    Device iso(testDeviceOptions());
    JobSpec job;
    job.program = prog;
    const JobId a = iso.submit(job);
    const Tick aloneEnd = iso.wait(a).end;

    Device dev(testDeviceOptions());
    dev.submit(job);
    JobSpec second = job;
    second.arrival = 1; // joins one tick in: full contention
    dev.submit(second);
    const DeviceSnapshot snap = dev.drain();
    EXPECT_GE(snap.jobs[0].end, aloneEnd);
    EXPECT_EQ(snap.jobs.size(), 2u);
}

// ------------------------------------- regions, wait(), admission

TEST(Device, RegionReclamationLetsLaterJobsReusePages)
{
    auto prog = chainProgram("re", 8);
    DeviceOptions opts = testDeviceOptions();
    opts.capacityPages = prog->footprintPages; // exactly one job fits
    Device dev(opts);
    JobSpec job;
    job.program = prog;
    const JobId first = dev.submit(job);
    EXPECT_EQ(dev.wait(first).basePage, 0u);

    // The first job retired, so its region is free again — a job
    // submitted after the simulation advanced reuses page 0.
    const JobId second = dev.submit(job);
    const JobResult &r2 = dev.wait(second);
    EXPECT_EQ(r2.basePage, 0u);
    EXPECT_GT(r2.arrival, 0u); // clamped to the advanced clock
    EXPECT_GT(r2.end, dev.wait(first).end);
}

TEST(Device, BoundedPoolQueuesAdmissionUntilSpaceFrees)
{
    auto prog = chainProgram("q", 8);
    DeviceOptions opts = testDeviceOptions();
    opts.capacityPages = prog->footprintPages;
    opts.retire = RetirePolicy::OnComplete;
    Device dev(opts);
    JobSpec job;
    job.program = prog;
    dev.submit(job);
    dev.submit(job); // cannot fit until the first retires
    const DeviceSnapshot snap = dev.drain();
    ASSERT_EQ(snap.jobs.size(), 2u);
    EXPECT_EQ(snap.jobs[0].basePage, 0u);
    EXPECT_EQ(snap.jobs[1].basePage, 0u); // reused the freed region
    EXPECT_GT(snap.jobs[1].admitted, snap.jobs[1].arrival);
    // The region frees only once the first job's result drain
    // finishes in simulated time — the successor cannot run on
    // pages whose previous contents are still streaming out.
    EXPECT_GE(snap.jobs[1].admitted, snap.jobs[0].end);
    EXPECT_GT(snap.jobs[1].end, snap.jobs[0].end);
}

TEST(Device, WaitOnCompletedJobReturnsImmediatelyAndStably)
{
    Device dev(testDeviceOptions());
    JobSpec job;
    job.program = chainProgram("w", 8);
    const JobId id = dev.submit(job);
    const JobResult r1 = dev.wait(id);
    const Tick before = dev.now();
    const JobResult r2 = dev.wait(id); // already retired: no advance
    EXPECT_EQ(dev.now(), before);
    expectSameResult(r1.result, r2.result);
    EXPECT_EQ(r1.end, r2.end);

    dev.drain(); // drain after wait is fine too
    const JobResult r3 = dev.wait(id);
    EXPECT_EQ(r3.end, r1.end);
}

TEST(Device, WaitOnUnknownJobThrows)
{
    Device dev(testDeviceOptions());
    EXPECT_THROW(dev.wait(0), std::out_of_range);
    EXPECT_THROW(dev.wait(7), std::out_of_range);
}

TEST(Device, JobThatCanNeverFitThrows)
{
    auto prog = chainProgram("big", 8);
    DeviceOptions opts = testDeviceOptions();
    opts.capacityPages = prog->footprintPages / 2;
    Device dev(opts);
    JobSpec job;
    job.program = prog;
    const JobId id = dev.submit(job);
    EXPECT_THROW(dev.wait(id), std::runtime_error);
}

TEST(Device, SubmitWithoutWorkloadOrProgramThrows)
{
    Device dev(testDeviceOptions());
    EXPECT_THROW(dev.submit(JobSpec{}), std::invalid_argument);
}

TEST(Device, SubmitRejectsOperandOutsideFootprint)
{
    // An operand past the footprint would address pages of another
    // job's region (or past the FTL's logical range).
    auto program = [](Operand src, Operand dst) {
        auto prog = std::make_shared<Program>();
        prog->name = "stray";
        prog->footprintPages = 8;
        VecInstruction vi;
        vi.op = OpCode::Add;
        vi.elemBits = 8;
        vi.lanes = 4096;
        vi.srcs = {Operand{0, 1}, src};
        vi.dst = dst;
        prog->instrs.push_back(vi);
        return prog;
    };
    auto submit = [](std::shared_ptr<const Program> prog) {
        Device dev(testDeviceOptions());
        JobSpec job;
        job.program = std::move(prog);
        return dev.submit(job);
    };
    EXPECT_THROW(submit(program({100, 1}, {7, 1})),
                 std::invalid_argument);
    EXPECT_THROW(submit(program({6, 3}, {7, 1})), std::invalid_argument);
    EXPECT_THROW(submit(program({1, 1}, {7, 2})), std::invalid_argument);
    EXPECT_THROW(submit(program({100000000, 1}, {7, 1})),
                 std::invalid_argument);
    // Operands that end exactly at the footprint are inside it.
    EXPECT_EQ(submit(program({6, 2}, {7, 1})), 1u);
}

TEST(Device, WorkloadJobsCompileThroughTheDeviceCache)
{
    DeviceOptions opts = testDeviceOptions();
    opts.workload.scale = 0.25;
    Device dev(opts);
    JobSpec job;
    job.workload = WorkloadId::Aes;
    const JobId id = dev.submit(job);
    const JobResult &r = dev.wait(id);
    EXPECT_EQ(r.result.workload, workloadName(WorkloadId::Aes));
    EXPECT_GT(r.result.execTime, 0u);
}

// -------------------------------------------------- RegionAllocator

TEST(RegionAllocator, FirstFitAndCoalescing)
{
    RegionAllocator alloc(100);
    const auto a = alloc.allocate(40);
    const auto b = alloc.allocate(40);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*a, 0u);
    EXPECT_EQ(*b, 40u);
    EXPECT_FALSE(alloc.allocate(40)); // only 20 left
    alloc.release(*a, 40);
    const auto c = alloc.allocate(30);
    ASSERT_TRUE(c);
    EXPECT_EQ(*c, 0u); // first fit reuses the freed head
    alloc.release(*b, 40);
    alloc.release(*c, 30);
    // Everything free again and coalesced: a full-size region fits.
    const auto d = alloc.allocate(100);
    ASSERT_TRUE(d);
    EXPECT_EQ(*d, 0u);
    EXPECT_EQ(alloc.inUse(), 100u);
}

TEST(RegionAllocator, DoubleFreeThrows)
{
    RegionAllocator alloc(10);
    const auto a = alloc.allocate(4);
    ASSERT_TRUE(a);
    alloc.release(*a, 4);
    EXPECT_THROW(alloc.release(*a, 4), std::logic_error);
}

// ------------------------------------------------ arrival processes

TEST(Arrivals, PoissonIsDeterministicPerSeed)
{
    PoissonArrivals a(1e6, 42), b(1e6, 42), c(1e6, 43);
    const auto sa = a.schedule(64);
    const auto sb = b.schedule(64);
    EXPECT_EQ(sa, sb);
    EXPECT_NE(sa, c.schedule(64));
    for (std::size_t i = 1; i < sa.size(); ++i)
        EXPECT_GE(sa[i], sa[i - 1]); // cumulative times are monotone
}

TEST(Arrivals, PoissonMeanApproximatesRate)
{
    PoissonArrivals p = PoissonArrivals::fromRate(1000.0, 7);
    const auto times = p.schedule(4000);
    const double meanGap = ticksToSeconds(times.back()) / 4000.0;
    EXPECT_NEAR(meanGap, 1.0 / 1000.0, 0.1 / 1000.0);
}

TEST(Arrivals, FixedUniformAndTraceBehave)
{
    FixedArrivals f(100);
    EXPECT_EQ(f.next(), 100u);
    EXPECT_EQ(f.schedule(3), (std::vector<Tick>{100, 200, 300}));

    UniformArrivals u(50, 150, 9);
    for (int i = 0; i < 100; ++i) {
        const Tick g = u.next();
        EXPECT_GE(g, 50u);
        EXPECT_LE(g, 150u);
    }

    TraceArrivals t({10, 20});
    EXPECT_EQ(t.next(), 10u);
    EXPECT_EQ(t.next(), 20u);
    EXPECT_EQ(t.next(), 10u); // cycles
    EXPECT_THROW(TraceArrivals({}), std::invalid_argument);
}

TEST(Arrivals, KindNamesRoundTrip)
{
    for (ArrivalKind k : {ArrivalKind::Fixed, ArrivalKind::Uniform,
                          ArrivalKind::Poisson}) {
        ArrivalKind parsed;
        ASSERT_TRUE(parseArrivalKind(arrivalKindName(k), parsed));
        EXPECT_EQ(parsed, k);
    }
    ArrivalKind out;
    EXPECT_FALSE(parseArrivalKind("bursty", out));
}

} // namespace
} // namespace conduit
