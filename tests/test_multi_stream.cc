/**
 * @file
 * Tests for the event-driven multi-stream engine: determinism of
 * co-run streams across repeat executions, cross-tenant contention
 * visibility, aggregate accounting, page-region isolation, and named
 * workload tenants. Every multi-stream run is a set of tick-0 jobs on
 * a fresh Device, drained to quiescence.
 */

#include <gtest/gtest.h>

#include "src/core/device.hh"

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

/** A tick-0 job running @p prog under @p policy, labelled @p name. */
JobSpec
tenant(std::shared_ptr<const Program> prog,
       const std::string &policy = "Conduit", const std::string &name = "")
{
    JobSpec job;
    job.name = name;
    job.program = std::move(prog);
    job.policy = policy;
    return job;
}

/** Co-run @p jobs on one fresh Device and drain it. */
DeviceSnapshot
coRun(const std::vector<JobSpec> &jobs, const SsdConfig &cfg = testCfg())
{
    DeviceOptions dopts;
    dopts.config = cfg;
    Device dev(dopts);
    for (const JobSpec &job : jobs)
        dev.submit(job);
    return dev.drain();
}

/** Run @p prog alone under @p policy. */
RunResult
runAlone(const std::shared_ptr<const Program> &prog,
         const std::string &policy = "Conduit")
{
    return coRun({tenant(prog, policy)}).jobs.front().result;
}

std::vector<JobSpec>
twoStreams()
{
    return {tenant(chainProgram("a", 24, OpCode::Add), "Conduit",
                   "tenantA"),
            tenant(chainProgram("b", 24, OpCode::Xor), "DM-Offloading",
                   "tenantB")};
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

TEST(MultiStream, TwoStreamRunsDeterministicAcrossRepeats)
{
    auto r1 = coRun(twoStreams());
    auto r2 = coRun(twoStreams());
    ASSERT_EQ(r1.jobs.size(), 2u);
    ASSERT_EQ(r2.jobs.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        expectSameResult(r1.jobs[i].result, r2.jobs[i].result);
    EXPECT_EQ(r1.makespan, r2.makespan);
    EXPECT_EQ(r1.eventsFired, r2.eventsFired);
}

TEST(MultiStream, ColocationSlowsStreamsViaSharedCalendars)
{
    auto prog = chainProgram("hot", 32);
    const RunResult alone = runAlone(prog);

    auto m = coRun({tenant(prog, "Conduit", "first"),
                    tenant(prog, "Conduit", "second")});

    // Contention can only delay a stream, never speed it up — and
    // with two identical tenants on one device at least one must
    // queue behind the other.
    EXPECT_GE(m.jobs[0].result.execTime, alone.execTime);
    EXPECT_GE(m.jobs[1].result.execTime, alone.execTime);
    EXPECT_GT(m.makespan, alone.execTime);
}

TEST(MultiStream, PoliciesSeeCrossTenantContention)
{
    // The queue/bandwidth CostFeatures are live calendar views, so a
    // co-run changes what a cost-based policy observes; at minimum
    // the per-stream latency tail shifts versus isolation.
    auto prog = chainProgram("tail", 48);
    const RunResult alone = runAlone(prog);

    auto m = coRun({tenant(prog), tenant(prog)});
    const double isoP99 = alone.latencyUs.percentile(99);
    const double coloP99 =
        std::max(m.jobs[0].result.latencyUs.percentile(99),
                 m.jobs[1].result.latencyUs.percentile(99));
    EXPECT_GE(coloP99, isoP99);
}

TEST(MultiStream, AggregateSumsPerStreamCounters)
{
    auto m = coRun(twoStreams());
    const RunResult &agg = m.aggregate;
    const RunResult &a = m.jobs[0].result;
    const RunResult &b = m.jobs[1].result;
    EXPECT_EQ(agg.instrCount, a.instrCount + b.instrCount);
    EXPECT_EQ(agg.latencyUs.count(),
              a.latencyUs.count() + b.latencyUs.count());
    for (std::size_t i = 0; i < kNumTargets; ++i)
        EXPECT_EQ(agg.perResource[i],
                  a.perResource[i] + b.perResource[i]);
    EXPECT_DOUBLE_EQ(agg.energyJ(), a.energyJ() + b.energyJ());
    EXPECT_EQ(agg.execTime, m.makespan);
    EXPECT_EQ(agg.workload, "tenantA+tenantB");
}

TEST(MultiStream, StreamsOccupyDisjointPageRegions)
{
    // Two streams writing "their" page 0 must not alias: each
    // stream's results are those of its own program, so both
    // complete all instructions and report independent counters.
    auto m = coRun({tenant(chainProgram("x", 8)),
                    tenant(chainProgram("y", 16))});
    EXPECT_EQ(m.jobs[0].result.instrCount, 8u);
    EXPECT_EQ(m.jobs[1].result.instrCount, 16u);
}

TEST(MultiStream, CombinedFootprintBeyondCapacityRejected)
{
    SsdConfig cfg = testCfg();
    auto prog = std::make_shared<Program>();
    *prog = *chainProgram("big", 2);
    prog->footprintPages = cfg.nand.totalPages() / 2 + 1;
    EXPECT_THROW(coRun({tenant(prog), tenant(prog)}, cfg),
                 std::invalid_argument);
}

TEST(MultiStream, FacadeTenantsRunDeterministically)
{
    // Named-workload tenants compile through the device's cache.
    DeviceOptions opts;
    opts.workload.scale = 1.0 / 64.0;
    const auto run = [&opts] {
        Device dev(opts);
        JobSpec job;
        job.workload = WorkloadId::Aes;
        dev.submit(job);
        job.workload = WorkloadId::Jacobi1d;
        job.policy = "DM-Offloading";
        dev.submit(job);
        return dev.drain();
    };
    const DeviceSnapshot m1 = run();
    const DeviceSnapshot m2 = run();
    ASSERT_EQ(m1.jobs.size(), 2u);
    for (std::size_t i = 0; i < m1.jobs.size(); ++i)
        expectSameResult(m1.jobs[i].result, m2.jobs[i].result);
    EXPECT_EQ(m1.makespan, m2.makespan);
}

} // namespace
} // namespace conduit
