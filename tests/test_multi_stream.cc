/**
 * @file
 * Tests for the event-driven multi-stream engine: determinism of
 * co-run streams across repeat executions, equivalence of the
 * facade's single-stream entry point with a one-element multi-stream
 * run, cross-tenant contention visibility, aggregate accounting, and
 * the Simulation facade's tenant API. Every multi-stream run is a set
 * of tick-0 jobs on a fresh Device (runStreamsOnDevice).
 */

#include <gtest/gtest.h>

#include "src/core/device.hh"
#include "src/core/simulation.hh"

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

/** Co-run @p streams as tick-0 jobs on one fresh Device. */
sched::MultiRunResult
runStreams(std::vector<sched::StreamSpec> streams,
           const SsdConfig &cfg = testCfg())
{
    DeviceOptions dopts;
    dopts.config = cfg;
    return runStreamsOnDevice(dopts, std::move(streams));
}

/** Run @p prog alone under a fresh @p policy. */
RunResult
runAlone(const std::shared_ptr<const Program> &prog,
         const std::string &policy = "Conduit")
{
    std::vector<sched::StreamSpec> streams(1);
    streams[0].program = prog;
    streams[0].policy = makePolicy(policy);
    return runStreams(std::move(streams)).streams.front();
}

std::vector<sched::StreamSpec>
twoStreams()
{
    std::vector<sched::StreamSpec> streams(2);
    streams[0].name = "tenantA";
    streams[0].program = chainProgram("a", 24, OpCode::Add);
    streams[0].policy = makePolicy("Conduit");
    streams[1].name = "tenantB";
    streams[1].program = chainProgram("b", 24, OpCode::Xor);
    streams[1].policy = makePolicy("DM-Offloading");
    return streams;
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
    auto r1 = runStreams(twoStreams());
    auto r2 = runStreams(twoStreams());
    ASSERT_EQ(r1.streams.size(), 2u);
    ASSERT_EQ(r2.streams.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        expectSameResult(r1.streams[i], r2.streams[i]);
    EXPECT_EQ(r1.makespan, r2.makespan);
    EXPECT_EQ(r1.eventsFired, r2.eventsFired);
}

TEST(MultiStream, OneStreamRunMatchesSingleStreamOverload)
{
    // The facade's single-stream entry point (one waited-on job)
    // matches a one-element multi-stream run (a drained batch).
    auto prog = chainProgram("solo", 32);
    SimOptions so;
    so.config = testCfg();
    Simulation sim(so);
    ConduitPolicy pol;
    RunResult s = sim.runProgram(*prog, pol);

    std::vector<sched::StreamSpec> streams(1);
    streams[0].program = prog;
    streams[0].policy = makePolicy("Conduit");
    auto m = runStreams(std::move(streams));
    ASSERT_EQ(m.streams.size(), 1u);
    expectSameResult(s, m.streams.front());
    EXPECT_EQ(m.makespan, s.execTime);
}

TEST(MultiStream, ColocationSlowsStreamsViaSharedCalendars)
{
    auto prog = chainProgram("hot", 32);
    const RunResult alone = runAlone(prog);

    std::vector<sched::StreamSpec> streams(2);
    streams[0].name = "first";
    streams[0].program = prog;
    streams[0].policy = makePolicy("Conduit");
    streams[1].name = "second";
    streams[1].program = prog;
    streams[1].policy = makePolicy("Conduit");
    auto m = runStreams(std::move(streams));

    // Contention can only delay a stream, never speed it up — and
    // with two identical tenants on one device at least one must
    // queue behind the other.
    EXPECT_GE(m.streams[0].execTime, alone.execTime);
    EXPECT_GE(m.streams[1].execTime, alone.execTime);
    EXPECT_GT(m.makespan, alone.execTime);
}

TEST(MultiStream, PoliciesSeeCrossTenantContention)
{
    // The queue/bandwidth CostFeatures are live calendar views, so a
    // co-run changes what a cost-based policy observes; at minimum
    // the per-stream latency tail shifts versus isolation.
    auto prog = chainProgram("tail", 48);
    const RunResult alone = runAlone(prog);

    std::vector<sched::StreamSpec> streams(2);
    streams[0].program = prog;
    streams[0].policy = makePolicy("Conduit");
    streams[1].program = prog;
    streams[1].policy = makePolicy("Conduit");
    auto m = runStreams(std::move(streams));
    const double isoP99 = alone.latencyUs.percentile(99);
    const double coloP99 =
        std::max(m.streams[0].latencyUs.percentile(99),
                 m.streams[1].latencyUs.percentile(99));
    EXPECT_GE(coloP99, isoP99);
}

TEST(MultiStream, AggregateSumsPerStreamCounters)
{
    auto m = runStreams(twoStreams());
    const RunResult &agg = m.aggregate;
    EXPECT_EQ(agg.instrCount,
              m.streams[0].instrCount + m.streams[1].instrCount);
    EXPECT_EQ(agg.latencyUs.count(), m.streams[0].latencyUs.count() +
                                         m.streams[1].latencyUs.count());
    for (std::size_t i = 0; i < kNumTargets; ++i)
        EXPECT_EQ(agg.perResource[i], m.streams[0].perResource[i] +
                                          m.streams[1].perResource[i]);
    EXPECT_DOUBLE_EQ(agg.energyJ(),
                     m.streams[0].energyJ() + m.streams[1].energyJ());
    EXPECT_EQ(agg.execTime, m.makespan);
    EXPECT_EQ(agg.workload, "tenantA+tenantB");
}

TEST(MultiStream, StreamsOccupyDisjointPageRegions)
{
    // Two streams writing "their" page 0 must not alias: each
    // stream's results are those of its own program, so both
    // complete all instructions and report independent counters.
    std::vector<sched::StreamSpec> streams(2);
    streams[0].program = chainProgram("x", 8);
    streams[0].policy = makePolicy("Conduit");
    streams[1].program = chainProgram("y", 16);
    streams[1].policy = makePolicy("Conduit");
    auto m = runStreams(std::move(streams));
    EXPECT_EQ(m.streams[0].instrCount, 8u);
    EXPECT_EQ(m.streams[1].instrCount, 16u);
}

TEST(MultiStream, CombinedFootprintBeyondCapacityRejected)
{
    SsdConfig cfg = testCfg();
    auto prog = std::make_shared<Program>();
    *prog = *chainProgram("big", 2);
    prog->footprintPages = cfg.nand.totalPages() / 2 + 1;
    std::vector<sched::StreamSpec> streams(2);
    streams[0].program = prog;
    streams[0].policy = makePolicy("Conduit");
    streams[1].program = prog;
    streams[1].policy = makePolicy("Conduit");
    EXPECT_THROW(runStreams(std::move(streams), cfg),
                 std::invalid_argument);
}

TEST(MultiStream, MissingProgramOrPolicyRejected)
{
    std::vector<sched::StreamSpec> none;
    EXPECT_THROW(runStreams(std::move(none)), std::invalid_argument);

    std::vector<sched::StreamSpec> broken(1);
    broken[0].program = chainProgram("z", 2);
    EXPECT_THROW(runStreams(std::move(broken)), std::invalid_argument);
}

TEST(MultiStream, FacadeTenantsRunDeterministically)
{
    SimOptions opts;
    opts.workload.scale = 1.0 / 64.0;
    const std::vector<Simulation::Tenant> tenants = {
        {WorkloadId::Aes, "Conduit"},
        {WorkloadId::Jacobi1d, "DM-Offloading"},
    };
    Simulation sim1(opts), sim2(opts);
    auto m1 = sim1.runMulti(tenants);
    auto m2 = sim2.runMulti(tenants);
    ASSERT_EQ(m1.streams.size(), 2u);
    for (std::size_t i = 0; i < m1.streams.size(); ++i)
        expectSameResult(m1.streams[i], m2.streams[i]);
    EXPECT_EQ(m1.makespan, m2.makespan);
}

} // namespace
} // namespace conduit
