/**
 * @file
 * Unit tests for the parallel sweep-runner subsystem and the
 * event-queue determinism its reproducibility contract rests on.
 *
 * The headline property: a sweep executed on 1 thread and on N
 * threads produces identical RunResults per spec — verified both
 * field-by-field and on the byte level through the CSV emitter.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "src/core/arrival.hh"
#include "src/host/host_model.hh"
#include "src/runner/sweep_cli.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/rng.hh"

namespace conduit
{
namespace
{

using runner::HostKind;
using runner::RunMatrix;
using runner::RunSpec;
using runner::SweepOptions;
using runner::SweepResult;
using runner::SweepRunner;

/** A small but real matrix: 2 workloads x (host + 2 policies). */
RunMatrix
smallMatrix()
{
    RunMatrix m;
    m.workloads({WorkloadId::Aes, WorkloadId::Jacobi1d})
        .technique("CPU")
        .techniques({"ISP", "Conduit"});
    return m;
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.instrCount, b.instrCount);
    EXPECT_EQ(a.perResource, b.perResource);
    EXPECT_EQ(a.dmEnergyJ, b.dmEnergyJ);
    EXPECT_EQ(a.computeEnergyJ, b.computeEnergyJ);
    EXPECT_EQ(a.computeBusy, b.computeBusy);
    EXPECT_EQ(a.internalDmBusy, b.internalDmBusy);
    EXPECT_EQ(a.flashReadBusy, b.flashReadBusy);
    EXPECT_EQ(a.hostDmBusy, b.hostDmBusy);
    EXPECT_EQ(a.offloaderBusy, b.offloaderBusy);
    EXPECT_EQ(a.coherenceCommits, b.coherenceCommits);
    EXPECT_EQ(a.latchEvictions, b.latchEvictions);
    EXPECT_EQ(a.latencyUs.count(), b.latencyUs.count());
    if (a.latencyUs.count()) {
        EXPECT_EQ(a.latencyUs.percentile(50), b.latencyUs.percentile(50));
        EXPECT_EQ(a.latencyUs.percentile(99.99),
                  b.latencyUs.percentile(99.99));
    }
}

TEST(SweepRunner, OneThreadAndManyThreadsProduceIdenticalResults)
{
    SweepRunner serial(SweepOptions{1});
    SweepRunner parallel(SweepOptions{4});

    const SweepResult a = serial.run(smallMatrix().build());
    const SweepResult b = parallel.run(smallMatrix().build());

    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 0u);
    EXPECT_EQ(a.threads(), 1u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.spec(i).workload, b.spec(i).workload);
        EXPECT_EQ(a.spec(i).technique, b.spec(i).technique);
        expectSameResult(a.result(i), b.result(i));
    }
}

TEST(SweepRunner, CsvRowsAreByteIdenticalAcrossThreadCounts)
{
    SweepRunner serial(SweepOptions{1});
    SweepRunner parallel(SweepOptions{4});

    std::ostringstream csv1, csvN, json1, jsonN;
    serial.run(smallMatrix().build()).writeCsv(csv1);
    parallel.run(smallMatrix().build()).writeCsv(csvN);
    serial.run(smallMatrix().build()).writeJson(json1);
    parallel.run(smallMatrix().build()).writeJson(jsonN);

    EXPECT_EQ(csv1.str(), csvN.str());
    EXPECT_EQ(json1.str(), jsonN.str());
    EXPECT_NE(csv1.str().find("\"AES\",\"Conduit\""),
              std::string::npos);
}

TEST(SweepRunner, RepeatedSweepsAreDeterministic)
{
    SweepRunner runner(SweepOptions{0}); // hardware concurrency
    const SweepResult a = runner.run(smallMatrix().build());
    const SweepResult b = runner.run(smallMatrix().build());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectSameResult(a.result(i), b.result(i));
}

TEST(SweepRunner, MatchesTheSimulationFacade)
{
    // A matrix cell and one job waited on a bare default Device must
    // agree run-for-run.
    Device dev;
    JobSpec job;
    job.workload = WorkloadId::Aes;
    const RunResult bare = dev.wait(dev.submit(job)).result;

    RunMatrix m;
    m.workload(WorkloadId::Aes).technique("Conduit");
    const SweepResult sweep = SweepRunner().run(m.build());
    expectSameResult(bare, sweep.at("AES", "Conduit"));
}

TEST(SweepRunner, PerCellEventsMatchABareDeviceJob)
{
    // A RunMatrix cell is one tick-0 job on a fresh Device, so its
    // attributed event count is that Device's; host baselines have
    // no event kernel and fire none.
    SweepOptions opts;
    opts.threads = 2;
    SweepRunner runner(opts);
    const std::vector<RunSpec> specs = smallMatrix().build();
    runner.run(specs);
    const runner::SweepPerf perf = runner.lastPerf();
    ASSERT_EQ(perf.perCell.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &spec = specs[i];
        SCOPED_TRACE(spec.workload + "/" + spec.technique);
        if (spec.technique == "CPU") {
            EXPECT_EQ(perf.perCell[i].eventsFired, 0u);
            continue;
        }
        Device dev(makeDeviceOptions(runner::defaultSweepConfig(),
                                     EngineOptions{}, spec.params));
        JobSpec job;
        job.workload = spec.workloadId;
        job.policy = spec.technique;
        dev.submit(job);
        const DeviceSnapshot snap = dev.drain();
        EXPECT_GT(snap.eventsFired, 0u);
        EXPECT_EQ(perf.perCell[i].eventsFired, snap.eventsFired);
    }
}

TEST(SweepRunner, HostKindRunsBaselineUnderCustomLabel)
{
    RunMatrix m;
    m.workload(WorkloadId::Aes).hostTechnique("OSP", false);
    const SweepResult sweep = SweepRunner().run(m.build());
    // Would throw inside makePolicy("OSP") if the host flag were
    // ignored; instead it must match the CPU baseline's numbers.
    const SsdConfig cfg = runner::defaultSweepConfig();
    const auto aes = ProgramCache().get(WorkloadId::Aes, {}, cfg);
    const HostResult cpu =
        HostModel(cfg, HostModel::Kind::Cpu).run(aes->program);
    EXPECT_EQ(sweep.at("AES", "OSP").execTime, cpu.totalTime);
}

TEST(SweepRunner, SpecWithoutProgramOrWorkloadThrows)
{
    RunSpec bad;
    bad.workload = "broken";
    bad.technique = "Conduit";
    SweepRunner runner;
    EXPECT_THROW(runner.run({bad}), std::invalid_argument);
}

TEST(RunMatrix, CrossProductIsWorkloadMajorAndFilterable)
{
    RunMatrix m;
    m.workloads({WorkloadId::Aes, WorkloadId::XorFilter})
        .techniques({"CPU", "Conduit"});
    const auto specs = m.build();
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].workload, "AES");
    EXPECT_EQ(specs[0].technique, "CPU");
    EXPECT_EQ(specs[1].workload, "AES");
    EXPECT_EQ(specs[1].technique, "Conduit");
    EXPECT_EQ(specs[2].workload, "XOR Filter");

    m.filterWorkloads("AES");
    m.filterTechniques("Conduit");
    const auto filtered = m.build();
    ASSERT_EQ(filtered.size(), 1u);
    EXPECT_EQ(filtered[0].workload, "AES");
    EXPECT_EQ(filtered[0].technique, "Conduit");
}

TEST(ProgramCache, CompilesOnceAndSharesAcrossThreads)
{
    conduit::ProgramCache cache;
    const SsdConfig cfg = runner::defaultSweepConfig();
    const WorkloadParams params;

    std::vector<std::shared_ptr<const VectorizedProgram>> got(8);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            got[t] = cache.get(WorkloadId::Jacobi1d, params, cfg);
        });
    for (auto &t : threads)
        t.join();

    for (std::size_t t = 1; t < got.size(); ++t)
        EXPECT_EQ(got[0].get(), got[t].get());
    EXPECT_EQ(cache.size(), 1u);

    WorkloadParams bigger;
    bigger.scale = 2.0;
    EXPECT_NE(cache.get(WorkloadId::Jacobi1d, bigger, cfg).get(),
              got[0].get());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(SweepResult, LookupAndLabels)
{
    const SweepResult sweep =
        SweepRunner(SweepOptions{2}).run(smallMatrix().build());
    EXPECT_EQ(sweep.workloadLabels(),
              (std::vector<std::string>{"AES", "jacobi-1d"}));
    EXPECT_EQ(sweep.techniqueLabels(),
              (std::vector<std::string>{"CPU", "ISP", "Conduit"}));
    EXPECT_NE(sweep.find("AES", "ISP"), nullptr);
    EXPECT_EQ(sweep.find("AES", "nope"), nullptr);
    EXPECT_THROW(sweep.at("AES", "nope"), std::out_of_range);
    EXPECT_GT(sweep.at("AES", "CPU").execTime, 0u);
}

TEST(SweepCli, NumericFlagValuesAreStrict)
{
    using runner::parseDoubleFlag;
    using runner::parseUintFlag;
    EXPECT_EQ(parseUintFlag("0", 10), 0u);
    EXPECT_EQ(parseUintFlag("10", 10), 10u);
    EXPECT_EQ(parseUintFlag("4294967295", 4294967295u), 4294967295u);
    // Out of range for the target, or not a plain digit string:
    // strtoul alone would skip the blank and negate the sign.
    for (const char *bad : {"11", "4294967296", " -1", "-1", "+1", " 1",
                            "", "1x", "99999999999999999999"})
        EXPECT_FALSE(parseUintFlag(bad, 10).has_value()) << bad;
    EXPECT_FALSE(parseUintFlag("4294967296", 4294967295u).has_value());

    EXPECT_EQ(parseDoubleFlag("0"), 0.0);
    EXPECT_EQ(parseDoubleFlag("0.25"), 0.25);
    EXPECT_EQ(parseDoubleFlag("1e3"), 1000.0);
    for (const char *bad : {"inf", "nan", "1e400", "-1", " 1", "-0",
                            ".5", "", "1.5x"})
        EXPECT_FALSE(parseDoubleFlag(bad).has_value()) << bad;
}

// ----------------------------------------------------------------
// Scenario builders and the one cell body.
// ----------------------------------------------------------------

TEST(Scenario, LoadBuilderContinuesOneArrivalProcess)
{
    // Warm and measured gaps come from one process: the warm ticks are
    // its first `warm` arrivals, and the measured ticks are the rest,
    // shifted to start at the fork epoch.
    const std::size_t warm = 3, jobs = 5;
    runner::Tenant aes;
    aes.workloadId = WorkloadId::Aes;
    runner::Offer offer;
    offer.jobs = jobs;
    offer.jobsPerSec = 750.0;
    offer.arrivalSeed = 9;
    offer.warmupJobs = warm;
    const runner::Scenario s =
        runner::loadScenario(DeviceOptions{}, aes, offer);

    const std::vector<Tick> full =
        makeArrivals(ArrivalKind::Poisson,
                     static_cast<double>(kPsPerS) / offer.jobsPerSec, 9)
            ->schedule(warm + jobs);
    ASSERT_EQ(s.devices.size(), 1u);
    EXPECT_EQ(s.devices[0].warm.ticks,
              std::vector<Tick>(full.begin(), full.begin() + warm));
    ASSERT_EQ(s.schedule.size(), jobs);
    for (std::size_t k = 0; k < jobs; ++k) {
        EXPECT_EQ(s.schedule[k].at, full[warm + k] - full[warm - 1]) << k;
        EXPECT_EQ(s.schedule[k].tenant, 0u);
    }
    EXPECT_EQ(s.devices[0].options.retire, RetirePolicy::OnComplete);
    EXPECT_EQ(s.label, "AES/Conduit@750jobs/s");
}

TEST(Scenario, BatchBuilderSubmitsEveryTenantAtTickZero)
{
    runner::Tenant a, b;
    a.workloadId = WorkloadId::Aes;
    b.workloadId = WorkloadId::Jacobi1d;
    const runner::Scenario s =
        runner::batchScenario("pair", {DeviceOptions{}, {}}, {a, b});
    ASSERT_EQ(s.schedule.size(), 2u);
    for (std::size_t t = 0; t < 2; ++t) {
        EXPECT_EQ(s.schedule[t].at, 0u);
        EXPECT_EQ(s.schedule[t].tenant, t);
    }
    EXPECT_EQ(s.devices.at(0).options.retire, RetirePolicy::OnQuiesce);
    EXPECT_TRUE(s.devices[0].warm.ticks.empty());
}

TEST(Scenario, BatchCellMatchesABareDeviceDrain)
{
    // A co-location batch scenario and tick-0 jobs drained on a bare
    // Device are the same device lifetime: per-job results agree.
    Device dev;
    JobSpec job;
    job.workload = WorkloadId::Aes;
    dev.submit(job);
    job.workload = WorkloadId::Jacobi1d;
    job.policy = "ISP";
    dev.submit(job);
    const DeviceSnapshot bare = dev.drain();

    runner::Tenant a, b;
    a.workloadId = WorkloadId::Aes;
    b.workloadId = WorkloadId::Jacobi1d;
    b.technique = "ISP";
    DeviceOptions device;
    device.config = runner::defaultSweepConfig();
    const auto snaps = SweepRunner().runAll(
        {runner::batchScenario("pair", {device, {}}, {a, b})});
    const cluster::ClusterSnapshot &snap = snaps.front();
    ASSERT_EQ(snap.routed.size(), bare.jobs.size());
    for (std::size_t i = 0; i < snap.routed.size(); ++i)
        expectSameResult(snap.result(i).result, bare.jobs[i].result);
    EXPECT_EQ(snap.makespan, bare.makespan);
}

TEST(Scenario, RejectsHostBaselineTenants)
{
    runner::Tenant cpu;
    cpu.workloadId = WorkloadId::Aes;
    cpu.technique = "CPU";
    SweepRunner runner;
    EXPECT_THROW(
        runner.runAll({runner::batchScenario("host", {}, {cpu})}),
        std::invalid_argument);
}

// ----------------------------------------------------------------
// EventQueue determinism: the (tick, priority, sequence) ordering
// the runner's reproducibility claim rests on.
// ----------------------------------------------------------------

TEST(EventQueueDeterminism, SequenceBreaksTiesInSchedulingOrder)
{
    EventQueue q;
    std::vector<int> order;
    // Same tick, same priority: must fire in scheduling order even
    // when scheduled interleaved with other ticks.
    q.schedule(50, [&] { order.push_back(1); });
    q.schedule(10, [&] { order.push_back(0); });
    q.schedule(50, [&] { order.push_back(2); });
    q.schedule(50, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueDeterminism, PriorityDominatesSequenceWithinTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(2); }, 1);
    q.schedule(5, [&] { order.push_back(0); }, -1);
    q.schedule(5, [&] { order.push_back(3); }, 1);
    q.schedule(5, [&] { order.push_back(1); }, 0);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueDeterminism, StressOrderingIsReproducible)
{
    // Two queues fed the same pseudo-random schedule must fire the
    // same sequence, including same-tick/priority ties.
    const auto drive = [](EventQueue &q, std::vector<int> &fired) {
        Rng rng(2026);
        for (int i = 0; i < 500; ++i) {
            const Tick when = rng.below(64);
            const int prio = static_cast<int>(rng.below(3));
            q.schedule(when, [&fired, i] { fired.push_back(i); },
                       prio);
        }
        q.run();
    };
    EventQueue q1, q2;
    std::vector<int> f1, f2;
    drive(q1, f1);
    drive(q2, f2);
    EXPECT_EQ(f1.size(), 500u);
    EXPECT_EQ(f1, f2);
}

} // namespace
} // namespace conduit
