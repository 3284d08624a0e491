/**
 * @file
 * Tests for the simulated-time tracing subsystem (src/trace).
 *
 * The contracts under test, in order of importance:
 *
 *  1. Observation is free of side effects: a traced sweep's simulated
 *     outputs (CSV and JSON result rows) are byte-identical to the
 *     untraced sweep's.
 *  2. Trace files themselves are deterministic: bit-identical across
 *     host thread counts and across repeats.
 *  3. Spans are well-formed: end >= start everywhere, job admission
 *     inside the job span, instruction targets in range.
 *  4. Trace buffers are not simulated state: a DeviceImage never
 *     carries a tracer, so a forked device starts with an empty
 *     trace.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "src/cluster/cluster.hh"
#include "src/core/arrival.hh"
#include "src/core/device.hh"
#include "src/runner/sweep_cli.hh"
#include "src/trace/export.hh"
#include "src/trace/trace.hh"

namespace conduit
{
namespace
{

using runner::RunMatrix;
using runner::SweepOptions;
using runner::SweepResult;
using runner::SweepRunner;

/** A small real matrix, host baseline included (untraceable cell). */
RunMatrix
traceMatrix()
{
    RunMatrix m;
    m.workloads({WorkloadId::Aes, WorkloadId::Jacobi1d})
        .technique("CPU")
        .techniques({"ISP", "Conduit"});
    return m;
}

SweepOptions
tracedOptions(unsigned threads)
{
    SweepOptions opts;
    opts.threads = threads;
    opts.trace.categories = trace::kAllCategories;
    return opts;
}

/** The sweep's result rows rendered to bytes (CSV + JSON). */
std::string
resultBytes(const SweepResult &sweep)
{
    std::ostringstream csv, json;
    sweep.writeCsv(csv);
    sweep.writeJson(json);
    return csv.str() + "" + json.str();
}

// --------------------------------------- observation is side-effect-free

TEST(Trace, TracedSweepOutputsAreByteIdenticalToUntraced)
{
    SweepRunner plain(SweepOptions{});
    SweepRunner traced(tracedOptions(0));

    const std::string without = resultBytes(plain.run(traceMatrix().build()));
    const std::string with = resultBytes(traced.run(traceMatrix().build()));
    EXPECT_EQ(without, with);

    // And the traced run actually recorded something.
    std::size_t events = 0;
    for (const trace::TraceCell &c : traced.lastTraces())
        if (c.tracer)
            events += c.tracer->events().size();
    EXPECT_GT(events, 0u);
}

// ----------------------------------------------- trace determinism

TEST(Trace, TraceFilesAreBitIdenticalAcrossThreadCounts)
{
    SweepRunner serial(tracedOptions(1));
    SweepRunner pooled(tracedOptions(4));

    serial.run(traceMatrix().build());
    pooled.run(traceMatrix().build());

    EXPECT_EQ(trace::toCsv(serial.lastTraces()),
              trace::toCsv(pooled.lastTraces()));
    EXPECT_EQ(trace::toJson(serial.lastTraces()),
              trace::toJson(pooled.lastTraces()));
}

TEST(Trace, TraceFilesAreBitIdenticalAcrossRepeats)
{
    SweepRunner runner(tracedOptions(0));
    runner.run(traceMatrix().build());
    const std::string first = trace::toCsv(runner.lastTraces());
    const std::string firstJson = trace::toJson(runner.lastTraces());
    runner.run(traceMatrix().build());
    EXPECT_EQ(first, trace::toCsv(runner.lastTraces()));
    EXPECT_EQ(firstJson, trace::toJson(runner.lastTraces()));
}

TEST(Trace, FilterKeepsOnlyRequestedCategories)
{
    // Occupancy only: every event must carry that category, even
    // though every run() cell also emits Job spans and admission
    // samples when those categories are enabled.
    SweepOptions opts;
    opts.trace.categories =
        static_cast<std::uint32_t>(trace::Category::Occupancy);
    SweepRunner runner(opts);
    runner.run(traceMatrix().build());

    std::size_t instrs = 0;
    for (const trace::TraceCell &c : runner.lastTraces()) {
        if (!c.tracer)
            continue;
        for (const trace::Event &e : c.tracer->events()) {
            EXPECT_EQ(e.cat, trace::Category::Occupancy);
            instrs += e.kind == trace::EventKind::Instr;
        }
    }
    EXPECT_GT(instrs, 0u);
}

TEST(Trace, ParseCategoriesRoundTripsAndRejectsUnknown)
{
    EXPECT_EQ(trace::parseCategories(""), trace::kAllCategories);
    EXPECT_EQ(trace::parseCategories("job"),
              static_cast<std::uint32_t>(trace::Category::Job));
    EXPECT_EQ(trace::parseCategories("job,queue"),
              static_cast<std::uint32_t>(trace::Category::Job) |
                  static_cast<std::uint32_t>(trace::Category::Queue));
    EXPECT_FALSE(trace::parseCategories("job,nope").has_value());
}

// ------------------------------------------------- well-formedness

TEST(Trace, SpansAreWellFormed)
{
    SweepRunner runner(tracedOptions(0));
    runner.run(traceMatrix().build());

    std::size_t spans = 0;
    for (const trace::TraceCell &c : runner.lastTraces()) {
        if (!c.tracer)
            continue;
        for (const trace::Event &e : c.tracer->events()) {
            ++spans;
            EXPECT_GE(e.end, e.start);
            switch (e.kind) {
              case trace::EventKind::Job:
                // Admission happens inside the job's lifecycle span.
                EXPECT_GE(e.b, e.start);
                EXPECT_LE(e.b, e.end);
                break;
              case trace::EventKind::Instr:
                // c = target resource (Isp/Pud/Ifp).
                EXPECT_LT(e.c, 3u);
                break;
              case trace::EventKind::Scrub:
              case trace::EventKind::BacklogSample:
              case trace::EventKind::JobQueueSample:
              case trace::EventKind::Placement:
                // Instants carry start == end.
                EXPECT_EQ(e.start, e.end);
                break;
              default:
                break;
            }
            // Every tag index resolves (intern table is complete).
            EXPECT_LT(e.str, c.tracer->strings().size());
        }
    }
    EXPECT_GT(spans, 0u);
}

// --------------------------------------- snapshots exclude tracing

/** Serial chain over disjoint page-sized vectors (see test_engine). */
std::shared_ptr<const Program>
chainProgram(std::size_t n)
{
    auto prog = std::make_shared<Program>();
    prog->name = "trace";
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

JobSpec
traceJob(const std::shared_ptr<const Program> &prog, Tick arrival)
{
    JobSpec job;
    job.name = prog->name;
    job.program = prog;
    job.policyObj =
        std::shared_ptr<OffloadPolicy>(makePolicy("Conduit"));
    job.arrival = arrival;
    return job;
}

TEST(Trace, DeviceImageCarriesNoTracerAndForkStartsEmpty)
{
    auto prog = chainProgram(8);

    trace::TraceConfig cfg;
    cfg.categories = trace::kAllCategories;

    DeviceOptions opts;
    opts.config = SsdConfig::scaled(1.0 / 256.0);
    opts.tracer = std::make_shared<trace::Tracer>(cfg);

    Device dev(opts);
    dev.submit(traceJob(prog, 0));
    dev.drain();
    EXPECT_GT(opts.tracer->events().size(), 0u);

    // The image must not capture the tracer: trace buffers are
    // observation, not simulated state.
    const DeviceImage img = dev.snapshot();
    EXPECT_EQ(img.options.tracer, nullptr);

    // A fork therefore records nothing...
    const std::size_t before = opts.tracer->events().size();
    Device fork = Device::fromImage(img);
    fork.submit(traceJob(prog, fork.now()));
    fork.drain();
    EXPECT_EQ(opts.tracer->events().size(), before);

    // ...until its own (fresh, empty) tracer is attached.
    auto forkTracer = std::make_shared<trace::Tracer>(cfg);
    Device fork2 = Device::fromImage(img);
    fork2.setTracer(forkTracer, 0);
    EXPECT_TRUE(forkTracer->events().empty());
    EXPECT_EQ(fork2.submit(traceJob(prog, fork2.now())), 1u);
    fork2.drain();
    EXPECT_GT(forkTracer->events().size(), 0u);

    // The fork's job list restarts at id 1, but its trace numbers the
    // job after the one the image's device served, as the continued
    // device's trace would.
    std::vector<std::uint64_t> numbers;
    for (const trace::Event &e : forkTracer->events())
        if (e.kind == trace::EventKind::Job)
            numbers.push_back(e.a);
    EXPECT_EQ(numbers, (std::vector<std::uint64_t>{2}));
}

TEST(Trace, SingleDeviceFleetRecordsNoPlacement)
{
    // A one-device fleet decides nothing, so it records no placement
    // event and its trace stays the bare Device's; a real fleet
    // records one decision per routed job.
    auto prog = chainProgram(4);
    const auto placements = [&](std::size_t devices) {
        trace::TraceConfig cfg;
        cfg.categories = trace::kAllCategories;
        cluster::ClusterOptions opts;
        opts.tracer = std::make_shared<trace::Tracer>(cfg);
        DeviceOptions dev;
        dev.config = SsdConfig::scaled(1.0 / 256.0);
        opts.devices.assign(devices, {dev, nullptr});
        const auto tracer = opts.tracer;
        cluster::Cluster fleet(std::move(opts),
                               cluster::makePlacement("round-robin"));
        for (int i = 0; i < 3; ++i)
            fleet.submit(traceJob(prog, usToTicks(10.0 * i)));
        fleet.drain();
        std::size_t n = 0;
        for (const trace::Event &e : tracer->events())
            n += e.kind == trace::EventKind::Placement;
        EXPECT_GT(tracer->events().size(), 0u);
        return n;
    };
    EXPECT_EQ(placements(1), 0u);
    EXPECT_EQ(placements(2), 3u);
}

TEST(Trace, UntracedCellsExportNothing)
{
    SweepRunner runner(SweepOptions{});
    runner.run(traceMatrix().build());
    // Tracing disabled: the per-cell slots exist (indices line up
    // with the sweep) but hold no tracers, and the exporters emit
    // only their fixed headers.
    for (const trace::TraceCell &c : runner.lastTraces())
        EXPECT_EQ(c.tracer, nullptr);
    EXPECT_EQ(trace::toCsv(runner.lastTraces()),
              "cell,device,cat,kind,lane,start_ps,end_ps,a,b,c,tag\n");
}

} // namespace
} // namespace conduit
