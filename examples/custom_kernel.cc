/**
 * @file
 * Programmer-transparency example: bring your own kernel.
 *
 * Shows the full Conduit flow on a user-written application — a
 * database-style bitmap scan with a predicated aggregate — without
 * any offloading annotations: express the kernel as plain loops,
 * let the compile-time stage auto-vectorize it, and run it on the
 * simulated SSD.
 *
 *   ./build/examples/example_custom_kernel
 */

#include <cstdio>

#include "src/core/device.hh"
#include "src/core/transformer.hh"
#include "src/host/host_model.hh"

int
main()
{
    using namespace conduit;

    // --- 1. Write the application as ordinary loops. ---------------
    LoopProgram app;
    app.name = "bitmap-scan";
    const std::uint64_t rows = 2 * 1024 * 1024;
    const ArrayId price = app.addArray("price", rows);
    const ArrayId quantity = app.addArray("quantity", rows);
    const ArrayId bitmap = app.addArray("selected", rows);
    const ArrayId revenue = app.addArray("revenue", rows);
    const ArrayId total = app.addArray("total", 64);

    // SELECT sum(price * quantity) WHERE price < threshold
    Loop scan;
    scan.label = "predicate_scan";
    scan.tripCount = rows;
    scan.body.push_back({OpCode::CmpLt,
                         {{price, 0, 1}, {price, 0, 0}},
                         {bitmap, 0, 1}});
    scan.body.push_back({OpCode::Mul,
                         {{price, 0, 1}, {quantity, 0, 1}},
                         {revenue, 0, 1}});
    scan.body.push_back({OpCode::And,
                         {{revenue, 0, 1}, {bitmap, 0, 1}},
                         {revenue, 0, 1}});
    app.loops.push_back(scan);

    Loop fold;
    fold.label = "aggregate";
    fold.tripCount = rows;
    LoopStmt sum{OpCode::Add, {{revenue, 0, 1}}, {total, 0, 1}};
    sum.reduction = true;
    fold.body.push_back(sum);
    app.loops.push_back(fold);

    // --- 2. Compile-time preprocessing (the "LLVM pass"). ----------
    const DeviceOptions opts; // Table 2 geometry, scaled
    const SsdConfig &cfg = opts.config;
    VectorizeOptions vo;
    vo.vectorLanes = cfg.vectorLanes;
    vo.pageBytes = cfg.nand.pageBytes;
    const auto compiled =
        std::make_shared<const VectorizedProgram>(Vectorizer(vo).run(app));
    const VectorizedProgram &vp = *compiled;
    std::printf("compiled %s: %zu instructions (%llu scalar), "
                "footprint %.1f MiB\n",
                vp.program.name.c_str(), vp.program.instrs.size(),
                static_cast<unsigned long long>(
                    vp.report.scalarInstrs),
                static_cast<double>(vp.program.footprintBytes()) /
                    (1024.0 * 1024.0));
    for (const auto &r : vp.report.remarks)
        std::printf("  %s\n", r.c_str());

    // --- 3. Inspect the instruction transformation (§4.3.2). -------
    InstructionTransformer tx(cfg.nand.pageBytes, cfg.dram.rowBytes,
                              cfg.isp.simdBytes);
    const VecInstruction &first = vp.program.instrs.front();
    std::printf("\nfirst instruction %s lowers to:\n",
                first.toString().c_str());
    for (Target t : {Target::Isp, Target::Pud, Target::Ifp}) {
        auto native = tx.transform(first, t);
        std::printf("  %-8s %-18s x%u sub-ops (%u native lanes)\n",
                    std::string(targetName(t)).c_str(),
                    native.mnemonic.c_str(), native.subOps,
                    native.nativeLanes);
    }

    // --- 4. Run it under the runtime offloader. ---------------------
    std::printf("\n%-16s %12s %12s\n", "engine", "time (ms)",
                "energy (mJ)");
    const HostResult cpu =
        HostModel(cfg, HostModel::Kind::Cpu).run(vp.program);
    std::printf("%-16s %12.3f %12.3f\n", "CPU",
                ticksToSeconds(cpu.totalTime) * 1e3,
                cpu.energyJ() * 1e3);
    for (const char *p : {"DM-Offloading", "Conduit"}) {
        // One job on a fresh SSD per policy.
        Device dev(opts);
        JobSpec job;
        job.program =
            std::shared_ptr<const Program>(compiled, &vp.program);
        job.policy = p;
        const RunResult r = dev.wait(dev.submit(job)).result;
        std::printf("%-16s %12.3f %12.3f\n", p,
                    ticksToSeconds(r.execTime) * 1e3,
                    r.energyJ() * 1e3);
    }
    return 0;
}
