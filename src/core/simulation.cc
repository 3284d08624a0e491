#include "src/core/simulation.hh"

namespace conduit
{

namespace
{

VectorizeOptions
vecOptionsFor(const SsdConfig &cfg)
{
    VectorizeOptions vo;
    vo.vectorLanes = cfg.vectorLanes;
    vo.pageBytes = cfg.nand.pageBytes;
    return vo;
}

DeviceOptions
deviceOptionsFor(const SimOptions &opts)
{
    return makeDeviceOptions(opts.config, opts.engine, opts.workload);
}

} // namespace

Simulation::Simulation(SimOptions opts)
    : opts_(std::move(opts)), vectorizer_(vecOptionsFor(opts_.config))
{
}

const VectorizedProgram &
Simulation::compile(WorkloadId id)
{
    // Compile-once: concurrent first callers for the same workload
    // block on one shared compilation (no duplicate compile whose
    // loser is discarded). The cache keeps the entry alive for the
    // Simulation's lifetime, so handing out a reference is safe.
    return *cache_.get(id, opts_.workload, opts_.config);
}

VectorizedProgram
Simulation::compileProgram(const LoopProgram &lp) const
{
    return vectorizer_.run(lp);
}

RunResult
Simulation::run(WorkloadId id, const std::string &policy_name)
{
    auto policy = makePolicy(policy_name);
    return run(id, *policy);
}

RunResult
Simulation::run(WorkloadId id, OffloadPolicy &policy)
{
    return runProgram(compile(id).program, policy);
}

RunResult
Simulation::runProgram(const Program &prog, OffloadPolicy &policy)
{
    // One job, tick-0 arrival, fresh device — the paper's cold-SSD
    // methodology, expressed as the smallest possible Device use.
    // The program and policy are borrowed from the caller for the
    // duration of the call (non-owning aliases).
    Device dev(deviceOptionsFor(opts_));
    JobSpec job;
    job.program = std::shared_ptr<const Program>(
        std::shared_ptr<const void>(), &prog);
    job.policyObj = std::shared_ptr<OffloadPolicy>(
        std::shared_ptr<void>(), &policy);
    const JobId id = dev.submit(job);
    return dev.wait(id).result;
}

sched::MultiRunResult
Simulation::runMulti(const std::vector<Tenant> &tenants)
{
    std::vector<sched::StreamSpec> streams;
    streams.reserve(tenants.size());
    for (const Tenant &t : tenants) {
        sched::StreamSpec s;
        const VectorizedProgram &vp = compile(t.id);
        // Alias the cached program: the cache entry lives as long as
        // this Simulation, well beyond the run.
        s.program = std::shared_ptr<const Program>(
            std::shared_ptr<const void>(), &vp.program);
        s.policy = makePolicy(t.policy);
        s.name = workloadName(t.id);
        streams.push_back(std::move(s));
    }
    return runStreams(std::move(streams));
}

sched::MultiRunResult
Simulation::runStreams(std::vector<sched::StreamSpec> streams)
{
    // Fresh device, every stream submitted as a job arriving at tick
    // 0: regions in submission order, retirement in submission order.
    return runStreamsOnDevice(deviceOptionsFor(opts_),
                              std::move(streams));
}

RunResult
Simulation::runHost(WorkloadId id, bool gpu)
{
    return runHostProgram(compile(id).program, gpu);
}

RunResult
Simulation::runHostProgram(const Program &prog, bool gpu) const
{
    HostModel model(opts_.config, gpu ? HostModel::Kind::Gpu
                                      : HostModel::Kind::Cpu);
    const HostResult hr = model.run(prog);
    RunResult r;
    r.workload = prog.name;
    r.policy = gpu ? "GPU" : "CPU";
    r.execTime = hr.totalTime;
    r.instrCount = prog.instrs.size();
    r.computeBusy = hr.computeTime;
    r.hostDmBusy = hr.transferTime;
    r.dmEnergyJ = hr.dmEnergyJ;
    r.computeEnergyJ = hr.computeEnergyJ;
    return r;
}

Device
Simulation::makeDevice() const
{
    return Device(deviceOptionsFor(opts_));
}

} // namespace conduit
