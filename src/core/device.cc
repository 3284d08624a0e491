#include "src/core/device.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/trace/trace.hh"

namespace conduit
{

namespace
{

/**
 * Fold @p r into @p agg: label joining ("+"), counter and busy-time
 * sums, latency-histogram merge.
 */
void
accumulateResult(RunResult &agg, const RunResult &r)
{
    if (!agg.workload.empty()) {
        agg.workload += "+";
        agg.policy += "+";
    }
    agg.workload += r.workload;
    agg.policy += r.policy;
    agg.instrCount += r.instrCount;
    for (std::size_t i = 0; i < kNumTargets; ++i)
        agg.perResource[i] += r.perResource[i];
    agg.latencyUs.merge(r.latencyUs);
    agg.dmEnergyJ += r.dmEnergyJ;
    agg.computeEnergyJ += r.computeEnergyJ;
    agg.computeBusy += r.computeBusy;
    agg.internalDmBusy += r.internalDmBusy;
    agg.flashReadBusy += r.flashReadBusy;
    agg.hostDmBusy += r.hostDmBusy;
    agg.offloaderBusy += r.offloaderBusy;
    agg.faultsInjected += r.faultsInjected;
    agg.replays += r.replays;
    agg.coherenceCommits += r.coherenceCommits;
    agg.latchEvictions += r.latchEvictions;
}

/**
 * Throw unless every operand of @p prog lies inside its footprint:
 * the engine addresses operand pages within the job's region only.
 */
void
checkOperandsInFootprint(const Program &prog)
{
    auto outside = [&](const Operand &o) {
        return o.basePage > prog.footprintPages ||
            o.pageCount > prog.footprintPages - o.basePage;
    };
    for (const VecInstruction &vi : prog.instrs) {
        if (outside(vi.dst) ||
            std::any_of(vi.srcs.begin(), vi.srcs.end(), outside))
            throw std::invalid_argument(
                "Device::submit: instruction " + std::to_string(vi.id) +
                " has an operand outside the program's footprint");
    }
}

} // namespace

// --------------------------------------------------- RegionAllocator

void
RegionAllocator::reset(std::uint64_t pages)
{
    free_.clear();
    capacity_ = pages;
    inUse_ = 0;
    if (pages > 0)
        free_[0] = pages;
}

std::optional<std::uint64_t>
RegionAllocator::allocate(std::uint64_t pages)
{
    if (pages == 0)
        return 0; // zero-footprint jobs occupy nothing
    for (auto it = free_.begin(); it != free_.end(); ++it) {
        if (it->second < pages)
            continue;
        const std::uint64_t base = it->first;
        const std::uint64_t len = it->second;
        free_.erase(it);
        if (len > pages)
            free_[base + pages] = len - pages;
        inUse_ += pages;
        return base;
    }
    return std::nullopt;
}

void
RegionAllocator::release(std::uint64_t base, std::uint64_t pages)
{
    if (pages == 0)
        return;
    auto [it, inserted] = free_.emplace(base, pages);
    if (!inserted)
        throw std::logic_error("RegionAllocator: double free");
    inUse_ -= pages;
    auto next = std::next(it);
    if (next != free_.end() && it->first + it->second == next->first) {
        it->second += next->second;
        free_.erase(next);
    }
    if (it != free_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            free_.erase(it);
        }
    }
}

// ------------------------------------------------------------ Device

Device::Device(DeviceOptions opts)
    : opts_(std::move(opts)), engine_(opts_.config)
{
    engine_.setStreamDone([this](ExecContext &ctx) { onStreamDone(ctx); });
    if (opts_.tracer)
        setTracer(opts_.tracer);
}

Device::Device(const DeviceImage &img)
    : opts_(img.options), engine_(opts_.config)
{
    engine_.setStreamDone([this](ExecContext &ctx) { onStreamDone(ctx); });
    // Forked devices start with an empty trace: a tracer is live
    // observer wiring, not simulated state, so it never crosses the
    // snapshot boundary. (snapshot() strips it too — this reset
    // guards images built by hand.)
    opts_.tracer.reset();
    engine_.restoreImage(img.engine);
    regions_.reset(img.capacityPages);
    session_ = true;
    // The fork carries device state, not job history: its job list
    // starts empty and its makespan at the image clock.
    makespan_ = img.engine.queueNow;
    priorJobs_ = img.jobsServed;
}

DeviceImage
Device::snapshot()
{
    ensureSession();
    advanceToQuiescence();

    DeviceImage img;
    img.options = opts_;
    img.options.tracer.reset(); // trace buffers are not device state
    img.capacityPages = regions_.capacity();
    img.engine = engine_.captureImage();
    img.jobsServed = priorJobs_ + jobs_.size();
    return img;
}

JobId
Device::submit(const JobSpec &spec)
{
    auto live = std::make_unique<Job::Live>(opts_.config.energy);
    if (spec.program) {
        live->program = spec.program;
    } else if (spec.workload) {
        auto vp =
            cache_.get(*spec.workload, opts_.workload, opts_.config);
        // Alias the cache entry: it stays alive inside the shared_ptr
        // control block for as long as any job references it.
        live->program = std::shared_ptr<const Program>(vp, &vp->program);
    } else {
        throw std::invalid_argument(
            "Device::submit: JobSpec needs a workload or a program");
    }
    checkOperandsInFootprint(*live->program);
    live->policy = spec.policyObj
        ? spec.policyObj
        : std::shared_ptr<OffloadPolicy>(makePolicy(spec.policy));
    live->name = !spec.name.empty() ? spec.name
        : spec.workload ? workloadName(*spec.workload)
                        : std::string();

    Job &job = jobs_.emplace_back();
    job.live = std::move(live);
    job.result.id = static_cast<JobId>(jobs_.size());
    job.result.arrival = spec.arrival;
    if (session_)
        scheduleArrival(job);
    return job.result.id;
}

void
Device::ensureSession()
{
    if (session_)
        return;
    std::uint64_t cap = opts_.capacityPages;
    if (cap == 0) {
        // Auto-size the pool to the jobs pending right now, so a
        // batch of simultaneous arrivals admits at once.
        for (const Job &j : jobs_)
            cap += j.footprint();
    }
    engine_.sessionBegin(cap, opts_.engine);
    regions_.reset(cap);
    session_ = true;

    // Tick-0 jobs admit directly (no arrival event), in submission
    // order. Future arrivals become events on the shared queue.
    for (Job &job : jobs_) {
        if (job.result.arrival == 0)
            admit(job);
        else
            scheduleArrival(job);
    }
}

void
Device::scheduleArrival(Job &job)
{
    EventQueue &q = engine_.sessionQueue();
    const Tick at = std::max(q.now(), job.result.arrival);
    job.result.arrival = at;
    // jobs_ is a deque: the captured reference stays valid.
    q.schedule(
        at, [this, &job] { admit(job); }, Engine::kDispatchPriority);
}

void
Device::admit(Job &job)
{
    if (tracer_)
        sampleQueues();
    if (auto base = regions_.allocate(job.footprint()))
        attach(job, *base);
    else
        waiting_.push_back(job.result.id);
}

void
Device::attach(Job &job, std::uint64_t base)
{
    const Tick at = engine_.sessionQueue().now();
    Job::Live &live = *job.live;
    job.result.basePage = base;
    job.result.pages = job.footprint();
    job.result.admitted = at;
    live.ctx.owner = job.result.id;
    engine_.sessionAttach(live.ctx, *live.program, *live.policy,
                          live.name, base, at);
    // An empty program finishes on arrival: no completion event will
    // ever fire for it.
    if (live.ctx.finished() && opts_.retire == RetirePolicy::OnComplete)
        retire(job);
}

void
Device::onStreamDone(ExecContext &ctx)
{
    if (opts_.retire == RetirePolicy::OnComplete)
        retire(jobs_[ctx.owner - 1]);
}

void
Device::retire(Job &job)
{
    const Tick end = engine_.sessionFinish(job.live->ctx);
    job.result.end = end;
    job.result.result = std::move(job.live->ctx.result);
    // Free everything but the result, so a long-lived device serving
    // an unbounded job stream holds per retired job only its
    // JobResult. No event references the finished stream anymore.
    job.live.reset();
    ++retired_;
    makespan_ = std::max(makespan_, end);

    if (tracer_) {
        if (tracer_->wants(trace::Category::Job)) {
            trace::Event e;
            e.cat = trace::Category::Job;
            e.kind = trace::EventKind::Job;
            e.device = traceId_;
            e.start = job.result.arrival;
            e.end = end;
            e.a = traceJobNumber(job.result.id);
            e.b = job.result.admitted;
            e.c = job.result.pages;
            e.str = tracer_->intern(job.result.result.workload);
            tracer_->record(e);
        }
        sampleQueues();
    }

    const std::uint64_t base = job.result.basePage;
    const std::uint64_t pages = job.result.pages;
    EventQueue &q = engine_.sessionQueue();
    if (opts_.retire == RetirePolicy::OnComplete && end > q.now()) {
        // The result drain extends past the completion event that
        // triggered this retirement: the pages are still streaming
        // out over PCIe until `end`, so the region joins the pool
        // (and queued jobs admit) only then. Retire events fire
        // after same-tick dispatches and completions.
        q.schedule(
            end, [this, base, pages] { releaseRegion(base, pages); },
            kRetirePriority);
    } else {
        // Quiescence-mode retirement happens outside simulated time
        // (batch semantics); release in place.
        releaseRegion(base, pages);
    }
}

void
Device::releaseRegion(std::uint64_t base, std::uint64_t pages)
{
    // Free the region for later jobs and admit whoever was queued
    // for capacity, FIFO (head-of-line: preserves admission order).
    regions_.release(base, pages);
    engine_.sessionReclaim(base, pages);
    while (!waiting_.empty()) {
        Job &w = jobs_[waiting_.front() - 1];
        const auto at = regions_.allocate(w.footprint());
        if (!at)
            break;
        waiting_.pop_front();
        attach(w, *at);
    }
}

bool
Device::retireFinished()
{
    bool progress = false;
    for (Job &job : jobs_) {
        if (job.finished()) {
            retire(job);
            progress = true;
        }
    }
    return progress;
}

void
Device::advanceToQuiescence()
{
    EventQueue &q = engine_.sessionQueue();
    for (;;) {
        q.run();
        // Quiescence: retire finished jobs in submission order
        // (OnComplete mode already retired them in-loop). Retiring
        // frees regions and may admit queued jobs — which can wake
        // the queue back up, or finish instantly (empty programs) —
        // so keep going until a pass makes no progress at all.
        if (retireFinished())
            continue;
        if (!q.empty())
            continue;
        if (!waiting_.empty())
            throw std::runtime_error(
                "Device: job footprint can never be admitted; raise "
                "DeviceOptions::capacityPages or shrink the job");
        return;
    }
}

const JobResult &
Device::wait(JobId id)
{
    if (id == 0 || id > jobs_.size())
        throw std::out_of_range("Device::wait: unknown job id");
    ensureSession();
    Job &job = jobs_[id - 1];
    EventQueue &q = engine_.sessionQueue();
    while (job.live) {
        if (q.runOne())
            continue;
        if (retireFinished())
            continue;
        throw std::runtime_error(
            "Device::wait: job can never complete; raise "
            "DeviceOptions::capacityPages or shrink the job");
    }
    return job.result;
}

DeviceSnapshot
Device::drain()
{
    ensureSession();
    advanceToQuiescence();

    DeviceSnapshot snap;
    snap.makespan = makespan_;
    snap.eventsFired = engine_.sessionQueue().eventsFired();
    snap.jobs.reserve(jobs_.size());
    for (const Job &job : jobs_)
        snap.jobs.push_back(job.result);
    for (const Job &job : jobs_)
        accumulateResult(snap.aggregate, job.result.result);
    snap.aggregate.execTime = snap.makespan;
    if (const auto *rel = engine_.reliability())
        snap.reliability = rel->stats();
    return snap;
}

void
Device::advanceTo(Tick t)
{
    ensureSession();
    engine_.sessionQueue().run(t);
}

DeviceProbe
Device::probe() const
{
    DeviceProbe p;
    p.now = now();
    p.pendingJobs = unfinishedJobs();
    p.waitingJobs = waiting_.size();
    p.admittedPages = regions_.inUse();
    p.capacityPages = regions_.capacity();
    if (session_)
        p.dieBusyFraction = engine_.busyDieFraction(p.now);
    return p;
}

Tick
Device::now() const
{
    return session_ ? engine_.sessionQueue().now() : 0;
}

void
Device::setTracer(std::shared_ptr<trace::Tracer> t,
                  std::uint32_t device)
{
    tracer_ = std::move(t);
    traceId_ = device;
    nextQueueSampleAt_ = 0;
    engine_.setTracer(tracer_.get(), device);
}

void
Device::sampleQueues()
{
    if (!tracer_->wants(trace::Category::Queue))
        return;
    const Tick t = now();
    if (t < nextQueueSampleAt_)
        return;
    const Tick step = std::max<Tick>(1, tracer_->sampleInterval());
    while (nextQueueSampleAt_ <= t)
        nextQueueSampleAt_ += step;
    trace::Event e;
    e.cat = trace::Category::Queue;
    e.kind = trace::EventKind::JobQueueSample;
    e.device = traceId_;
    e.start = t;
    e.end = t;
    e.a = unfinishedJobs();
    e.b = waiting_.size();
    e.c = regions_.inUse();
    tracer_->record(e);
}

} // namespace conduit
