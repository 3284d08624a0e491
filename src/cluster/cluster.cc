#include "src/cluster/cluster.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "src/trace/trace.hh"

namespace conduit::cluster
{

Cluster::Cluster(ClusterOptions opts,
                 std::unique_ptr<PlacementPolicy> policy)
    : policy_(std::move(policy))
{
    if (opts.devices.empty())
        throw std::invalid_argument("Cluster: empty fleet");
    if (!policy_)
        throw std::invalid_argument("Cluster: null placement policy");

    devices_.reserve(opts.devices.size());
    for (DeviceSeed &seed : opts.devices) {
        devices_.push_back(seed.image
                               ? std::make_unique<Device>(*seed.image)
                               : std::make_unique<Device>(
                                     std::move(seed.options)));
        base_ = std::max(base_, devices_.back()->now());
    }

    // Idle probes for the probe-free path: device identity only, no
    // simulated state — policies that declared needsProbes()==false
    // never look past .size() anyway.
    idleProbes_.resize(devices_.size());

    // Attach the fleet tracer after construction, so image-forked
    // devices (which always start traceless) pick it up too.
    tracer_ = std::move(opts.tracer);
    if (tracer_) {
        for (std::size_t d = 0; d < devices_.size(); ++d)
            devices_[d]->setTracer(
                tracer_, static_cast<std::uint32_t>(d));
    }
}

Cluster::~Cluster()
{
    while (!devices_.empty())
        devices_.pop_back();
}

RoutedJob
Cluster::submit(const JobSpec &spec, std::size_t tenant)
{
    if (spec.arrival < lastArrival_)
        throw std::invalid_argument(
            "Cluster::submit: arrivals must be non-decreasing");
    lastArrival_ = spec.arrival;

    RoutedJob r;
    r.tenant = tenant;
    r.arrival = base_ + spec.arrival;

    JobView view;
    view.index = routed_.size();
    view.tenant = tenant;
    view.arrival = spec.arrival;

    // Probe-free policies (and trivially-placed single-device
    // fleets) keep every device on the bare upfront-submission path
    // a standalone Device runs — nothing simulates until drain(), so
    // same-tick event ordering matches the bare device exactly.
    std::size_t dev;
    const bool probed = policy_->needsProbes() && devices_.size() > 1;
    std::vector<DeviceProbe> probes;
    if (probed) {
        probes = probe(r.arrival);
        dev = policy_->place(view, probes);
    } else {
        dev = policy_->place(view, idleProbes_);
    }
    if (dev >= devices_.size())
        throw std::logic_error(
            "Cluster: placement returned an out-of-range device");
    r.device = dev;

    JobSpec placed = spec;
    placed.arrival = r.arrival;
    r.id = devices_[dev]->submit(placed);
    // A single-device fleet decides nothing, so it records no
    // placement: its trace stays the bare Device's.
    if (tracer_ && devices_.size() > 1 &&
        tracer_->wants(trace::Category::Placement)) {
        trace::Event e;
        e.cat = trace::Category::Placement;
        e.kind = trace::EventKind::Placement;
        e.device = static_cast<std::uint32_t>(dev);
        e.start = r.arrival;
        e.end = r.arrival;
        e.a = tenant;
        e.b = devices_[dev]->traceJobNumber(r.id);
        e.c = probed ? probes[dev].pendingJobs : 0;
        // Decision record: policy name plus the probe snapshot it saw
        // (comma-free so the CSV exporter's tag column stays intact).
        std::string why = policy_->name();
        if (probed) {
            char buf[64];
            for (std::size_t d = 0; d < probes.size(); ++d) {
                std::snprintf(buf, sizeof buf,
                              " d%zu:p%zu/w%zu/u%.4f", d,
                              probes[d].pendingJobs,
                              probes[d].waitingJobs,
                              probes[d].dieBusyFraction);
                why += buf;
            }
        }
        e.str = tracer_->intern(why);
        tracer_->record(e);
    }
    routed_.push_back(r);
    return r;
}

std::vector<DeviceProbe>
Cluster::probe(Tick t)
{
    std::vector<DeviceProbe> probes;
    probes.reserve(devices_.size());
    for (auto &dev : devices_) {
        dev->advanceTo(t);
        probes.push_back(dev->probe());
    }
    return probes;
}

ClusterSnapshot
Cluster::drain()
{
    ClusterSnapshot snap;
    snap.base = base_;
    snap.routed = routed_;
    snap.devices.reserve(devices_.size());
    for (auto &dev : devices_) {
        snap.devices.push_back(dev->drain());
        const DeviceSnapshot &ds = snap.devices.back();
        snap.makespan = std::max(snap.makespan, ds.makespan);
        snap.eventsFired += ds.eventsFired;
    }
    return snap;
}

} // namespace conduit::cluster
