#include "src/runner/run_spec.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace conduit::runner
{

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ',')) {
        // Trim surrounding whitespace.
        const auto b = item.find_first_not_of(" \t");
        const auto e = item.find_last_not_of(" \t");
        if (b != std::string::npos)
            out.push_back(item.substr(b, e - b + 1));
    }
    return out;
}

std::string
joinLabels(const std::vector<std::string> &labels)
{
    std::string joined;
    for (const auto &l : labels) {
        if (!joined.empty())
            joined += ", ";
        joined += l;
    }
    return joined;
}

const std::string *
findUnknown(const std::vector<std::string> &filter,
            const std::vector<std::string> &labels)
{
    for (const auto &f : filter) {
        if (std::find(labels.begin(), labels.end(), f) == labels.end())
            return &f;
    }
    return nullptr;
}

bool
reportUnknown(const std::vector<std::string> &filter,
              const std::vector<std::string> &labels, const char *axis)
{
    const std::string *f = findUnknown(filter, labels);
    if (!f)
        return true;
    std::fprintf(stderr, "unknown %s '%s'; accepted: %s\n", axis,
                 f->c_str(), joinLabels(labels).c_str());
    return false;
}

namespace
{

bool
keeps(const std::vector<std::string> &filter, const std::string &label)
{
    return filter.empty() ||
        std::find(filter.begin(), filter.end(), label) != filter.end();
}

/**
 * Reject filter entries naming no axis label: a typo would otherwise
 * silently drop rows/columns. The error lists what this matrix
 * accepts (mirroring --list-workloads / --list-techniques).
 */
void
validateFilter(const std::vector<std::string> &filter,
               const std::vector<std::string> &labels,
               const char *axis)
{
    if (const std::string *f = findUnknown(filter, labels))
        throw std::invalid_argument(std::string("RunMatrix: unknown ") +
                                    axis + " '" + *f +
                                    "'; accepted: " + joinLabels(labels));
}

} // namespace

RunMatrix &
RunMatrix::params(const WorkloadParams &p)
{
    params_ = p;
    return *this;
}

RunMatrix &
RunMatrix::workload(WorkloadId id)
{
    workloads_.push_back({workloadName(id), id, nullptr});
    return *this;
}

RunMatrix &
RunMatrix::workloads(const std::vector<WorkloadId> &ids)
{
    for (WorkloadId id : ids)
        workload(id);
    return *this;
}

RunMatrix &
RunMatrix::program(const std::string &label,
                   std::shared_ptr<const Program> prog)
{
    workloads_.push_back({label, std::nullopt, std::move(prog)});
    return *this;
}

RunMatrix &
RunMatrix::technique(const std::string &name)
{
    techniques_.push_back({name, nullptr, HostKind::None});
    return *this;
}

RunMatrix &
RunMatrix::techniques(const std::vector<std::string> &names)
{
    for (const auto &n : names)
        technique(n);
    return *this;
}

RunMatrix &
RunMatrix::technique(const std::string &label, PolicyFactory make)
{
    techniques_.push_back({label, std::move(make), HostKind::None});
    return *this;
}

RunMatrix &
RunMatrix::hostTechnique(const std::string &label, bool gpu)
{
    techniques_.push_back(
        {label, nullptr, gpu ? HostKind::Gpu : HostKind::Cpu});
    return *this;
}

RunMatrix &
RunMatrix::filterWorkloads(const std::string &csv)
{
    workloadFilter_ = splitCsv(csv);
    return *this;
}

RunMatrix &
RunMatrix::filterTechniques(const std::string &csv)
{
    techniqueFilter_ = splitCsv(csv);
    return *this;
}

std::vector<std::string>
RunMatrix::workloadLabels() const
{
    std::vector<std::string> labels;
    for (const auto &w : workloads_)
        labels.push_back(w.label);
    return labels;
}

std::vector<std::string>
RunMatrix::techniqueLabels() const
{
    std::vector<std::string> labels;
    for (const auto &t : techniques_)
        labels.push_back(t.label);
    return labels;
}

std::vector<RunSpec>
RunMatrix::build() const
{
    validateFilter(workloadFilter_, workloadLabels(), "workload");
    validateFilter(techniqueFilter_, techniqueLabels(), "technique");

    std::vector<RunSpec> specs;
    for (const auto &w : workloads_) {
        if (!keeps(workloadFilter_, w.label))
            continue;
        for (const auto &t : techniques_) {
            if (!keeps(techniqueFilter_, t.label))
                continue;
            RunSpec s;
            s.workload = w.label;
            s.technique = t.label;
            s.params = params_;
            s.workloadId = w.id;
            s.program = w.program;
            s.policy = t.policy;
            s.host = t.host;
            specs.push_back(std::move(s));
        }
    }
    return specs;
}

std::string
tenantName(const Tenant &t)
{
    return !t.name.empty() ? t.name
        : t.workloadId     ? workloadName(*t.workloadId)
        : t.program        ? t.program->name
                           : std::string();
}

namespace
{

/** Arrival process at @p rate jobs/s, or null at zero rate. */
std::unique_ptr<ArrivalProcess>
arrivalsAt(ArrivalKind kind, double rate, std::uint64_t seed)
{
    if (rate <= 0.0)
        return nullptr;
    return makeArrivals(kind, static_cast<double>(kPsPerS) / rate, seed);
}

/**
 * @p count cumulative arrival ticks from 0, walking @p arrivals (all
 * zero when it is null).
 */
std::vector<Tick>
cumulativeTicks(ArrivalProcess *arrivals, std::size_t count)
{
    std::vector<Tick> ticks;
    ticks.reserve(count);
    Tick at = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (arrivals)
            at += arrivals->next();
        ticks.push_back(at);
    }
    return ticks;
}

/** @p t's jobs at @p ticks as a device's warm phase. */
WarmTraffic
warmTraffic(const Tenant &t, std::vector<Tick> ticks)
{
    WarmTraffic w;
    w.name = t.name;
    w.workloadId = t.workloadId;
    w.program = t.program;
    w.ticks = std::move(ticks);
    return w;
}

} // namespace

Scenario
batchScenario(std::string label, DeviceRecipe device,
              std::vector<Tenant> tenants)
{
    Scenario s;
    s.label = std::move(label);
    s.devices.push_back(std::move(device));
    for (std::size_t t = 0; t < tenants.size(); ++t)
        s.schedule.push_back({0, t});
    s.tenants = std::move(tenants);
    return s;
}

Scenario
loadScenario(DeviceOptions device, Tenant tenant, const Offer &offer)
{
    Scenario s;
    s.jobsPerSec = offer.jobsPerSec;
    const std::string workload = tenantName(tenant);
    char rate[48];
    std::snprintf(rate, sizeof rate, "@%gjobs/s", offer.jobsPerSec);
    s.label = (workload.empty() ? std::string("load") : workload) + "/" +
        tenant.technique + rate;
    const ReliabilityConfig &rel = device.config.reliability;
    if (rel.enabled) {
        char age[64];
        std::snprintf(age, sizeof age, "+w%lu+d%g",
                      static_cast<unsigned long>(rel.preWearCycles),
                      rel.retentionDays);
        s.label += age;
    }

    // Open-loop cells retire eagerly so page regions recycle while
    // later arrivals are still in flight.
    DeviceRecipe recipe;
    recipe.options = std::move(device);
    recipe.options.retire = RetirePolicy::OnComplete;
    auto arrivals =
        arrivalsAt(offer.arrivals, offer.jobsPerSec, offer.arrivalSeed);
    if (offer.warmupJobs > 0)
        recipe.warm = warmTraffic(
            tenant, cumulativeTicks(arrivals.get(), offer.warmupJobs));
    // The measured gaps continue the same process from the fork epoch.
    for (Tick at : cumulativeTicks(arrivals.get(), offer.jobs))
        s.schedule.push_back({at, 0});
    s.devices.push_back(std::move(recipe));
    s.tenants.push_back(std::move(tenant));
    return s;
}

Scenario
fleetScenario(std::string label, std::string placement,
              std::vector<DeviceOptions> devices,
              std::vector<Tenant> tenants, const Offer &offer)
{
    Scenario s;
    s.jobsPerSec = offer.jobsPerSec;
    if (label.empty()) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "fleet%zu/%s@%gjobs/s",
                      devices.size(), placement.c_str(),
                      offer.jobsPerSec);
        label = buf;
    }
    s.label = std::move(label);
    s.placement = std::move(placement);

    // Jobs split across tenants by weight (floor, then remainder
    // round-robin), each tenant walking its own arrival process.
    const std::size_t nt = tenants.size();
    double weightSum = 0.0;
    for (const Tenant &t : tenants)
        weightSum += std::max(t.weight, 0.0);
    const auto share = [&](std::size_t t) {
        return weightSum > 0.0
            ? std::max(tenants[t].weight, 0.0) / weightSum
            : 1.0 / static_cast<double>(nt);
    };
    std::vector<std::size_t> quota(nt, 0);
    std::size_t assigned = 0;
    for (std::size_t t = 0; t < nt; ++t) {
        quota[t] = static_cast<std::size_t>(
            static_cast<double>(offer.jobs) * share(t));
        assigned += quota[t];
    }
    for (std::size_t t = 0; nt > 0 && assigned < offer.jobs;
         t = (t + 1) % nt) {
        ++quota[t];
        ++assigned;
    }

    // Merge order is (arrival, per-tenant index, tenant) — a total
    // order, so a tick-0 burst interleaves tenants round-robin.
    struct Slot
    {
        Tick at;
        std::size_t idx;
        std::size_t tenant;
    };
    std::vector<Slot> merged;
    merged.reserve(offer.jobs);
    for (std::size_t t = 0; t < nt; ++t) {
        auto arrivals = arrivalsAt(offer.arrivals,
                                   offer.jobsPerSec * share(t),
                                   offer.arrivalSeed + t);
        const std::vector<Tick> ticks =
            cumulativeTicks(arrivals.get(), quota[t]);
        for (std::size_t i = 0; i < ticks.size(); ++i)
            merged.push_back({ticks[i], i, t});
    }
    std::sort(merged.begin(), merged.end(),
              [](const Slot &a, const Slot &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.idx != b.idx)
                      return a.idx < b.idx;
                  return a.tenant < b.tenant;
              });
    for (const Slot &m : merged)
        s.schedule.push_back({m.at, m.tenant});

    // Every device warms on the first tenant's jobs at its per-device
    // share of the rate; equal recipes share one image.
    std::vector<Tick> warmTicks;
    if (offer.warmupJobs > 0 && nt > 0 && !devices.empty()) {
        auto arrivals = arrivalsAt(
            offer.arrivals,
            offer.jobsPerSec / static_cast<double>(devices.size()),
            offer.arrivalSeed);
        warmTicks = cumulativeTicks(arrivals.get(), offer.warmupJobs);
    }
    for (DeviceOptions &d : devices) {
        DeviceRecipe recipe;
        recipe.options = std::move(d);
        recipe.options.retire = RetirePolicy::OnComplete;
        if (!warmTicks.empty())
            recipe.warm = warmTraffic(tenants.front(), warmTicks);
        s.devices.push_back(std::move(recipe));
    }
    s.tenants = std::move(tenants);
    return s;
}

} // namespace conduit::runner
