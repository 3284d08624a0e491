#include "src/runner/sweep_result.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "src/sim/types.hh"

namespace conduit::runner
{

namespace
{

/**
 * Shortest decimal that round-trips a double, so emitted rows are
 * byte-stable across runs and thread counts.
 */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    double parsed = 0.0;
    for (int prec = 1; prec <= 16; ++prec) {
        char probe[64];
        std::snprintf(probe, sizeof probe, "%.*g", prec, v);
        if (std::sscanf(probe, "%lf", &parsed) == 1 && parsed == v)
            return probe;
    }
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** One row's emitted fields, shared by the CSV and JSON writers. */
struct Field
{
    const char *name;
    std::string value;
    bool quoted;
};

std::vector<Field>
rowFields(const RunSpec &spec, const RunResult &r)
{
    const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
    const auto &h = r.latencyUs;
    return {
        {"workload", spec.workload, true},
        {"technique", spec.technique, true},
        {"exec_time_ps", u64(r.execTime), false},
        {"instr_count", u64(r.instrCount), false},
        {"isp_instrs", u64(r.perResource[0]), false},
        {"pud_instrs", u64(r.perResource[1]), false},
        {"ifp_instrs", u64(r.perResource[2]), false},
        {"dm_energy_j", fmtDouble(r.dmEnergyJ), false},
        {"compute_energy_j", fmtDouble(r.computeEnergyJ), false},
        {"latency_count", u64(h.count()), false},
        {"latency_p50_us",
         fmtDouble(h.count() ? h.percentile(50) : 0.0), false},
        {"latency_p99_us",
         fmtDouble(h.count() ? h.percentile(99) : 0.0), false},
        {"latency_p9999_us",
         fmtDouble(h.count() ? h.percentile(99.99) : 0.0), false},
        {"latency_max_us", fmtDouble(h.max()), false},
        {"compute_busy_ps", u64(r.computeBusy), false},
        {"internal_dm_busy_ps", u64(r.internalDmBusy), false},
        {"flash_read_busy_ps", u64(r.flashReadBusy), false},
        {"host_dm_busy_ps", u64(r.hostDmBusy), false},
        {"offloader_busy_ps", u64(r.offloaderBusy), false},
        {"faults_injected", u64(r.faultsInjected), false},
        {"replays", u64(r.replays), false},
        {"coherence_commits", u64(r.coherenceCommits), false},
        {"latch_evictions", u64(r.latchEvictions), false},
    };
}

/** CSV writer over pre-built field rows (header from the first). */
void
writeFieldCsv(std::ostream &os,
              const std::vector<std::vector<Field>> &rows)
{
    bool header_done = false;
    for (const auto &fields : rows) {
        if (!header_done) {
            for (std::size_t f = 0; f < fields.size(); ++f)
                os << (f ? "," : "") << fields[f].name;
            os << "\n";
            header_done = true;
        }
        for (std::size_t f = 0; f < fields.size(); ++f) {
            if (f)
                os << ",";
            if (fields[f].quoted)
                os << '"' << fields[f].value << '"';
            else
                os << fields[f].value;
        }
        os << "\n";
    }
}

/** JSON array-of-objects writer over pre-built field rows. */
void
writeFieldJson(std::ostream &os,
               const std::vector<std::vector<Field>> &rows)
{
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &fields = rows[i];
        os << "  {";
        for (std::size_t f = 0; f < fields.size(); ++f) {
            if (f)
                os << ", ";
            os << '"' << fields[f].name << "\": ";
            if (fields[f].quoted)
                os << '"' << jsonEscape(fields[f].value) << '"';
            else
                os << fields[f].value;
        }
        os << (i + 1 < rows.size() ? "},\n" : "}\n");
    }
    os << "]\n";
}

/**
 * Open @p path, emit through @p write, and report whether both the
 * open and every write succeeded.
 */
template <typename Write>
bool
writeFile(const std::string &path, const Write &write)
{
    std::ofstream os(path);
    if (!os)
        return false;
    write(os);
    return static_cast<bool>(os);
}

} // namespace

SweepResult::SweepResult(std::vector<RunSpec> specs,
                         std::vector<RunResult> results,
                         double wall_seconds, unsigned threads)
    : specs_(std::move(specs)), results_(std::move(results)),
      wallSeconds_(wall_seconds), threads_(threads)
{
    if (specs_.size() != results_.size())
        throw std::logic_error("SweepResult: specs/results mismatch");
}

const RunResult *
SweepResult::find(const std::string &workload,
                  const std::string &technique) const
{
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        if (specs_[i].workload == workload &&
            specs_[i].technique == technique)
            return &results_[i];
    }
    return nullptr;
}

const RunResult &
SweepResult::at(const std::string &workload,
                const std::string &technique) const
{
    if (const RunResult *r = find(workload, technique))
        return *r;
    throw std::out_of_range("SweepResult: no row for (" + workload +
                            ", " + technique + ")");
}

namespace
{

std::vector<std::string>
uniqueLabels(const std::vector<RunSpec> &specs,
             std::string RunSpec::*field)
{
    std::vector<std::string> out;
    for (const auto &s : specs) {
        const std::string &label = s.*field;
        if (std::find(out.begin(), out.end(), label) == out.end())
            out.push_back(label);
    }
    return out;
}

std::vector<std::vector<Field>>
sweepFields(const SweepResult &sweep)
{
    std::vector<std::vector<Field>> out;
    out.reserve(sweep.size());
    for (std::size_t i = 0; i < sweep.size(); ++i)
        out.push_back(rowFields(sweep.spec(i), sweep.result(i)));
    return out;
}

} // namespace

std::vector<std::string>
SweepResult::workloadLabels() const
{
    return uniqueLabels(specs_, &RunSpec::workload);
}

std::vector<std::string>
SweepResult::techniqueLabels() const
{
    return uniqueLabels(specs_, &RunSpec::technique);
}

void
SweepResult::writeCsv(std::ostream &os) const
{
    writeFieldCsv(os, sweepFields(*this));
}

void
SweepResult::writeJson(std::ostream &os) const
{
    writeFieldJson(os, sweepFields(*this));
}

bool
SweepResult::writeCsvFile(const std::string &path) const
{
    return writeFile(path, [&](auto &os) { writeCsv(os); });
}

bool
SweepResult::writeJsonFile(const std::string &path) const
{
    return writeFile(path, [&](auto &os) { writeJson(os); });
}

namespace
{

/** The columns @p format emits for @p r. */
std::vector<Field>
scenarioFields(const ScenarioRow &r, RowFormat format)
{
    const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
    const std::vector<Field> tails = {
        {"jobs_per_sec", fmtDouble(r.jobsPerSec), false},
        {"jobs", u64(r.jobs), false},
        {"makespan_ms", fmtDouble(r.makespanMs), false},
        {"throughput_jobs_per_sec", fmtDouble(r.throughputJobsPerSec),
         false},
        {"mean_sojourn_ms", fmtDouble(r.meanSojournMs), false},
        {"latency_p50_us", fmtDouble(r.p50Us), false},
        {"latency_p99_us", fmtDouble(r.p99Us), false},
        {"latency_p9999_us", fmtDouble(r.p9999Us), false},
    };
    std::vector<Field> fields;
    if (format == RowFormat::Fleet) {
        fields = {{"label", r.label, true},
                  {"placement", r.placement, true},
                  {"devices", u64(r.devices), false},
                  {"tenant", r.tenant, true}};
        fields.insert(fields.end(), tails.begin(), tails.end());
        fields.insert(
            fields.end(),
            {{"sojourn_p99_ms", fmtDouble(r.sojournP99Ms), false},
             {"slo_ms", fmtDouble(r.sloMs), false},
             {"slo_attainment", fmtDouble(r.sloAttainment), false},
             {"util_mean", fmtDouble(r.utilMean), false},
             {"util_max", fmtDouble(r.utilMax), false},
             {"imbalance", fmtDouble(r.imbalance), false}});
        return fields;
    }
    fields = {{"workload", r.tenant, true},
              {"technique", r.technique, true}};
    if (format == RowFormat::Aging) {
        // The age axis sits right after the identity columns so
        // grouped (workload, technique) blocks read as age ladders.
        fields.insert(
            fields.end(),
            {{"pre_wear_cycles", u64(r.preWearCycles), false},
             {"retention_days", fmtDouble(r.retentionDays), false}});
    }
    fields.insert(fields.end(), tails.begin(), tails.end());
    if (format == RowFormat::Aging) {
        const reliability::ReliabilityStats &s = r.rel;
        fields.insert(
            fields.end(),
            {{"retried_reads", u64(s.retriedReads), false},
             {"ecc_retries", u64(s.eccRetries), false},
             {"soft_decodes", u64(s.softDecodes), false},
             {"uncorrectable_reads", u64(s.uncorrectableReads), false},
             {"retired_blocks", u64(s.retiredBlocks), false},
             {"scrub_passes", u64(s.scrubPasses), false},
             {"scrub_refreshes", u64(s.scrubRefreshes), false}});
    }
    return fields;
}

std::vector<std::vector<Field>>
scenarioFieldRows(const std::vector<ScenarioRow> &rows, RowFormat format)
{
    std::vector<std::vector<Field>> out;
    out.reserve(rows.size());
    for (const ScenarioRow &row : rows)
        out.push_back(scenarioFields(row, format));
    return out;
}

} // namespace

std::vector<ScenarioRow>
makeRows(const Scenario &scenario, const cluster::ClusterSnapshot &snap)
{
    using cluster::RoutedJob;

    // Warm traffic lives in the per-device histories (forked from
    // the warm images); snap.routed holds exactly the measured jobs,
    // so every reduction below is over the routed record.
    Tick maxEnd = snap.base;
    for (std::size_t r = 0; r < snap.routed.size(); ++r)
        maxEnd = std::max(maxEnd, snap.result(r).end);
    const Tick span = maxEnd - snap.base;
    const double spanSec = ticksToSeconds(span);

    ScenarioRow proto;
    proto.label = scenario.label;
    proto.placement = scenario.placement;
    proto.devices = snap.devices.size();
    proto.makespanMs = ticksToUs(span) / 1000.0;
    if (!scenario.devices.empty()) {
        const ReliabilityConfig &age =
            scenario.devices.front().options.config.reliability;
        proto.preWearCycles = age.preWearCycles;
        proto.retentionDays = age.retentionDays;
    }
    for (const DeviceSnapshot &d : snap.devices) {
        const reliability::ReliabilityStats &s = d.reliability;
        proto.rel.retriedReads += s.retriedReads;
        proto.rel.eccRetries += s.eccRetries;
        proto.rel.softDecodes += s.softDecodes;
        proto.rel.uncorrectableReads += s.uncorrectableReads;
        proto.rel.retiredBlocks += s.retiredBlocks;
        proto.rel.scrubPasses += s.scrubPasses;
        proto.rel.scrubRefreshes += s.scrubRefreshes;
        proto.rel.wearLevelMigrations += s.wearLevelMigrations;
    }

    // Cell-level balance: per-device job residency and routed-job
    // counts over the measured span.
    std::vector<double> residency(snap.devices.size(), 0.0);
    std::vector<std::uint64_t> perDev(snap.devices.size(), 0);
    for (std::size_t r = 0; r < snap.routed.size(); ++r) {
        const RoutedJob &j = snap.routed[r];
        const JobResult &jr = snap.result(r);
        const Tick busy =
            jr.end > jr.admitted ? jr.end - jr.admitted : 0;
        residency[j.device] += ticksToSeconds(busy);
        ++perDev[j.device];
    }
    std::uint64_t maxRouted = 0;
    for (std::size_t d = 0; d < perDev.size(); ++d) {
        maxRouted = std::max(maxRouted, perDev[d]);
        const double util =
            spanSec > 0.0 ? residency[d] / spanSec : 0.0;
        proto.utilMean += util;
        proto.utilMax = std::max(proto.utilMax, util);
    }
    proto.utilMean /= static_cast<double>(snap.devices.size());
    proto.imbalance = snap.routed.empty()
        ? 0.0
        : static_cast<double>(snap.devices.size()) *
            static_cast<double>(maxRouted) /
            static_cast<double>(snap.routed.size());

    // Per-scope reductions: index 0 is the fleet, 1.. the tenants.
    const std::vector<Tenant> &tenants = scenario.tenants;
    const std::size_t scopes = 1 + tenants.size();
    std::vector<ScenarioRow> rows(scopes, proto);
    std::vector<Histogram> lat(scopes);
    std::vector<std::vector<double>> sojournsMs(scopes);
    std::vector<double> sojournSum(scopes, 0.0);
    std::vector<std::uint64_t> attained(scopes, 0);

    for (std::size_t r = 0; r < snap.routed.size(); ++r) {
        const RoutedJob &j = snap.routed[r];
        const JobResult &jr = snap.result(r);
        const double sojournMs = ticksToUs(jr.sojourn()) / 1000.0;
        const double sloMs =
            j.tenant < tenants.size() ? tenants[j.tenant].sloMs : 0.0;
        const bool ok = sloMs <= 0.0 || sojournMs <= sloMs;
        const std::size_t scope = 1 + j.tenant;
        for (std::size_t s : {std::size_t{0}, scope}) {
            if (s >= scopes)
                continue;
            ++rows[s].jobs;
            lat[s].merge(jr.result.latencyUs);
            sojournsMs[s].push_back(sojournMs);
            sojournSum[s] += sojournMs;
            if (ok)
                ++attained[s];
        }
    }

    double weightSum = 0.0;
    for (const Tenant &t : tenants)
        weightSum += t.weight;

    for (std::size_t s = 0; s < scopes; ++s) {
        ScenarioRow &row = rows[s];
        if (s == 0) {
            row.tenant = "fleet";
            row.jobsPerSec = scenario.jobsPerSec;
        } else {
            const Tenant &t = tenants[s - 1];
            row.tenant = tenantName(t);
            row.technique = t.technique;
            row.jobsPerSec = weightSum > 0.0
                ? scenario.jobsPerSec * t.weight / weightSum
                : 0.0;
            row.sloMs = t.sloMs;
        }
        row.throughputJobsPerSec = spanSec > 0.0
            ? static_cast<double>(row.jobs) / spanSec
            : 0.0;
        row.meanSojournMs = row.jobs == 0
            ? 0.0
            : sojournSum[s] / static_cast<double>(row.jobs);
        row.p50Us = lat[s].count() ? lat[s].percentile(50) : 0.0;
        row.p99Us = lat[s].count() ? lat[s].percentile(99) : 0.0;
        row.p9999Us =
            lat[s].count() ? lat[s].percentile(99.99) : 0.0;
        row.sojournP99Ms = nearestRankOf(sojournsMs[s], 99.0);
        row.sloAttainment = row.jobs == 0
            ? 1.0
            : static_cast<double>(attained[s]) /
                static_cast<double>(row.jobs);
    }
    return rows;
}

void
writeRowsCsv(std::ostream &os, const std::vector<ScenarioRow> &rows,
             RowFormat format)
{
    writeFieldCsv(os, scenarioFieldRows(rows, format));
}

void
writeRowsJson(std::ostream &os, const std::vector<ScenarioRow> &rows,
              RowFormat format)
{
    writeFieldJson(os, scenarioFieldRows(rows, format));
}

bool
writeRowsCsvFile(const std::string &path,
                 const std::vector<ScenarioRow> &rows, RowFormat format)
{
    return writeFile(path,
                     [&](auto &os) { writeRowsCsv(os, rows, format); });
}

bool
writeRowsJsonFile(const std::string &path,
                  const std::vector<ScenarioRow> &rows, RowFormat format)
{
    return writeFile(path,
                     [&](auto &os) { writeRowsJson(os, rows, format); });
}

double
gmean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

void
printHeader(const std::vector<std::string> &columns)
{
    std::printf("%-18s", "workload");
    for (const auto &c : columns)
        std::printf(" %14s", c.c_str());
    std::printf("\n");
}

} // namespace conduit::runner
