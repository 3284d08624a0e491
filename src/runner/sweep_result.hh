/**
 * @file
 * Sweep result aggregation and emission.
 *
 * SweepResult pairs every RunSpec with its RunResult in spec order
 * (independent of how the sweep was scheduled across threads) and
 * owns the result-emission layer the benches share: machine-readable
 * CSV / JSON rows plus the table-formatting helpers that used to be
 * copy-pasted into bench/common.hh.
 */

#ifndef CONDUIT_RUNNER_SWEEP_RESULT_HH
#define CONDUIT_RUNNER_SWEEP_RESULT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "src/cluster/cluster.hh"
#include "src/runner/run_spec.hh"

namespace conduit::runner
{

/** All rows of one executed sweep, in matrix (spec) order. */
class SweepResult
{
  public:
    SweepResult() = default;
    SweepResult(std::vector<RunSpec> specs,
                std::vector<RunResult> results, double wall_seconds,
                unsigned threads);

    std::size_t size() const { return results_.size(); }

    const std::vector<RunSpec> &specs() const { return specs_; }
    const std::vector<RunResult> &results() const { return results_; }

    const RunSpec &spec(std::size_t i) const { return specs_.at(i); }
    const RunResult &result(std::size_t i) const
    {
        return results_.at(i);
    }

    /** First row matching the labels, or nullptr. */
    const RunResult *find(const std::string &workload,
                          const std::string &technique) const;

    /** Like find(), but throws std::out_of_range when absent. */
    const RunResult &at(const std::string &workload,
                        const std::string &technique) const;

    /** Distinct workload labels in first-appearance order. */
    std::vector<std::string> workloadLabels() const;

    /** Distinct technique labels in first-appearance order. */
    std::vector<std::string> techniqueLabels() const;

    /** Host wall-clock the sweep took (not simulated time). */
    double wallSeconds() const { return wallSeconds_; }

    /** Worker threads the sweep actually used. */
    unsigned threads() const { return threads_; }

    /**
     * Emit one CSV row per run (stable header, spec order). Output
     * is byte-identical for identical specs regardless of the
     * thread count the sweep ran with.
     */
    void writeCsv(std::ostream &os) const;

    /** Emit a JSON array of row objects (same fields as the CSV). */
    void writeJson(std::ostream &os) const;

    /** @name Convenience file variants @{ */
    bool writeCsvFile(const std::string &path) const;
    bool writeJsonFile(const std::string &path) const;
    /** @} */

  private:
    std::vector<RunSpec> specs_;
    std::vector<RunResult> results_;
    double wallSeconds_ = 0.0;
    unsigned threads_ = 1;
};

/**
 * One emitted row of a scenario sweep. A cell reduces to one "fleet"
 * row (every routed job) followed by one row per tenant (its share of
 * the load, its tail, its SLO attainment). Cell-level columns repeat
 * on every row so each row is self-describing; a RowFormat picks the
 * columns a bench emits.
 */
struct ScenarioRow
{
    /** Cell label (Scenario::label). */
    std::string label;

    /** Placement policy the cell routed with. */
    std::string placement;

    /** Fleet size (devices). */
    std::size_t devices = 0;

    /** "fleet" for the aggregate row, else the tenant's name. */
    std::string tenant;

    /** The tenant's policy; empty on the fleet row. */
    std::string technique;

    /** Offered load for this row's scope (jobs per simulated sec). */
    double jobsPerSec = 0.0;

    /** Jobs this row's scope completed (measured phase only). */
    std::uint64_t jobs = 0;

    /** Measured span (fleet epoch to the last routed job's end). */
    double makespanMs = 0.0;

    /** Achieved completion rate for this row's scope. */
    double throughputJobsPerSec = 0.0;

    /** Mean job arrival-to-completion time for this row's scope. */
    double meanSojournMs = 0.0;

    /** Per-request (instruction) latency tail for this scope. */
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p9999Us = 0.0;

    /** Job-sojourn tail for this scope (SLOs are sojourn-based). */
    double sojournP99Ms = 0.0;

    /** Tenant SLO (ms); 0 on the fleet row and SLO-less tenants. */
    double sloMs = 0.0;

    /** Fraction of jobs meeting their SLO (1.0 when none is set;
     *  the fleet row weights tenants by completed jobs). */
    double sloAttainment = 1.0;

    /** @name Cell-level columns (same values on every row) @{ */

    /** Mean/max per-device occupancy: sum of per-job residency
     *  (end - admitted) over the measured span. */
    double utilMean = 0.0;
    double utilMax = 0.0;

    /** Routing imbalance: devices * max routed / total routed
     *  (1.0 = perfectly even). */
    double imbalance = 0.0;

    /** Age of the cell's first device. */
    std::uint32_t preWearCycles = 0;
    double retentionDays = 0.0;

    /** Reliability outcomes summed over the cell's devices. */
    reliability::ReliabilityStats rel;

    /** @} */
};

/** Reduce an executed scenario to its rows (fleet + tenants). */
std::vector<ScenarioRow> makeRows(const Scenario &scenario,
                                  const cluster::ClusterSnapshot &snap);

/** Which columns a row bench emits. */
enum class RowFormat
{
    /** workload (= tenant), technique, load, throughput, tails. */
    Load,
    /** Load columns plus the device age and reliability outcomes. */
    Aging,
    /** Cell, placement and tenant identity, tails, SLO, balance. */
    Fleet,
};

/** @name Row emission (byte-identical for identical scenarios, any
 *  thread count) @{ */
void writeRowsCsv(std::ostream &os, const std::vector<ScenarioRow> &rows,
                  RowFormat format);
void writeRowsJson(std::ostream &os,
                   const std::vector<ScenarioRow> &rows,
                   RowFormat format);
bool writeRowsCsvFile(const std::string &path,
                      const std::vector<ScenarioRow> &rows,
                      RowFormat format);
bool writeRowsJsonFile(const std::string &path,
                       const std::vector<ScenarioRow> &rows,
                       RowFormat format);
/** @} */

/** Geometric mean of a vector of ratios (0 if empty). */
double gmean(const std::vector<double> &xs);

/** Print a header row for a workload-major table to stdout. */
void printHeader(const std::vector<std::string> &columns);

} // namespace conduit::runner

#endif // CONDUIT_RUNNER_SWEEP_RESULT_HH
