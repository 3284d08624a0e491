#include "src/runner/sweep_cli.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "src/offload/policy.hh"

namespace conduit::runner
{

namespace
{

[[noreturn]] void
usage(const char *prog, int code, const char *extra_usage = nullptr)
{
    std::fprintf(
        stderr,
        "usage: %s [--threads N] [--scale X] [--workloads a,b]\n"
        "          [--techniques a,b] [--csv PATH] [--json PATH]\n"
        "          [--cell-perf PATH] [--trace PATH]\n"
        "          [--trace-filter cat,cat] [--list-workloads]\n"
        "          [--list-techniques] [--list-policies]\n",
        prog);
    if (extra_usage)
        std::fputs(extra_usage, stderr);
    std::exit(code);
}

[[noreturn]] void
badValue(const char *prog, const std::string &flag,
         const std::string &value)
{
    std::fprintf(stderr, "%s: invalid value for %s: '%s'\n", prog,
                 flag.c_str(), value.c_str());
    usage(prog, 2);
}

/** parseUintFlag into an unsigned, or usage-exit. */
unsigned
parseUnsigned(const char *prog, const std::string &flag,
              const std::string &value)
{
    const auto v =
        parseUintFlag(value, std::numeric_limits<unsigned>::max());
    if (!v)
        badValue(prog, flag, value);
    return static_cast<unsigned>(*v);
}

/** parseDoubleFlag, or usage-exit. */
double
parseDouble(const char *prog, const std::string &flag,
            const std::string &value)
{
    const auto v = parseDoubleFlag(value);
    if (!v)
        badValue(prog, flag, value);
    return *v;
}

/** Report a failed write of @p path on stderr; 1 when it failed. */
int
wrote(bool ok, const std::string &path)
{
    if (ok)
        return 0;
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    return 1;
}

/**
 * Write @p perf's per-cell rows to @p path as CSV
 * (label,wall_seconds,events_fired,events_per_sec).
 * @return false when the file could not be written.
 */
bool
writeCellPerfCsv(const std::string &path, const SweepPerf &perf)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "label,wall_seconds,events_fired,events_per_sec\n");
    for (const SweepPerf::CellPerf &c : perf.perCell)
        std::fprintf(f, "%s,%.6f,%llu,%.0f\n", c.label.c_str(),
                     c.wallSeconds,
                     static_cast<unsigned long long>(c.eventsFired),
                     c.eventsPerSec());
    return std::fclose(f) == 0;
}

/** Service --trace @p path (if set) from @p runner's last sweep. */
int
writeTraces(const std::string &path, const SweepRunner &runner)
{
    if (path.empty())
        return 0;
    return wrote(trace::writeTraceFile(path, runner.lastTraces()), path);
}

} // namespace

SweepCli
SweepCli::parse(int argc, char **argv, const FlagHandler &extra,
                const char *extra_usage)
{
    SweepCli cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::function<std::string()> value =
            [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             argv[0], arg.c_str());
                usage(argv[0], 2, extra_usage);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            usage(argv[0], 0, extra_usage);
        else if (arg == "--list-workloads")
            cli.listWorkloads = true;
        else if (arg == "--list-techniques")
            cli.listTechniques = true;
        else if (arg == "--list-policies")
            listAndExit(policyNames());
        else if (arg == "--threads")
            cli.threads = parseUnsigned(argv[0], arg, value());
        else if (arg == "--scale")
            cli.scale = parseDouble(argv[0], arg, value());
        else if (arg == "--workloads")
            cli.workloadFilter = value();
        else if (arg == "--techniques")
            cli.techniqueFilter = value();
        else if (arg == "--csv")
            cli.csvPath = value();
        else if (arg == "--json")
            cli.jsonPath = value();
        else if (arg == "--cell-perf")
            cli.cellPerfPath = value();
        else if (arg == "--trace")
            cli.tracePath = value();
        else if (arg == "--trace-filter") {
            cli.traceFilter = value();
            if (!trace::parseCategories(cli.traceFilter))
                badValue(argv[0], arg, cli.traceFilter);
        }
        else if (extra && extra(arg, value))
            continue;
        else {
            std::fprintf(stderr, "%s: unknown flag %s\n", argv[0],
                         arg.c_str());
            usage(argv[0], 2, extra_usage);
        }
    }
    return cli;
}

SweepOptions
SweepCli::runnerOptions() const
{
    SweepOptions opts;
    opts.threads = threads;
    if (!tracePath.empty()) {
        // parse() already validated the filter, so the optional is
        // always engaged here; empty filter means every category.
        opts.trace.categories =
            traceFilter.empty()
                ? trace::kAllCategories
                : *trace::parseCategories(traceFilter);
    }
    return opts;
}

void
listAndExit(const std::vector<std::string> &labels)
{
    std::vector<std::string> seen;
    for (const auto &l : labels) {
        if (std::find(seen.begin(), seen.end(), l) != seen.end())
            continue;
        seen.push_back(l);
        std::printf("%s\n", l.c_str());
    }
    std::exit(0);
}

void
SweepCli::configure(RunMatrix &matrix,
                    const std::string &baseline) const
{
    if (listWorkloads)
        listAndExit(matrix.workloadLabels());
    if (listTechniques)
        listAndExit(matrix.techniqueLabels());
    WorkloadParams p;
    p.scale = scale;
    matrix.params(p);
    if (!reportUnknown(splitCsv(workloadFilter),
                       matrix.workloadLabels(), "workload") ||
        !reportUnknown(splitCsv(techniqueFilter),
                       matrix.techniqueLabels(), "technique"))
        std::exit(2);
    matrix.filterWorkloads(workloadFilter);
    std::string techniques = techniqueFilter;
    if (!techniques.empty() && !baseline.empty()) {
        const auto labels = splitCsv(techniques);
        if (std::find(labels.begin(), labels.end(), baseline) ==
            labels.end())
            techniques += "," + baseline;
    }
    matrix.filterTechniques(techniques);
}

int
SweepCli::finish(const SweepResult &sweep,
                 const SweepRunner &runner) const
{
    int status = 0;
    if (!csvPath.empty())
        status |= wrote(sweep.writeCsvFile(csvPath), csvPath);
    if (!jsonPath.empty())
        status |= wrote(sweep.writeJsonFile(jsonPath), jsonPath);
    if (!cellPerfPath.empty())
        status |= wrote(writeCellPerfCsv(cellPerfPath, runner.lastPerf()),
                        cellPerfPath);
    status |= writeTraces(tracePath, runner);
    std::fprintf(stderr,
                 "[sweep] %zu runs on %u thread%s in %.2fs\n",
                 sweep.size(), sweep.threads(),
                 sweep.threads() == 1 ? "" : "s",
                 sweep.wallSeconds());
    return status;
}

int
SweepCli::finish(const std::vector<ScenarioRow> &rows, RowFormat format,
                 const SweepRunner &runner) const
{
    int status = 0;
    const SweepPerf perf = runner.lastPerf();
    if (!csvPath.empty())
        status |= wrote(writeRowsCsvFile(csvPath, rows, format), csvPath);
    if (!jsonPath.empty())
        status |=
            wrote(writeRowsJsonFile(jsonPath, rows, format), jsonPath);
    if (!cellPerfPath.empty())
        status |= wrote(writeCellPerfCsv(cellPerfPath, perf), cellPerfPath);
    status |= writeTraces(tracePath, runner);
    // Warm-phase cost is wall-clock (nondeterministic), so it goes to
    // stderr with the sweep time; stdout stays byte-identical.
    if (perf.warmupImages > 0)
        std::fprintf(stderr,
                     "warmup: %zu image(s) built once in %.3f s, "
                     "forked across %zu cells\n",
                     perf.warmupImages, perf.warmupSeconds, perf.cells);
    std::fprintf(stderr, "[sweep] %zu cells in %.2fs\n", perf.cells,
                 perf.wallSeconds);
    return status;
}

std::optional<std::uint64_t>
parseUintFlag(const std::string &value, std::uint64_t max)
{
    if (value.empty() || value[0] < '0' || value[0] > '9')
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (errno != 0 || *end != '\0' || v > max)
        return std::nullopt;
    return v;
}

std::optional<double>
parseDoubleFlag(const std::string &value)
{
    if (value.empty() || value[0] < '0' || value[0] > '9')
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(value.c_str(), &end);
    if (errno != 0 || *end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

} // namespace conduit::runner
