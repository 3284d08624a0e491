/**
 * @file
 * Simulated-time tracing: structured events from Engine, Device and
 * Cluster, recorded in simulated time only.
 *
 * A Tracer is a passive event sink. Hook points in the simulation
 * call record() with already-computed simulated quantities; a hook
 * never acquires a resource calendar, never schedules an event, and
 * never reads a wall clock, so a traced run's simulated outputs are
 * byte-identical to the untraced run's. The disabled fast path is a
 * null-pointer check at each hook site.
 *
 * Categories gate whole event families (per-job lifecycle spans,
 * per-instruction resource occupancy, reliability events, queue-depth
 * samples, fleet placement decisions) so a trace of one concern stays
 * small. Events carry interned string tags (stream/tenant names,
 * placement snapshots) by index — a trace of 10^5 jobs of one tenant
 * stores the tenant name once.
 *
 * Snapshot semantics: trace buffers are never part of a DeviceImage.
 * Engine/Device/NandArray hold the tracer as transient wiring
 * (annotated for conduit-lint's snapshot check); a device forked from
 * an image starts with no tracer attached and therefore an empty
 * trace.
 */

#ifndef CONDUIT_TRACE_TRACE_HH
#define CONDUIT_TRACE_TRACE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/types.hh"

namespace conduit::trace
{

/** Event families, combinable as a bitmask in TraceConfig. */
enum class Category : std::uint32_t
{
    /** Per-job lifecycle spans (arrival → admission → completion). */
    Job = 1u << 0,

    /** Per-instruction resource-occupancy intervals + host drains. */
    Occupancy = 1u << 1,

    /** ECC-retry stalls, scrub / wear-level passes. */
    Reliability = 1u << 2,

    /** Queue-depth and die-backlog samples at the sample cadence. */
    Queue = 1u << 3,

    /** Fleet placement decisions (policy, probe snapshot, device). */
    Placement = 1u << 4,
};

/** Every category bit. */
constexpr std::uint32_t kAllCategories = 0x1Fu;

/** Tracing knobs (plumbed through SweepOptions). */
struct TraceConfig
{
    /** Enabled categories (Category bits); 0 disables tracing. */
    std::uint32_t categories = 0;

    /**
     * Simulated-tick cadence of the Queue samples. Samples piggyback
     * on existing hook points (dispatch, admission, retirement), so
     * the cadence bounds sample density without scheduling events.
     */
    Tick sampleInterval = usToTicks(100);

    bool enabled() const { return categories != 0; }
};

/** Category display names, in bit order (CSV filter vocabulary). */
const std::vector<std::string> &categoryNames();

/**
 * Parse a comma-separated category list ("job,occupancy") into a
 * bitmask; empty input means every category. Returns nullopt on an
 * unknown name.
 */
std::optional<std::uint32_t> parseCategories(const std::string &csv);

/** What one trace event describes. */
enum class EventKind : std::uint8_t
{
    /** One job's lifecycle span. start=arrival, end=retire-end,
     *  a=job id, b=admitted tick, c=region pages, str=job name. */
    Job,

    /** One instruction's occupancy interval. start=ready (dispatched
     *  + operands available), end=completion, a=instruction id,
     *  b=opcode, c=target resource, lane=die (IFP targets),
     *  str=stream name. */
    Instr,

    /** One end-of-stream result drain to the host over PCIe.
     *  start=drain begin, end=last page landed, a=pages drained,
     *  str=stream name. */
    HostDrain,

    /** One ECC-retry-ladder stall charged as die-busy time.
     *  start/end=the stretched sense interval, lane=die, a=block
     *  index, b=penalty ticks beyond nominal tR. */
    EccStall,

    /** One background scrub pass (instant). a=blocks refreshed,
     *  b=wear-level migrations. */
    Scrub,

    /** Engine backlog sample (instant). a=ISP backlog ticks, b=DRAM
     *  bank backlog ticks, c=max die backlog ticks, lane=busy-die
     *  fraction in ppm. */
    BacklogSample,

    /** Device admission-queue sample (instant). a=pending jobs,
     *  b=jobs waiting for capacity, c=admitted pages. */
    JobQueueSample,

    /** One fleet placement decision (instant). device=chosen device,
     *  a=tenant, b=device-local job id, c=chosen device's pending
     *  jobs at the probe, str=policy name + probe snapshot. */
    Placement,
};

/**
 * One structured trace event. Instants carry start == end. All
 * times are simulated ticks; field meanings are per EventKind.
 */
struct Event
{
    Category cat = Category::Job;
    EventKind kind = EventKind::Job;
    std::uint32_t device = 0;
    std::uint32_t lane = 0;
    Tick start = 0;
    Tick end = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    /** Interned tag index (0 = the empty string). */
    std::uint32_t str = 0;
};

/**
 * The event sink. One Tracer records one cell's events, in the
 * deterministic order the (sequential) simulation produced them —
 * exporters preserve that order, so trace files are bit-identical
 * across host thread counts and repeats.
 *
 * Not thread-safe: attach one Tracer to one cell's simulation (the
 * sweep runner creates one per traced cell).
 */
class Tracer
{
  public:
    explicit Tracer(TraceConfig cfg = {}) : cfg_(cfg)
    {
        strings_.emplace_back(); // index 0: the empty tag
    }

    const TraceConfig &config() const { return cfg_; }

    /** Hook-site gate: is @p c's event family being recorded? */
    bool
    wants(Category c) const
    {
        return (cfg_.categories & static_cast<std::uint32_t>(c)) != 0;
    }

    /** Simulated cadence of the Queue samples. */
    Tick sampleInterval() const { return cfg_.sampleInterval; }

    void record(const Event &e) { events_.push_back(e); }

    /** Intern @p s, returning its stable tag index. */
    std::uint32_t
    intern(const std::string &s)
    {
        if (s.empty())
            return 0;
        const auto it = internIndex_.find(s);
        if (it != internIndex_.end())
            return it->second;
        const auto idx = static_cast<std::uint32_t>(strings_.size());
        strings_.push_back(s);
        internIndex_.emplace(s, idx);
        return idx;
    }

    const std::vector<Event> &events() const { return events_; }
    const std::vector<std::string> &strings() const { return strings_; }

    const std::string &
    tag(std::uint32_t idx) const
    {
        return strings_.at(idx);
    }

  private:
    TraceConfig cfg_;
    std::vector<Event> events_;
    /** Interned tags, index order (0 = ""). */
    std::vector<std::string> strings_;
    /** Lookup-only reverse index (never iterated). */
    std::unordered_map<std::string, std::uint32_t> internIndex_;
};

/**
 * Per-instruction timeline reconstructed from a Tracer's Instr
 * events, in recorded (dispatch) order — the drop-in successor of
 * RunResult's retired resourceTrace/opTrace/completionTrace vectors.
 * For a single-stream run, dispatch order equals instruction-id
 * order, so completion[i] is instruction i's completion tick.
 */
struct InstructionTimeline
{
    std::vector<std::uint8_t> resource;
    std::vector<std::uint8_t> op;
    std::vector<Tick> completion;

    std::size_t size() const { return resource.size(); }
};

/**
 * Collect @p t's Instr events into an InstructionTimeline. A
 * non-empty @p stream keeps only events tagged with that stream
 * name (multi-stream cells interleave dispatches).
 */
InstructionTimeline instructionTimeline(const Tracer &t,
                                        const std::string &stream = "");

} // namespace conduit::trace

#endif // CONDUIT_TRACE_TRACE_HH
