/**
 * @file
 * The Conduit runtime engine (§4.3.2, §4.4).
 *
 * Executes one or more vectorized programs ("streams", tenants) on
 * the simulated SSD under per-stream offloading policies. Per
 * instruction, the engine:
 *
 *  1. services the offloader pipeline stage (feature collection +
 *     instruction transformation, charged per §4.5 on a dedicated
 *     controller core),
 *  2. computes the six cost-function features of Table 1 and asks
 *     the policy for a target resource,
 *  3. moves operands to the target (lazy coherence: flash / page
 *     buffer latches / SSD DRAM, with owner/dirty/version metadata
 *     at logical-page granularity) along one per-page route table,
 *     the table the movement feature is folded from too,
 *  4. reserves the target's execution resources (dies, banks, the
 *     compute core) FCFS — contention and queueing emerge from the
 *     reservation calendars, and
 *  5. records completion, energy, and trace data.
 *
 * Execution is event-driven: the engine sequences every stream's
 * dispatch pipeline as a chain of events on its session EventQueue.
 * A dispatch event runs one instruction's pipeline, then schedules
 * that instruction's completion event and the stream's next dispatch
 * event. With a single stream the event chain degenerates to the
 * exact call sequence of a serial instruction loop, so single-stream
 * results are byte-identical to a serial engine. With N streams, the
 * queue interleaves
 * dispatches across tenants in simulated-time order, and the
 * CostFeatures queue/bandwidth terms — live reads of the shared
 * Server/ServerGroup calendars — automatically expose cross-tenant
 * contention to every policy.
 *
 * The Ideal mode (§5.3) bypasses movement, queueing and overheads,
 * providing the unrealizable upper bound.
 */

#ifndef CONDUIT_CORE_ENGINE_HH
#define CONDUIT_CORE_ENGINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/exec_context.hh"
#include "src/core/latch_fifo.hh"
#include "src/core/run_result.hh"
#include "src/dram/dram.hh"
#include "src/dram/pud_unit.hh"
#include "src/energy/energy_model.hh"
#include "src/ftl/ftl.hh"
#include "src/ir/instruction.hh"
#include "src/isp/isp_core.hh"
#include "src/nand/ifp_unit.hh"
#include "src/nand/nand.hh"
#include "src/offload/policy.hh"
#include "src/reliability/reliability.hh"
#include "src/sim/config.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/flat_lru.hh"
#include "src/sim/rng.hh"
#include "src/sim/stats.hh"

namespace conduit
{

namespace trace
{
class Tracer;
}

/**
 * The engine's own mutable session state — everything a DeviceImage
 * fork must continue from besides the substrates and the StatSet:
 * the session's options, the RNG stream position, the offloader and
 * PCIe calendars, the coherence metadata and latch FIFOs, the
 * DRAM-staging LRU, and the scrub-task cursor. Engine holds it as its
 * private base, so capture copies it and restore assigns it.
 */
struct EngineState
{
    /** Where the freshest copy of a logical page lives. */
    enum class Loc : std::uint8_t { Flash, Latch, Dram };

    /** Lazy-coherence metadata (§4.4): owner, state, version. */
    struct PageMeta
    {
        Loc loc = Loc::Flash;
        bool dirty = false;
        std::uint8_t version = 0;
        bool dramCached = false;  // clean copy staged in SSD DRAM
        std::uint32_t latchDie = 0;
    };

    EngineOptions opts_;
    Rng rng_;

    Server offloader_;
    Server pcie_;

    std::vector<PageMeta> pageMeta_;
    LatchFifos latchFifo_;

    // DRAM staging region LRU (capacity-limited page residency,
    // shared by all streams — capacity pressure is device-wide).
    // FlatLru, not RankLru: with the default (near-unbounded)
    // staging fraction evictions are rare, so O(1) touches beat
    // paying a Fenwick update per touch for a cheaper walk that
    // almost never runs — measured ~35% slower on the open-loop
    // saturation scenario with RankLru here. HostModel's cache is
    // the opposite regime (constant evictions) and uses RankLru.
    std::uint64_t dramCapacityPages_ = 0;
    FlatLru dramLru_;

    /** @name Scrub-task cursor (inert with reliability disabled) @{ */
    Tick nextScrubAt_ = 0;
    std::uint64_t scrubCursor_ = 0;
    /** @} */
};

/**
 * The runtime engine: the simulated SSD's substrates plus the
 * per-instruction dispatch pipeline. core::Device is its only driver —
 * it opens one session, attaches jobs as streams and finishes them.
 */
class Engine : private EngineState
{
  public:
    using State = EngineState;

    /** Dispatch events outrank completion events at the same tick. */
    static constexpr int kDispatchPriority = 0;
    static constexpr int kCompletionPriority = 1;

    /** Invoked inside a stream's final completion event, after which
     *  the engine never touches the context: the callee may free it. */
    using StreamDone = std::function<void(ExecContext &)>;

    explicit Engine(const SsdConfig &cfg);

    /**
     * @name Session API
     *
     * One prepared SSD accepts streams ("jobs") over its lifetime.
     * Streams attach at arbitrary simulated ticks into caller-
     * assigned page regions, the shared event queue persists between
     * job submissions, and a finished stream's region can be
     * reclaimed for later jobs. A batch run is the special case of
     * every stream attached at tick 0 and finished in attach order at
     * quiescence.
     * @{
     */

    /**
     * Open a session: prepare a fresh device whose logical-page pool
     * spans @p capacity_pages, with a fresh event queue. Streams of
     * any previous session must not be resumed.
     */
    void sessionBegin(std::uint64_t capacity_pages,
                      const EngineOptions &opts);

    /**
     * Attach a stream running @p prog under @p policy, labelled
     * @p name (the program's name when empty), in the region
     * [base_page, base_page + footprint), and schedule its first
     * dispatch at @p arrival. Same-tick first dispatches fire in
     * attach order. An empty program is finished on attach and never
     * dispatches. The caller owns @p ctx (fresh), the program and the
     * policy; none may move or die before the stream finishes. It
     * also assigns regions: concurrent streams' must not overlap.
     */
    void sessionAttach(ExecContext &ctx, const Program &prog,
                       OffloadPolicy &policy, const std::string &name,
                       std::uint64_t base_page, Tick arrival);

    /**
     * Register the callback fired when a stream finishes (every
     * instruction dispatched and every completion event fired). It
     * runs inside the final completion event, so a persistent device
     * can retire the job at a deterministic point in simulated time.
     * Survives sessionBegin() and restoreImage().
     */
    void setStreamDone(StreamDone cb) { streamDone_ = std::move(cb); }

    /**
     * Finish one stream: apply the Ideal aggregate-capacity clamp or
     * drain dirty result pages to the host, then finalize its
     * RunResult (instruction count, execTime, energy). Call once per
     * stream, after its last completion event fired.
     * @return The stream's end tick (drain included).
     */
    Tick sessionFinish(ExecContext &ctx);

    /**
     * Return a finished stream's page region to a reusable state:
     * coherence metadata reset, DRAM-staging and latch residency
     * purged. The FTL keeps its mappings (a later job's writes go
     * out-of-place as usual) and wear state — the device has
     * history, unlike a fresh Engine.
     */
    void sessionReclaim(std::uint64_t base_page, std::uint64_t pages);

    /** The session's event queue (valid after sessionBegin). */
    EventQueue &sessionQueue() { return *queue_; }
    const EventQueue &sessionQueue() const { return *queue_; }

    /** @} */

    /**
     * Feature vector for @p instr at time @p now (testable). The
     * queue/bandwidth terms are live views of the shared resource
     * calendars; during a multi-stream run they include every other
     * tenant's outstanding reservations. Page addressing and the
     * dependence term follow the dispatching stream; probed between
     * dispatches, the whole page pool is addressed and the
     * dependence delay is zero.
     */
    CostFeatures features(const VecInstruction &instr, Tick now);

    /**
     * @name Route table and movement fold
     *
     * Pure functions of a page's coherence state, behind feature (5)
     * and operand movement.
     * @{
     */

    /** One leg of a source page's trip to a compute target. */
    enum class Hop : std::uint8_t
    {
        Sense,      // array read into the die's page buffer
        ChannelOut, // page buffer -> controller over the channel
        ChannelIn,  // controller -> the page's die latch
        DramWrite,  // stage the page in an SSD DRAM bank
        DramStream, // ISP load path reads a DRAM-resident page
    };

    /** Where the freshest copy lives once a route's hops are done. */
    enum class Lands : std::uint8_t
    {
        InPlace,   // residency unchanged
        DramCopy,  // a clean copy is now staged in SSD DRAM
        Dram,      // the fresh copy moved to SSD DRAM
        Latch,     // the fresh copy moved into its die's latch
        Flash,     // the array copy is valid again
    };

    /** The ordered hops one source page takes to one target. */
    struct Route
    {
        std::array<Hop, 3> hops{};
        std::uint8_t count = 0;
        Lands lands = Lands::InPlace;
    };

    /**
     * The route table (§4.3.2, §4.4): the hops a source page in
     * state @p m takes to @p t. features() folds every page's hops
     * into the no-contention latency_dm; moveOperands() reserves the
     * same hops on the calendars.
     */
    static Route routeFor(const PageMeta &m, Target t);

    /** Coherence states routeFor tells apart: loc x dirty x
     *  dramCached. */
    static constexpr std::size_t kPageStates = 12;

    /** @p m's index among the kPageStates states. */
    static std::size_t
    pageState(const PageMeta &m)
    {
        return (static_cast<std::size_t>(m.loc) * 2 + m.dirty) * 2 +
            m.dramCached;
    }

    /** Page visits per coherence state. */
    using StateCounts = std::array<std::uint64_t, kPageStates>;

    /** Ticks one page spends on each Hop, indexed by Hop. */
    using HopTicks = std::array<Tick, 5>;

    /** Per target: pages that move, and the slowest page's route. */
    struct Movement
    {
        std::array<std::uint64_t, kNumTargets> pages{};
        std::array<Tick, kNumTargets> slowest{};
    };

    /**
     * Fold page visits, counted per state, through the route table.
     * A page costs the sum of its hops; a sum and a max do not depend
     * on visit order, so one route walk per present state gives what
     * a walk per page visit gives.
     */
    static Movement foldMovement(const StateCounts &counts,
                                 const HopTicks &hop);
    /** @} */

    /**
     * Deterministic work counters of the dispatch pipeline, summed
     * since construction. They are host-side cost accounting, not
     * simulated state: they stay out of the StatSet (whose counter
     * names the benchmark digest covers) and out of Images.
     */
    struct Counters
    {
        /** Source-page visits folded into movement features. */
        std::uint64_t foldedPages = 0;
        /** Pages walked while building IFP fragment lists. */
        std::uint64_t fragmentPages = 0;
        /** Latch-FIFO entries compared on IFP writes. */
        std::uint64_t latchScanSteps = 0;
        /** DRAM-staging LRU entries stepped over to pick victims. */
        std::uint64_t lruVictimSteps = 0;
    };

    const Counters &counters() const { return counters_; }

    /** Access to substrate stats after a run. */
    const StatSet &stats() const { return stats_; }

    /**
     * The reliability model, or null when the subsystem is disabled
     * (cfg.reliability.enabled == false, the default).
     */
    const reliability::ReliabilityModel *
    reliability() const
    {
        return rel_.get();
    }

    /**
     * Fraction of NAND dies with outstanding sensing backlog at
     * @p now — the device-utilization component of the host-visible
     * placement probe (Device::probe). A pure read of the die
     * calendars: no event is scheduled and no state changes.
     */
    double busyDieFraction(Tick now) const;

    /**
     * Attach a tracer (null detaches); @p device tags this engine's
     * events in multi-device traces. Tracing wiring is transient: it
     * survives sessionBegin/restoreImage but is never captured in an
     * Image, and hooks only record already-computed simulated
     * quantities — a traced run's simulated outputs are byte-
     * identical to the untraced run's.
     */
    void
    setTracer(trace::Tracer *t, std::uint32_t device = 0)
    {
        tracer_ = t;
        traceId_ = device;
        nextTraceSampleAt_ = 0;
        nand_.setTracer(t, device);
    }

  private:
    /**
     * The dispatch event of @p ctx's next instruction: offloader
     * stage, decision, movement, reservation, recording; then the
     * instruction's completion event and, unless the program is
     * exhausted, the stream's next dispatch event. The event's tick
     * floors shared-resource acquisition so streams arriving mid-run
     * cannot claim pre-arrival capacity.
     */
    void dispatchNext(ExecContext &ctx);

    Tick offloadOverhead(const VecInstruction &instr, Tick now);

    /**
     * Build the dies of @p instr's compute fragments (first
     * operand's pages, live L2P) into frags_ and return them. The
     * list stays valid until the next build.
     */
    const std::vector<IfpFragment> &
    fragmentsFor(const VecInstruction &instr);

    /** Source operands that require array sensing on IFP. */
    std::uint32_t sensedOperands(const VecInstruction &instr) const;

    /** Contention-free compute latency on @p t (feature (6)). */
    Tick compEstimate(const VecInstruction &instr, Target t,
                      const std::vector<IfpFragment> &frags) const;

    /**
     * Move @p instr's source pages to @p target, reserving each
     * page's route from @p earliest and applying its residency
     * change. @return When the last operand is in place.
     */
    Tick moveOperands(const VecInstruction &instr, Target target,
                      Tick earliest);

    /** Charge @p target's compute energy (ISP: @p busy ticks). */
    void computeEnergy(const VecInstruction &instr, Target target,
                       Tick busy);

    /** @name Background scrub (reliability subsystem) @{ */

    /** Scrub events fire after same-tick dispatch/completion/retire. */
    static constexpr int kScrubPriority = 3;

    /**
     * Arm the next scrub event if none is pending. Called from the
     * dispatch path, so scrub activity tracks foreground traffic and
     * the event queue still drains at quiescence (a scrub event
     * never reschedules itself).
     */
    void maybeScheduleScrub(Tick now);

    /** One scrub pass: examine a bounded block window, refresh the
     *  blocks whose RBER crossed the scrub threshold. */
    void scrubPass();
    /** @} */

    /** Commit a dirty DRAM/latch page to the flash array. */
    Tick commitPage(Lpn page, Tick earliest);

    /**
     * Record DRAM residency of @p page, evicting LRU pages beyond
     * the staging capacity (clean copies are dropped, dirty pages
     * are committed in the background — coherence trigger iii).
     */
    void dramTouch(Lpn page, Tick now);

    /** Mark @p page written by @p target at @p when. */
    void recordWrite(Lpn page, Target target, Tick when);

    /** Execute on a specific resource; returns completion time. */
    Tick executeOn(const VecInstruction &instr, Target target,
                   Tick earliest);

    /**
     * Record a Queue backlog sample if the sample cadence elapsed.
     * Piggybacks on dispatch events — pure calendar reads, no
     * scheduling — so sampling never perturbs the simulation.
     */
    void maybeSampleBacklog(Tick now);

    /**
     * Final result drain for one stream's page region, to the host
     * over PCIe (§4.4 trigger ii). The PCIe link is shared: drains
     * of co-run streams serialize on its calendar.
     */
    Tick drainStream(ExecContext &ctx, Tick after);

    /** First absolute LPN of the dispatching stream's region
     *  (Device keeps every operand inside it). */
    Lpn
    streamBase() const
    {
        return ctx_ ? static_cast<Lpn>(ctx_->base) : 0;
    }

    SsdConfig cfg_;
    StatSet stats_;

    /**
     * Reliability & aging model; null when disabled. Declared before
     * the substrate that holds a raw pointer into it (nand_), so it
     * outlives it on destruction.
     */
    std::unique_ptr<reliability::ReliabilityModel> rel_;

    NandArray nand_;
    Ftl ftl_;
    DramModel dram_;
    // lint: transient(stateless latency model derived from config; isp_ carries the mutable core Server)
    PudUnit pud_;
    IspCore isp_;
    // lint: transient(stateless latency model derived from config; die/channel calendars live in nand_)
    IfpUnit ifp_;

    /**
     * The fragment list features() built for the dispatching
     * instruction; executeOn() reuses it for IFP and Ideal.
     */
    // lint: transient(per-instruction scratch, rebuilt by every features() call before it is read)
    FragmentList frags_;

    // lint: transient(host-side work counters; not simulated state)
    Counters counters_;

    /** Session event queue (created by sessionBegin). */
    std::unique_ptr<EventQueue> queue_;

    /** Fired inside a stream's final completion event. */
    // lint: transient(host-side wiring installed once by the owning Device; not simulated state)
    StreamDone streamDone_;

    /** @name Scrub-task state (inert with reliability disabled) @{ */
    bool scrubScheduled_ = false;
    /** @} */

    /**
     * Stream whose dispatch (or drain) is currently being serviced;
     * movement/coherence helpers attribute results, energy, and page
     * addressing through it. Between dispatches it is null.
     */
    ExecContext *ctx_ = nullptr;

    /** @name Tracing wiring (never part of an Image) @{ */
    // lint: transient-begin(passive observer wiring re-attached by the owner; trace buffers are not simulated state)
    trace::Tracer *tracer_ = nullptr;
    std::uint32_t traceId_ = 0;
    Tick nextTraceSampleAt_ = 0;
    // lint: transient-end
    /** @} */

  public:
    /**
     * Deep snapshot of a quiescent session — every mutable simulated
     * quantity, so a restored engine's subsequent simulation is
     * byte-identical to one that lived through the captured history:
     * each substrate's State, the engine's own session State, the
     * full StatSet and the event-queue clock. Capture requires
     * quiescence (empty queue, no stream mid-dispatch), so no event
     * or borrowed context ever crosses the snapshot boundary.
     */
    struct Image
    {
        Ftl::State ftl;
        NandArray::State nand;
        DramModel::State dram;
        IspCore::State isp;
        /** Present exactly when cfg.reliability.enabled. */
        std::optional<reliability::ReliabilityModel::State> rel;
        State session;
        StatSet stats;
        Tick queueNow = 0;
        std::uint64_t queueFired = 0;
    };

    /**
     * Capture the session's complete mutable state. Only valid at
     * quiescence: the event queue must be empty (every attached
     * stream finished and drained).
     */
    Image captureImage() const;

    /**
     * Reopen this engine as an exact continuation of @p img: assign
     * every State and the StatSet, and open a fresh event queue at
     * the image's clock. Must be called on a freshly constructed
     * Engine built from the same SsdConfig the image was captured
     * under (geometry, seed, and reliability enablement are
     * construction-derived and must match).
     */
    void restoreImage(const Image &img);
};

} // namespace conduit

#endif // CONDUIT_CORE_ENGINE_HH
