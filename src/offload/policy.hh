/**
 * @file
 * Offloading policies: Conduit's holistic cost function and the prior
 * approaches it is evaluated against (§5.3).
 *
 * Every policy sees the same per-instruction feature vector (the six
 * features of Table 1, precomputed by the engine) and returns a
 * target resource. Differences between techniques therefore come
 * only from the decision rule, mirroring the paper's methodology
 * where all baselines run on the same simulator. A policy declares
 * the feature groups its rule reads, and the engine computes only
 * those: a baseline that scores one feature does not pay for all six.
 */

#ifndef CONDUIT_OFFLOAD_POLICY_HH
#define CONDUIT_OFFLOAD_POLICY_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/ir/instruction.hh"
#include "src/sim/types.hh"

namespace conduit
{

/** SSD computation resources (the three NDP paradigms). */
enum class Target : std::uint8_t { Isp = 0, Pud = 1, Ifp = 2 };

constexpr std::size_t kNumTargets = 3;

constexpr std::string_view
targetName(Target t)
{
    switch (t) {
      case Target::Isp: return "ISP";
      case Target::Pud: return "PuD-SSD";
      case Target::Ifp: return "IFP";
    }
    return "?";
}

/**
 * Which Eqn. 1 terms a latency score includes. All three by default;
 * the ablation bench drops each in turn, and Ideal drops all of them
 * (computation latency alone).
 */
struct LatencyTerms
{
    bool useQueueDelay = true;
    bool useDmLatency = true;
    bool useDepDelay = true;
};

/**
 * The per-instruction feature vector (Table 1) as computed by the
 * engine at decision time.
 */
struct CostFeatures
{
    /** Expected computation latency per resource (latency_comp). */
    std::array<Tick, kNumTargets> comp{};

    /** Data-movement latency per resource (latency_dm, static). */
    std::array<Tick, kNumTargets> dm{};

    /** Resource queueing delay per resource (delay_queue). */
    std::array<Tick, kNumTargets> queue{};

    /** Data-dependence delay (delay_dd, operand availability). */
    Tick depDelay = 0;

    /** Operation supported by the resource's native ISA. */
    std::array<bool, kNumTargets> supported{};

    /** Bytes that would move if the resource were chosen. */
    std::array<std::uint64_t, kNumTargets> dmBytes{};

    /** Cumulative bandwidth utilization of the resource's bus. */
    std::array<double, kNumTargets> bwUtil{};

    /**
     * Eqn. 1: total offloading latency for resource @p t,
     * comp + dm + max(dep, queue), over the @p terms kept.
     */
    Tick
    totalLatency(Target t, LatencyTerms terms = {}) const
    {
        const auto i = static_cast<std::size_t>(t);
        const Tick dep = terms.useDepDelay ? depDelay : 0;
        const Tick wait = terms.useQueueDelay ? queue[i] : 0;
        return comp[i] + (terms.useDmLatency ? dm[i] : 0) +
            std::max(dep, wait);
    }
};

/**
 * Groups of CostFeatures fields a decision reads. The engine fills
 * only the groups requested and leaves every other field zero;
 * `supported` is always filled. All groups by default.
 */
struct FeatureGroups
{
    bool comp = true;       ///< comp
    bool movement = true;   ///< dm and dmBytes
    bool queue = true;      ///< queue
    bool dependence = true; ///< depDelay
    bool busUtil = true;    ///< bwUtil
};

/**
 * Abstract offloading policy.
 */
class OffloadPolicy
{
  public:
    virtual ~OffloadPolicy() = default;

    /** Pick the execution target for @p instr. */
    virtual Target select(const VecInstruction &instr,
                          const CostFeatures &f) = 0;

    /** Display name used in bench tables. */
    virtual std::string name() const = 0;

    /**
     * True if the engine should run in idealized mode for this
     * policy (no contention, zero data-movement latency, §5.3).
     */
    virtual bool ideal() const { return false; }

    /**
     * The feature groups select() reads; the engine computes no
     * other. Every group unless a policy narrows it.
     */
    virtual FeatureGroups needs() const { return {}; }
};

/**
 * One built-in technique: a row of the decision table (policy.cc
 * lists the eight evaluated in §5.3). Every row is decided by the
 * same rule — see TechniquePolicy.
 */
struct Technique
{
    /** How a candidate target is scored; the lowest score wins. */
    enum class Score : std::uint8_t
    {
        None,       ///< every candidate ties: first supported wins
        Latency,    ///< Eqn. 1 over `terms` (Conduit, Ideal)
        MovedBytes, ///< operand bytes moved (DM-Offloading)
        BusUtil,    ///< bus bandwidth utilization (BW-Offloading)
    };

    /** Display name; must outlive the policy (the table's literals). */
    std::string_view name;

    /** Candidate targets in preference order: ties go to the earlier. */
    std::array<Target, kNumTargets> order{};
    std::size_t candidates = 0;

    Score score = Score::None;
    LatencyTerms terms;

    /** IFP is a candidate for bulk-bitwise ops only (Flash-Cosmos). */
    bool ifpBitwiseOnly = false;

    /** Run the engine in idealized mode (OffloadPolicy::ideal). */
    bool ideal = false;
};

/**
 * The one decision rule behind every built-in technique. Residual
 * scalar code goes to ISP; otherwise the row's candidates are tried
 * in preference order, unsupported ones are skipped, and the lowest
 * score wins (the first candidate on ties, ISP if none qualifies).
 */
class TechniquePolicy : public OffloadPolicy
{
  public:
    explicit TechniquePolicy(const Technique &row) : row_(row) {}

    Target select(const VecInstruction &instr,
                  const CostFeatures &f) override;

    std::string name() const override { return std::string(row_.name); }

    bool ideal() const override { return row_.ideal; }

    /** The groups the row's score reads: comp and each kept Eqn. 1
     *  term for Latency, movement for MovedBytes, bus utilization
     *  for BusUtil, none for None. */
    FeatureGroups needs() const override;

  protected:
    Technique row_;
};

/**
 * Conduit's holistic cost function (Eqn. 1/2): argmin over supported
 * resources of comp + dm + max(dep, queue). Feature-ablation flags
 * support the ablation bench.
 */
class ConduitPolicy : public TechniquePolicy
{
  public:
    using Ablation = LatencyTerms;

    ConduitPolicy() : ConduitPolicy(Ablation{}) {}
    explicit ConduitPolicy(Ablation ab);

    std::string name() const override;
};

/** Factory by display name (used by benches/examples). */
std::unique_ptr<OffloadPolicy> makePolicy(const std::string &name);

/** Every display name makePolicy() accepts, in evaluation order. */
const std::vector<std::string> &policyNames();

} // namespace conduit

#endif // CONDUIT_OFFLOAD_POLICY_HH
