#include "src/offload/policy.hh"

#include <limits>
#include <stdexcept>

namespace conduit
{

namespace
{

constexpr Target kIsp = Target::Isp;
constexpr Target kPud = Target::Pud;
constexpr Target kIfp = Target::Ifp;
using Score = Technique::Score;

/** Conduit's row: the one ConduitPolicy's ablations vary. */
constexpr Technique kConduit = {
    "Conduit", {kIsp, kPud, kIfp}, 3, Score::Latency, {}, false, false};

/**
 * The decision table, in evaluation order: makePolicy() and
 * policyNames() both read it. Columns: name, candidates in
 * preference order, candidate count, score, Eqn. 1 terms,
 * bitwise-only IFP, ideal.
 *
 * The score decides which feature groups a row reads
 * (TechniquePolicy::needs), and so what the engine computes for it:
 * ISP, PuD-SSD, Flash-Cosmos and Ares-Flash read only `supported`;
 * BW-Offloading reads bus utilization; DM-Offloading reads movement;
 * Conduit reads comp, movement, queue and dependence (its ablations
 * drop the terms they turn off); Ideal reads comp alone.
 */
constexpr Technique kTechniques[] = {
    // All computation on the controller core (Active-Flash-style).
    {"ISP", {kIsp}, 1, Score::None, {}, false, false},
    // PuD for every supported op, controller core otherwise
    // (MIMDRAM).
    {"PuD-SSD", {kPud, kIsp}, 2, Score::None, {}, false, false},
    // Bulk-bitwise in flash, everything else on ISP.
    {"Flash-Cosmos", {kIfp, kIsp}, 2, Score::None, {}, true, false},
    // Bitwise + integer arithmetic in flash, rest on ISP.
    {"Ares-Flash", {kIfp, kIsp}, 2, Score::None, {}, false, false},
    // The resource whose bus/compute path has the lowest bandwidth
    // utilization (TOM-style), ignoring movement cost.
    {"BW-Offloading", {kIsp, kPud, kIfp}, 3, Score::BusUtil, {}, false,
     false},
    // Minimize bytes moved (ALP-style); ties go to IFP, then PuD,
    // since data begins flash-resident. The bias the paper observes
    // pushes this technique into flash contention.
    {"DM-Offloading", {kIfp, kPud, kIsp}, 3, Score::MovedBytes, {},
     false, false},
    kConduit,
    // No contention, zero movement latency, lowest computation
    // latency (upper bound, not realizable; §5.3).
    {"Ideal", {kIsp, kPud, kIfp}, 3, Score::Latency,
     {false, false, false}, false, true},
};

/** Flash-Cosmos's in-flash ops: bulk bitwise, shifts excluded. */
bool
bulkBitwise(OpCode op)
{
    return opFamily(op) == OpFamily::Bitwise && op != OpCode::ShiftL &&
        op != OpCode::ShiftR;
}

/**
 * The candidate of @p row with the lowest @p scoreOf(t) below
 * @p worst, compared in the score's own type; ISP when none is.
 */
template <typename S, typename ScoreOf>
Target
argmin(const Technique &row, const VecInstruction &instr,
       const CostFeatures &f, S worst, const ScoreOf &scoreOf)
{
    Target best = Target::Isp;
    S best_score = worst;
    for (std::size_t k = 0; k < row.candidates; ++k) {
        const Target t = row.order[k];
        if (!f.supported[static_cast<std::size_t>(t)])
            continue;
        if (t == Target::Ifp && row.ifpBitwiseOnly &&
            !bulkBitwise(instr.op))
            continue;
        const S s = scoreOf(static_cast<std::size_t>(t));
        if (s < best_score) {
            best_score = s;
            best = t;
        }
    }
    return best;
}

} // namespace

Target
TechniquePolicy::select(const VecInstruction &instr, const CostFeatures &f)
{
    // Residual scalar code can only run on the general-purpose core.
    if (!instr.vectorized)
        return Target::Isp;
    switch (row_.score) {
      case Score::Latency:
        return argmin(row_, instr, f, kMaxTick, [&](std::size_t i) {
            return f.totalLatency(static_cast<Target>(i), row_.terms);
        });
      case Score::MovedBytes:
        return argmin(row_, instr, f, ~0ULL,
                      [&](std::size_t i) { return f.dmBytes[i]; });
      case Score::BusUtil:
        return argmin(row_, instr, f,
                      std::numeric_limits<double>::infinity(),
                      [&](std::size_t i) { return f.bwUtil[i]; });
      case Score::None:
        break;
    }
    return argmin(row_, instr, f, 1, [](std::size_t) { return 0; });
}

FeatureGroups
TechniquePolicy::needs() const
{
    const bool latency = row_.score == Score::Latency;
    FeatureGroups g;
    g.comp = latency;
    g.movement = (latency && row_.terms.useDmLatency) ||
        row_.score == Score::MovedBytes;
    g.queue = latency && row_.terms.useQueueDelay;
    g.dependence = latency && row_.terms.useDepDelay;
    g.busUtil = row_.score == Score::BusUtil;
    return g;
}

ConduitPolicy::ConduitPolicy(Ablation ab) : TechniquePolicy(kConduit)
{
    row_.terms = ab;
}

std::string
ConduitPolicy::name() const
{
    std::string n = "Conduit";
    if (!row_.terms.useQueueDelay)
        n += "-noQueue";
    if (!row_.terms.useDmLatency)
        n += "-noDM";
    if (!row_.terms.useDepDelay)
        n += "-noDep";
    return n;
}

std::unique_ptr<OffloadPolicy>
makePolicy(const std::string &name)
{
    for (const Technique &row : kTechniques) {
        if (row.name == name)
            return std::make_unique<TechniquePolicy>(row);
    }
    std::string known;
    for (const auto &n : policyNames()) {
        if (!known.empty())
            known += ", ";
        known += n;
    }
    throw std::invalid_argument("makePolicy: unknown policy '" + name +
                                "'; known policies: " + known);
}

const std::vector<std::string> &
policyNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const Technique &row : kTechniques)
            n.emplace_back(row.name);
        return n;
    }();
    return names;
}

} // namespace conduit
