/**
 * @file
 * Unit tests for the offloading policies: the Conduit cost function
 * (Eqn. 1/2), the prior-work baselines, and the factory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "src/offload/policy.hh"

namespace conduit
{
namespace
{

VecInstruction
vecInstr(OpCode op, bool vectorized = true)
{
    VecInstruction vi;
    vi.op = op;
    vi.lanes = 4096;
    vi.vectorized = vectorized;
    vi.srcs.resize(2);
    return vi;
}

CostFeatures
baseFeatures()
{
    CostFeatures f;
    f.supported = {true, true, true};
    f.comp = {usToTicks(10), usToTicks(10), usToTicks(10)};
    return f;
}

/** The built-in technique @p name's choice for a vector @p op. */
Target
pick(const char *name, OpCode op, const CostFeatures &f)
{
    return makePolicy(name)->select(vecInstr(op), f);
}

TEST(CostFeatures, Equation1Arithmetic)
{
    CostFeatures f;
    f.comp[0] = 100;
    f.dm[0] = 50;
    f.queue[0] = 30;
    f.depDelay = 80;
    // comp + dm + max(dep, queue) = 100 + 50 + 80.
    EXPECT_EQ(f.totalLatency(Target::Isp), 230u);
    f.queue[0] = 200;
    EXPECT_EQ(f.totalLatency(Target::Isp), 350u);
}

TEST(ConduitPolicy, PicksArgminOfTotalLatency)
{
    ConduitPolicy p;
    auto f = baseFeatures();
    f.comp = {usToTicks(30), usToTicks(5), usToTicks(50)};
    EXPECT_EQ(p.select(vecInstr(OpCode::Add), f), Target::Pud);
    // A large PuD queueing delay flips the decision.
    f.queue[static_cast<int>(Target::Pud)] = usToTicks(100);
    EXPECT_EQ(p.select(vecInstr(OpCode::Add), f), Target::Isp);
}

TEST(ConduitPolicy, DataMovementShiftsChoice)
{
    ConduitPolicy p;
    auto f = baseFeatures();
    f.comp = {usToTicks(12), usToTicks(10), usToTicks(11)};
    f.dm = {usToTicks(0), usToTicks(50), usToTicks(0)};
    EXPECT_EQ(p.select(vecInstr(OpCode::Add), f), Target::Ifp);
}

TEST(ConduitPolicy, DependenceDelayOverlapsQueueDelay)
{
    ConduitPolicy p;
    auto f = baseFeatures();
    // Queue delays differ, but a dominating dependence delay masks
    // them (max(dep, queue)); choice falls back to compute latency.
    f.comp = {usToTicks(9), usToTicks(10), usToTicks(11)};
    f.queue = {usToTicks(40), usToTicks(1), usToTicks(1)};
    f.depDelay = usToTicks(500);
    EXPECT_EQ(p.select(vecInstr(OpCode::Add), f), Target::Isp);
}

TEST(ConduitPolicy, SkipsUnsupportedResources)
{
    ConduitPolicy p;
    auto f = baseFeatures();
    f.comp = {usToTicks(100), usToTicks(1), usToTicks(1)};
    f.supported = {true, false, false};
    EXPECT_EQ(p.select(vecInstr(OpCode::Shuffle), f), Target::Isp);
}

TEST(ConduitPolicy, ScalarCodeForcedToIsp)
{
    ConduitPolicy p;
    auto f = baseFeatures();
    f.comp = {usToTicks(100), usToTicks(1), usToTicks(1)};
    EXPECT_EQ(p.select(vecInstr(OpCode::Add, false), f), Target::Isp);
}

TEST(ConduitPolicy, AblationsDropFeatures)
{
    auto f = baseFeatures();
    f.comp = {usToTicks(10), usToTicks(9), usToTicks(50)};
    f.queue = {0, usToTicks(100), 0};
    // Full Conduit avoids the congested PuD.
    EXPECT_EQ(ConduitPolicy().select(vecInstr(OpCode::Add), f),
              Target::Isp);
    // Without queue awareness it walks into the congestion.
    ConduitPolicy::Ablation ab;
    ab.useQueueDelay = false;
    EXPECT_EQ(ConduitPolicy(ab).select(vecInstr(OpCode::Add), f),
              Target::Pud);
    EXPECT_EQ(ConduitPolicy(ab).name(), "Conduit-noQueue");
}

TEST(DmPolicy, MinimizesBytesPrefersIfpOnTies)
{
    auto p = makePolicy("DM-Offloading");
    auto f = baseFeatures();
    f.dmBytes = {4096, 0, 0}; // PuD and IFP tie at zero
    EXPECT_EQ(p->select(vecInstr(OpCode::Add), f), Target::Ifp);
    f.dmBytes = {0, 0, 4096};
    EXPECT_EQ(p->select(vecInstr(OpCode::Add), f), Target::Pud);
}

TEST(DmPolicy, IgnoresQueueDelays)
{
    auto p = makePolicy("DM-Offloading");
    auto f = baseFeatures();
    f.dmBytes = {4096, 4096, 0};
    f.queue = {0, 0, usToTicks(10000)}; // IFP badly congested
    // DM-Offloading cannot see the congestion (its flaw, §3.2).
    EXPECT_EQ(p->select(vecInstr(OpCode::Add), f), Target::Ifp);
}

TEST(BwPolicy, PicksLowestUtilization)
{
    auto p = makePolicy("BW-Offloading");
    auto f = baseFeatures();
    f.bwUtil = {0.9, 0.2, 0.5};
    EXPECT_EQ(p->select(vecInstr(OpCode::Add), f), Target::Pud);
    f.bwUtil = {5.0, 7.0, 3.0}; // beyond saturation still compares
    EXPECT_EQ(p->select(vecInstr(OpCode::Add), f), Target::Ifp);
}

TEST(IdealPolicy, PicksLowestComputeAndFlagsIdeal)
{
    auto p = makePolicy("Ideal");
    auto f = baseFeatures();
    f.comp = {usToTicks(3), usToTicks(2), usToTicks(1)};
    f.dm = {0, 0, usToTicks(1000)};   // ignored
    f.queue = {0, 0, usToTicks(1000)}; // ignored
    EXPECT_EQ(p->select(vecInstr(OpCode::Add), f), Target::Ifp);
    EXPECT_TRUE(p->ideal());
    EXPECT_FALSE(ConduitPolicy().ideal());
}

TEST(StaticPolicies, RespectSubstrateCapabilities)
{
    auto f = baseFeatures();
    f.supported = {true, pudSupports(OpCode::Shuffle),
                   ifpSupports(OpCode::Shuffle)};
    EXPECT_EQ(pick("ISP", OpCode::Add, f), Target::Isp);
    // Shuffle is PuD/IFP-unsupported: falls back to the core.
    EXPECT_EQ(pick("PuD-SSD", OpCode::Shuffle, f), Target::Isp);
    EXPECT_EQ(pick("Ares-Flash", OpCode::Shuffle, f), Target::Isp);

    auto f2 = baseFeatures();
    EXPECT_EQ(pick("PuD-SSD", OpCode::Mul, f2), Target::Pud);
    EXPECT_EQ(pick("Ares-Flash", OpCode::Mul, f2), Target::Ifp);
    // Flash-Cosmos offloads bulk-bitwise only; arithmetic goes to
    // the controller core.
    EXPECT_EQ(pick("Flash-Cosmos", OpCode::And, f2), Target::Ifp);
    EXPECT_EQ(pick("Flash-Cosmos", OpCode::Add, f2), Target::Isp);
}

TEST(PolicyFactory, BuildsEveryEvaluatedTechnique)
{
    for (const char *name :
         {"Conduit", "DM-Offloading", "BW-Offloading", "Ideal", "ISP",
          "PuD-SSD", "Flash-Cosmos", "Ares-Flash"}) {
        auto p = makePolicy(name);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->name(), name);
    }
    EXPECT_THROW(makePolicy("nonsense"), std::invalid_argument);
}

/**
 * The per-technique select bodies the decision table replaced, kept
 * verbatim as the reference the table's rule must reproduce.
 */
namespace reference
{

constexpr std::array<Target, kNumTargets> kAllTargets = {
    Target::Isp, Target::Pud, Target::Ifp};

bool
forcedToIsp(const VecInstruction &instr)
{
    return !instr.vectorized;
}

Target
conduit(const ConduitPolicy::Ablation &ab_, const VecInstruction &instr,
        const CostFeatures &f)
{
    if (forcedToIsp(instr))
        return Target::Isp;
    Target best = Target::Isp;
    Tick best_cost = kMaxTick;
    for (Target t : kAllTargets) {
        const auto i = static_cast<std::size_t>(t);
        if (!f.supported[i])
            continue;
        Tick cost = f.comp[i];
        if (ab_.useDmLatency)
            cost += f.dm[i];
        const Tick dep = ab_.useDepDelay ? f.depDelay : 0;
        const Tick queue = ab_.useQueueDelay ? f.queue[i] : 0;
        cost += std::max(dep, queue);
        if (cost < best_cost) {
            best_cost = cost;
            best = t;
        }
    }
    return best;
}

Target
dmOffload(const VecInstruction &instr, const CostFeatures &f)
{
    if (forcedToIsp(instr))
        return Target::Isp;
    static constexpr std::array<Target, kNumTargets> kPreference = {
        Target::Ifp, Target::Pud, Target::Isp};
    Target best = Target::Isp;
    std::uint64_t best_bytes = ~0ULL;
    for (Target t : kPreference) {
        const auto i = static_cast<std::size_t>(t);
        if (!f.supported[i])
            continue;
        if (f.dmBytes[i] < best_bytes) {
            best_bytes = f.dmBytes[i];
            best = t;
        }
    }
    return best;
}

Target
bwOffload(const VecInstruction &instr, const CostFeatures &f)
{
    if (forcedToIsp(instr))
        return Target::Isp;
    Target best = Target::Isp;
    double best_util = std::numeric_limits<double>::infinity();
    for (Target t : kAllTargets) {
        const auto i = static_cast<std::size_t>(t);
        if (!f.supported[i])
            continue;
        if (f.bwUtil[i] < best_util) {
            best_util = f.bwUtil[i];
            best = t;
        }
    }
    return best;
}

Target
ideal(const VecInstruction &instr, const CostFeatures &f)
{
    if (forcedToIsp(instr))
        return Target::Isp;
    Target best = Target::Isp;
    Tick best_cost = kMaxTick;
    for (Target t : kAllTargets) {
        const auto i = static_cast<std::size_t>(t);
        if (!f.supported[i])
            continue;
        if (f.comp[i] < best_cost) {
            best_cost = f.comp[i];
            best = t;
        }
    }
    return best;
}

Target
ispOnly(const VecInstruction &, const CostFeatures &)
{
    return Target::Isp;
}

Target
pudOnly(const VecInstruction &instr, const CostFeatures &f)
{
    if (forcedToIsp(instr))
        return Target::Isp;
    return f.supported[static_cast<std::size_t>(Target::Pud)]
        ? Target::Pud
        : Target::Isp;
}

Target
flashCosmos(const VecInstruction &instr, const CostFeatures &f)
{
    if (forcedToIsp(instr))
        return Target::Isp;
    const bool bitwise = opFamily(instr.op) == OpFamily::Bitwise &&
        instr.op != OpCode::ShiftL && instr.op != OpCode::ShiftR;
    if (bitwise && f.supported[static_cast<std::size_t>(Target::Ifp)])
        return Target::Ifp;
    return Target::Isp;
}

Target
aresFlash(const VecInstruction &instr, const CostFeatures &f)
{
    if (forcedToIsp(instr))
        return Target::Isp;
    return f.supported[static_cast<std::size_t>(Target::Ifp)]
        ? Target::Ifp
        : Target::Isp;
}

} // namespace reference

/**
 * A Tick or byte count: from a small pool (always when @p tiny, so
 * candidates tie), above 2^53 (where a double would round), at or
 * near the all-ones sentinel, or anywhere in 64 bits.
 */
std::uint64_t
drawCount(std::mt19937_64 &rng, bool tiny)
{
    constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
    switch (tiny ? 0 : rng() % 5) {
      case 0: return rng() % 4;
      case 1: return kTwo53 + rng() % 4;
      case 2: return kMaxTick - rng() % 2;
      case 3: return rng() >> (rng() % 64);
      default: return rng();
    }
}

double
drawUtil(std::mt19937_64 &rng)
{
    static constexpr double kPool[] = {
        0.0, 0.5, 1.0, 7.0, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    return rng() % 2 ? kPool[rng() % std::size(kPool)]
                     : static_cast<double>(rng() % 1000) / 100.0;
}

/** A feature vector of drawCount()/drawUtil() fields. */
CostFeatures
drawFeatures(std::mt19937_64 &rng, bool tiny)
{
    CostFeatures f;
    for (std::size_t i = 0; i < kNumTargets; ++i) {
        f.comp[i] = drawCount(rng, tiny);
        f.dm[i] = drawCount(rng, tiny);
        f.queue[i] = drawCount(rng, tiny);
        f.supported[i] = rng() % 4 != 0;
        f.dmBytes[i] = drawCount(rng, tiny);
        f.bwUtil[i] = drawUtil(rng);
    }
    f.depDelay = drawCount(rng, tiny);
    return f;
}

TEST(DecisionRule, MatchesThePerTechniqueBodiesItReplaced)
{
    using Body = Target (*)(const VecInstruction &, const CostFeatures &);
    const std::pair<const char *, Body> builtins[] = {
        {"ISP", reference::ispOnly},
        {"PuD-SSD", reference::pudOnly},
        {"Flash-Cosmos", reference::flashCosmos},
        {"Ares-Flash", reference::aresFlash},
        {"BW-Offloading", reference::bwOffload},
        {"DM-Offloading", reference::dmOffload},
        {"Conduit",
         [](const VecInstruction &i, const CostFeatures &f) {
             return reference::conduit({}, i, f);
         }},
        {"Ideal", reference::ideal},
    };
    ASSERT_EQ(policyNames().size(), std::size(builtins));
    std::vector<std::unique_ptr<OffloadPolicy>> rules;
    for (const auto &[name, body] : builtins)
        rules.push_back(makePolicy(name));
    std::vector<ConduitPolicy::Ablation> ablations;
    for (int bits = 0; bits < 8; ++bits)
        ablations.push_back({(bits & 1) != 0, (bits & 2) != 0,
                             (bits & 4) != 0});

    std::mt19937_64 rng(2024);
    for (int trial = 0; trial < 20000; ++trial) {
        const bool tiny = rng() % 2 == 0;
        const CostFeatures f = drawFeatures(rng, tiny);
        VecInstruction vi = vecInstr(
            static_cast<OpCode>(rng() % kNumOpCodes), rng() % 4 != 0);

        for (std::size_t k = 0; k < rules.size(); ++k)
            ASSERT_EQ(rules[k]->select(vi, f), builtins[k].second(vi, f))
                << builtins[k].first << " at trial " << trial;
        for (const auto &ab : ablations)
            ASSERT_EQ(ConduitPolicy(ab).select(vi, f),
                      reference::conduit(ab, vi, f))
                << ConduitPolicy(ab).name() << " at trial " << trial;
    }
}

/** One FeatureGroups flag and a redraw of the fields it covers. */
struct Group
{
    const char *name;
    bool FeatureGroups::*flag;
    void (*redraw)(CostFeatures &, std::mt19937_64 &, bool tiny);
};

const Group kGroups[] = {
    {"comp", &FeatureGroups::comp,
     [](CostFeatures &f, std::mt19937_64 &rng, bool tiny) {
         for (auto &v : f.comp)
             v = drawCount(rng, tiny);
     }},
    {"movement", &FeatureGroups::movement,
     [](CostFeatures &f, std::mt19937_64 &rng, bool tiny) {
         for (std::size_t i = 0; i < kNumTargets; ++i) {
             f.dm[i] = drawCount(rng, tiny);
             f.dmBytes[i] = drawCount(rng, tiny);
         }
     }},
    {"queue", &FeatureGroups::queue,
     [](CostFeatures &f, std::mt19937_64 &rng, bool tiny) {
         for (auto &v : f.queue)
             v = drawCount(rng, tiny);
     }},
    {"dependence", &FeatureGroups::dependence,
     [](CostFeatures &f, std::mt19937_64 &rng, bool tiny) {
         f.depDelay = drawCount(rng, tiny);
     }},
    {"busUtil", &FeatureGroups::busUtil,
     [](CostFeatures &f, std::mt19937_64 &rng, bool) {
         for (auto &v : f.bwUtil)
             v = drawUtil(rng);
     }},
};

TEST(DecisionRule, ReadsExactlyTheDeclaredFeatureGroups)
{
    // The engine leaves undeclared groups zero, so a row's decision
    // must not depend on them; and a declared group that never moves
    // a decision would make the engine compute it for nothing.
    std::vector<std::unique_ptr<OffloadPolicy>> rules;
    for (const auto &name : policyNames())
        rules.push_back(makePolicy(name));
    for (int bits = 0; bits < 8; ++bits)
        rules.push_back(std::make_unique<ConduitPolicy>(
            ConduitPolicy::Ablation{(bits & 1) != 0, (bits & 2) != 0,
                                    (bits & 4) != 0}));

    std::mt19937_64 rng(2027);
    for (const auto &rule : rules) {
        const FeatureGroups needs = rule->needs();
        std::array<bool, std::size(kGroups)> moved{};
        for (int trial = 0; trial < 20000; ++trial) {
            const bool tiny = rng() % 2 == 0;
            const CostFeatures f = drawFeatures(rng, tiny);
            const VecInstruction vi = vecInstr(
                static_cast<OpCode>(rng() % kNumOpCodes), rng() % 4 != 0);
            const Target t = rule->select(vi, f);

            CostFeatures outside = f;
            for (const Group &g : kGroups) {
                if (!(needs.*g.flag))
                    g.redraw(outside, rng, tiny);
            }
            ASSERT_EQ(rule->select(vi, outside), t)
                << rule->name() << " at trial " << trial;

            for (std::size_t k = 0; k < std::size(kGroups); ++k) {
                if (!(needs.*kGroups[k].flag) || moved[k])
                    continue;
                CostFeatures inside = f;
                kGroups[k].redraw(inside, rng, tiny);
                moved[k] = rule->select(vi, inside) != t;
            }
        }
        for (std::size_t k = 0; k < std::size(kGroups); ++k) {
            if (needs.*kGroups[k].flag) {
                EXPECT_TRUE(moved[k])
                    << rule->name() << " declares " << kGroups[k].name
                    << " but no redraw of it moved a decision";
            }
        }
    }
}

TEST(DecisionRule, UndeclaredPolicyReadsEveryGroup)
{
    // A policy that does not override needs() gets the full vector.
    class Custom : public OffloadPolicy
    {
      public:
        Target
        select(const VecInstruction &, const CostFeatures &) override
        {
            return Target::Isp;
        }
        std::string name() const override { return "custom"; }
    };
    const FeatureGroups g = Custom().needs();
    for (const Group &group : kGroups)
        EXPECT_TRUE(g.*group.flag) << group.name;
}

TEST(Targets, NamesStable)
{
    EXPECT_EQ(targetName(Target::Isp), "ISP");
    EXPECT_EQ(targetName(Target::Pud), "PuD-SSD");
    EXPECT_EQ(targetName(Target::Ifp), "IFP");
}

} // namespace
} // namespace conduit
