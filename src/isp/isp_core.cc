#include "src/isp/isp_core.hh"

#include <algorithm>
#include <cmath>

namespace conduit
{

IspCore::IspCore(const IspConfig &cfg, const ComputeModelConfig &model,
                 StatSet *stats)
    : cfg_(cfg), model_(model), core_("isp.core"), stats_(stats)
{
    if (stats_) {
        statOps_ = &stats_->counter("isp.ops");
        statBusyPs_ = &stats_->counter("isp.busy_ps");
    }
}

double
IspCore::cyclesPerSimd(OpCode op) const
{
    switch (latencyClass(op)) {
      case LatencyClass::Low:
        return model_.ispCyclesPerSimdLow;
      case LatencyClass::Medium:
        return model_.ispCyclesPerSimdMed;
      case LatencyClass::High:
        return model_.ispCyclesPerSimdHigh;
    }
    return model_.ispCyclesPerSimdHigh;
}

Tick
IspCore::estimate(OpCode op, std::uint16_t elem_bits, std::uint32_t lanes,
                  std::uint32_t num_srcs, bool vectorized) const
{
    const double ps_per_cycle =
        static_cast<double>(kPsPerS) / cfg_.clockHz;
    if (!vectorized) {
        const double cycles =
            static_cast<double>(lanes) * model_.ispScalarCyclesPerElem;
        return static_cast<Tick>(cycles * ps_per_cycle) + 1;
    }
    const std::uint32_t ebytes =
        std::max<std::uint32_t>(1, elem_bits / 8);
    const std::uint32_t simd_lanes = simdLanes(cfg_.simdBytes, elem_bits);
    const std::uint64_t issues = (lanes + simd_lanes - 1) / simd_lanes;
    const double compute_ps =
        static_cast<double>(issues) * cyclesPerSimd(op) * ps_per_cycle;
    // Memory-bound floor: all operands and the result stream through
    // the core's load/store path. High-latency operations (multiply,
    // transcendental, permutation) produce widened intermediates and
    // requantization traffic, doubling the streamed volume.
    std::uint64_t bytes =
        static_cast<std::uint64_t>(lanes) * ebytes * (num_srcs + 1);
    if (latencyClass(op) == LatencyClass::High)
        bytes *= 2;
    const double stream_ps = static_cast<double>(
        transferTicks(bytes, cfg_.streamBytesPerSec));
    return static_cast<Tick>(std::max(compute_ps, stream_ps)) + 1;
}

ServiceInterval
IspCore::execute(OpCode op, std::uint16_t elem_bits, std::uint32_t lanes,
                 std::uint32_t num_srcs, bool vectorized, Tick earliest)
{
    const Tick dur = estimate(op, elem_bits, lanes, num_srcs, vectorized);
    auto iv = core_.acquire(earliest, dur);
    if (statOps_) {
        statOps_->inc();
        statBusyPs_->inc(dur);
    }
    return iv;
}

} // namespace conduit
