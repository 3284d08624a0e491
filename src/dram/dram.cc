#include "src/dram/dram.hh"

namespace conduit
{

DramModel::DramModel(const DramConfig &cfg, StatSet *stats)
    : DramState{ServerGroup(cfg.banks), Server{}},
      cfg_(cfg), statAccesses_(stats, "dram.accesses"),
      statBytes_(stats, "dram.bytes")
{
}

ServiceInterval
DramModel::access(std::uint32_t bank, std::uint64_t bytes, Tick earliest)
{
    // Activate the row on the bank, then stream over the shared bus.
    const Tick act = cfg_.tRcd + cfg_.tCas;
    auto bank_iv =
        banks_.acquireOn(bank % banks_.size(), earliest, act + cfg_.tRp);
    const Tick burst = transferTicks(bytes, cfg_.busBytesPerSec);
    auto bus_iv = bus_.acquire(bank_iv.start + act, burst);
    statAccesses_.inc();
    statBytes_.inc(bytes);
    return {bank_iv.start, bus_iv.end};
}

} // namespace conduit
