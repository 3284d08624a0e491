/**
 * @file
 * Simulation configuration (Table 2 of the paper).
 *
 * All tunable parameters live here: SSD geometry, NAND/DRAM/core
 * timing and energy, host baseline roofline parameters, and the
 * Conduit runtime overhead constants from §4.5. Defaults reproduce
 * the evaluated configuration; experiments scale geometry down with
 * @ref SsdConfig::scaleFactor so benches finish in seconds while
 * preserving the ratios (channels, dies, footprint/capacity) that
 * drive contention behaviour.
 */

#ifndef CONDUIT_SIM_CONFIG_HH
#define CONDUIT_SIM_CONFIG_HH

#include <cstdint>

#include "src/sim/types.hh"

namespace conduit
{

/** NAND flash geometry and timing (48-WL-layer 3D TLC in SLC mode). */
struct NandConfig
{
    std::uint32_t channels = 8;
    std::uint32_t diesPerChannel = 8;
    std::uint32_t planesPerDie = 2;
    std::uint32_t blocksPerPlane = 2048;
    std::uint32_t pagesPerBlock = 196;   // 4 x 48 WLs
    std::uint32_t pageBytes = 4096;

    double channelBytesPerSec = 1.2e9;   // 1.2 GB/s per channel

    Tick readTicks = usToTicks(22.5);    // tRead, SLC mode
    Tick programTicks = usToTicks(400);  // tProg, SLC mode
    Tick eraseTicks = usToTicks(3500);   // tBERS
    Tick cmdTicks = nsToTicks(200);      // command/address cycles
    Tick dmaTicks = usToTicks(3.3);      // tDMA page-buffer <-> controller

    // In-flash processing primitives (Flash-Cosmos / Ares-Flash).
    Tick andOrTicks = nsToTicks(20);     // MWS AND/OR
    Tick xorTicks = nsToTicks(30);       // latch XOR
    Tick latchTicks = nsToTicks(20);     // latch-to-latch transfer
    std::uint32_t maxAndOperands = 48;   // single-sensing AND fan-in
    std::uint32_t maxOrOperands = 4;     // single-sensing OR fan-in

    std::uint64_t
    totalBlocks() const
    {
        return static_cast<std::uint64_t>(channels) * diesPerChannel *
            planesPerDie * blocksPerPlane;
    }

    std::uint64_t
    totalPages() const
    {
        return totalBlocks() * pagesPerBlock;
    }
};

/** SSD-internal DRAM (LPDDR4-1866, 1 channel, 1 rank, 8 banks). */
struct DramConfig
{
    std::uint32_t banks = 8;
    std::uint32_t rowBytes = 8192;       // one DRAM row (mat-spanning)
    double busBytesPerSec = 3.7e9;       // effective LPDDR4 x32 bus

    Tick tRcd = nsToTicks(18);
    Tick tRp = nsToTicks(18);
    Tick tCas = nsToTicks(15);

    Tick bbopTicks = nsToTicks(49);      // one bulk-bitwise row op
};

/**
 * SSD controller embedded cores (ARM Cortex-R8 class). Table 2's
 * controller has 5 cores; the model simulates the 1 that serves
 * offloaded work.
 */
struct IspConfig
{
    double clockHz = 1.5e9;
    std::uint32_t simdBytes = 32;        // MVE vector width
    /**
     * Effective streaming bandwidth of the compute core to SSD DRAM.
     * The core is memory-bound for bulk vector work; this bounds its
     * sustained throughput.
     */
    double streamBytesPerSec = 3.2e9;
};

/** Host system baselines (roofline models + PCIe link). */
struct HostConfig
{
    double pcieBytesPerSec = 8.0e9;      // PCIe 4.0 x4 effective

    // Element throughputs (lanes per second, INT8) per latency class.
    // Calibrated so CPU is the 1x anchor of Fig. 5/7 and GPU averages
    // ~2.3x CPU while remaining PCIe-bound on streaming workloads.
    double cpuLowOpsPerSec = 6.0e9;
    double cpuMedOpsPerSec = 3.5e9;
    double cpuHighOpsPerSec = 6.0e8;

    double gpuLowOpsPerSec = 6.0e11;
    double gpuMedOpsPerSec = 4.0e11;
    double gpuHighOpsPerSec = 2.0e11;

    /** Fraction of the working set the host DRAM can retain. */
    double cpuCacheFraction = 0.35;
    /** The A100's 40 GB HBM retains more of the working set. */
    double gpuCacheFraction = 0.55;

    /**
     * Host software + NVMe protocol overhead charged per page-sized
     * miss that must be fetched from the SSD (block layer, command
     * submission/completion, interrupt), amortized over queue-depth
     * parallelism. SSD-internal paths do not pay this, which is one
     * root of NDP's advantage for I/O-intensive workloads (§3.1).
     */
    Tick ioOverheadPerPage = nsToTicks(1000);

    double cpuWatts = 105.0;             // Xeon Gold 5118 TDP
    double gpuWatts = 250.0;             // A100 sustained
    double pcieJoulesPerByte = 15e-12;   // link + root-complex energy
};

/** Energy constants (Table 2 + DRAM/core power models). */
struct EnergyConfig
{
    double readJPerChannel = 20.5e-6;    // Eread (SLC) per channel op
    double andOrJPerKb = 10e-9;          // EAND/OR per KB
    double xorJPerKb = 20e-9;            // EXOR per KB
    double latchJPerKb = 10e-9;          // Elatch per KB
    double dmaJPerChannel = 7.656e-6;    // EDMA per channel transfer
    double programJPerChannel = 65e-6;   // SLC program energy
    double bbopJ = 0.864e-9;             // one PuD row op
    double dramJPerByte = 40e-12;        // DRAM access energy
    double ispWatts = 1.2;               // one Cortex-R8 @1.5GHz
    double channelJPerByte = 6e-12;      // ONFI bus transfer energy
};

/**
 * Conduit runtime overhead constants (§4.5).
 *
 * Feature collection + instruction transformation; charged on the
 * offloader core per instruction, pipelined with execution.
 */
struct OverheadConfig
{
    Tick l2pLookupDram = nsToTicks(100); // per operand, entry cached
    Tick l2pLookupFlash = usToTicks(30); // per operand, entry missed
    Tick depTrackPerQueue = usToTicks(1);
    Tick queueTrackPerResource = usToTicks(1);
    Tick dmTableLookup = nsToTicks(100);
    Tick compTableLookup = nsToTicks(150);
    Tick translationLookup = nsToTicks(300);

    /**
     * Offloader issue interval: the decision pipeline overlaps its
     * SSD-DRAM table lookups, so per-instruction *latency* is the
     * sum of the components above (~3.77 us on average) while
     * *throughput* is one instruction per issue interval.
     */
    Tick issueTicks = nsToTicks(400);
};

/**
 * Per-resource compute latency model parameters.
 *
 * Latencies are for one native-width sub-operation; the engine splits
 * 4096-lane vectors into sub-operations per resource (§4.3.2) and
 * exploits each resource's internal parallelism (DRAM banks, flash
 * dies). Values derive from the cited substrates: MVE issue rates for
 * ISP, SIMDRAM/MIMDRAM bbop sequences for PuD, Flash-Cosmos MWS and
 * Ares-Flash shift_and_add step counts for IFP.
 */
struct ComputeModelConfig
{
    // PuD: bbops (ACT/PRE sequences) per row-wide operation. The
    // SIMDRAM substrate stores data bit-sliced (vertical layout), so
    // even bitwise operations process one bit-row per step. Values
    // are calibrated for 8-bit elements.
    std::uint32_t pudBitwiseBbops = 24;  // 3 AAPs per bit x 8 bits
    std::uint32_t pudAddBbops = 58;      // bit-serial INT8 addition
    std::uint32_t pudMulBbops = 380;     // bit-serial INT8 multiply
    std::uint32_t pudPredBbops = 40;     // bit-serial compare+select
    std::uint32_t pudCopyBbops = 16;     // RowClone AAP per bit-row

    // ISP: cycles per SIMD issue beyond the streaming bound.
    double ispCyclesPerSimdLow = 1.0;
    double ispCyclesPerSimdMed = 1.5;
    double ispCyclesPerSimdHigh = 4.0;
    double ispScalarCyclesPerElem = 2.0; // non-vectorized fallback
                                         // (Helium gather/scatter)

    // IFP: Ares-Flash bit-serial latch steps per element bit.
    std::uint32_t ifpAddStepsPerBit = 3;
    std::uint32_t ifpMulStepsPerBit = 26;
    /** Controller<->chip operand shuttles per IFP multiply. */
    std::uint32_t ifpMulShuttles = 6;
};

/**
 * Reliability & device-aging model (src/reliability/).
 *
 * Off by default: with @ref enabled false no reliability object is
 * constructed, no RNG stream is consumed, and every existing bench
 * output is byte-identical to a build without the subsystem.
 *
 * When enabled, each block's raw bit error rate grows with program/
 * erase cycling and retention age; the ECC engine converts RBER into
 * a read-latency ladder (hard decode -> read retries -> soft decode),
 * blocks whose correction history crosses a threshold are retired by
 * the FTL (shrinking over-provisioning), and a background scrub task
 * refreshes high-RBER blocks on the event queue.
 */
struct ReliabilityConfig
{
    /** Master switch; everything below is inert when false. */
    bool enabled = false;

    /** @name Device fast-forward (aged initial state) @{ */
    /** P/E cycles every block has already absorbed at t = 0. */
    std::uint32_t preWearCycles = 0;
    /** Retention age of the resident data at t = 0, in days. */
    double retentionDays = 0.0;
    /** @} */

    /** @name RBER model: rberFresh * exp(wearAlpha * pe/rated)
     *        * (1 + retentionBeta * (days/nominal)^1.1)
     *        * per-block jitter
     *  (the 1.1 retention exponent is fixed in RberModel — the
     *  constants below are calibrated for it) @{ */
    double rberFresh = 2e-4;        // fresh device, zero retention
    std::uint32_t ratedCycles = 3000;
    double wearAlpha = 3.4;         // ~30x RBER at rated cycles
    double retentionBeta = 4.0;     // 5x RBER at nominal retention
    double nominalRetentionDays = 90.0;
    /** Deterministic per-block variation: jitter in [1-j, 1+j]. */
    double blockJitter = 0.15;
    /** @} */

    /** @name ECC retry ladder @{ */
    /** Highest RBER the fast hard-decode path corrects for free. */
    double hardDecodeRber = 1e-3;
    /** Each read-retry step extends the correctable RBER by this. */
    double retryRberFactor = 1.6;
    std::uint32_t maxReadRetries = 8;
    /** Extra die-busy time per read-retry step (one re-sense). */
    Tick retryTicks = usToTicks(24);
    /** Soft-decode stage beyond the retry ladder (LDPC soft read). */
    Tick softDecodeTicks = usToTicks(90);
    /** Beyond this the sector is uncorrectable: full-ladder latency
     *  is charged and the block is queued for retirement. */
    double uncorrectableRber = 0.08;
    /** @} */

    /** @name Bad-block management @{ */
    /**
     * Soft-decoded reads a block absorbs before it is retired at its
     * next erase. Only reads that exhaust the retry ladder vote for
     * retirement — ordinary retries are routine on an aged device
     * and must not retire the whole pool — and an uncorrectable read
     * queues the block immediately.
     */
    std::uint32_t retireSoftThreshold = 8;
    /** @} */

    /** @name Background scrub @{ */
    /** Spacing of scrub passes in simulated time (0 disables). */
    Tick scrubIntervalTicks = msToTicks(10);
    /** Blocks examined per pass (bounded so passes stay cheap). */
    std::uint32_t scrubBlocksPerPass = 64;
    /** Blocks whose RBER exceeds this are refreshed (rewritten). */
    double scrubRberThreshold = 2e-2;
    /**
     * Refreshes per pass. A refresh migrates a whole block, so this
     * rate-limits scrub media traffic: on a device aged past the
     * threshold everywhere, scrub becomes a steady background load
     * instead of a storm that starves the foreground.
     */
    std::uint32_t scrubMaxRefreshPerPass = 1;
    /** @} */

    /** @name Background wear-leveling (off by default) @{ */
    /**
     * Migrate cold data out of low-wear blocks during scrub passes.
     * Allocation-time min-erase selection only levels blocks that
     * get erased; data that never moves pins its block at low wear
     * while the rest of the pool cycles. When enabled, each scrub
     * pass additionally refreshes (migrates + erases) the coldest
     * full closed block whenever the pool's erase-count spread
     * exceeds @ref wearLevelGap, returning the young block to write
     * service. Inert when false: byte-identical outputs.
     */
    bool wearLevelEnabled = false;
    /** Erase-count spread (max - min over used blocks) that
     *  triggers a cold-block migration. */
    std::uint32_t wearLevelGap = 8;
    /** Cold-block migrations per scrub pass (rate limit, like
     *  scrubMaxRefreshPerPass). */
    std::uint32_t wearLevelMaxPerPass = 1;
    /** @} */
};

/** Top-level simulated-system configuration. */
struct SsdConfig
{
    NandConfig nand;
    DramConfig dram;
    IspConfig isp;
    HostConfig host;
    EnergyConfig energy;
    OverheadConfig overhead;
    ComputeModelConfig compute;
    ReliabilityConfig reliability;

    /**
     * Default SIMD width produced by the vectorizer (lanes).
     * The paper uses -force-vector-width=4096 for 32-bit operands
     * (16 KiB per vector); with INT8-quantized data the page-aligned
     * equivalent is 16384 lanes, still 16 KiB per operand.
     */
    std::uint32_t vectorLanes = 16384;

    /** GC trigger: free-block fraction threshold. */
    double gcThreshold = 0.05;

    std::uint64_t seed = 42;

    /**
     * Scale geometry down for fast experiments while keeping the
     * channel/die/plane ratios. scale = 1 is the full Table 2 device.
     */
    static SsdConfig scaled(double blocks_fraction);
};

} // namespace conduit

#endif // CONDUIT_SIM_CONFIG_HH
