#include "src/core/engine.hh"

#include <algorithm>
#include <stdexcept>

#include "src/sim/event_queue.hh"
#include "src/trace/trace.hh"

namespace conduit
{

namespace
{

/** Detection timeout charged when a transient fault hits (§4.4). */
constexpr Tick kFaultTimeout = usToTicks(50);

} // namespace

Engine::Engine(const SsdConfig &cfg)
    : cfg_(cfg), nand_(cfg.nand, &stats_), ftl_(nand_, cfg, &stats_),
      dram_(cfg.dram, &stats_), pud_(dram_, cfg.compute, &stats_),
      isp_(cfg.isp, cfg.compute, &stats_),
      ifp_(nand_, cfg.compute, &stats_)
{
    rng_ = Rng(cfg.seed);
    if (cfg_.reliability.enabled) {
        rel_ = std::make_unique<reliability::ReliabilityModel>(
            cfg_.nand, cfg_.reliability, cfg_.seed, &stats_);
        nand_.setReliability(rel_.get());
    }
}

void
Engine::dramTouch(Lpn page, Tick now)
{
    if (dramLru_.touch(page))
        return;
    while (dramLru_.size() > dramCapacityPages_) {
        // Random-ish victim selection (CLOCK approximation): pure
        // LRU degenerates on the cyclic sweeps of stencil kernels,
        // evicting every page just before its reuse.
        FlatLru::Node vit = dramLru_.tail();
        const std::uint64_t skip =
            rng_.below(std::max<std::uint64_t>(1, dramLru_.size() / 2));
        std::uint64_t i = 0;
        for (; i < skip && vit != dramLru_.head(); ++i)
            vit = dramLru_.prev(vit);
        counters_.lruVictimSteps += i;
        const Lpn victim = dramLru_.keyOf(vit);
        if (victim == page)
            break;
        dramLru_.erase(vit);
        PageMeta &vm = pageMeta_[victim];
        if (vm.loc == Loc::Dram && vm.dirty) {
            // Background writeback (coherence trigger iii). The
            // victim may belong to another stream; the stream whose
            // allocation forced the eviction pays the writeback,
            // matching how a real device charges the triggering I/O.
            commitPage(victim, now);
        } else {
            vm.dramCached = false;
        }
    }
}

const std::vector<IfpFragment> &
Engine::fragmentsFor(const VecInstruction &instr)
{
    // Compute fragments follow the first operand's physical layout;
    // the extended FTL page-allocation policy (§4.4) co-locates the
    // other operands' corresponding pages in the same block. The
    // layout is read live: commits and GC migrations move pages, so
    // a list is only valid until the next L2P write.
    const Operand &lead = instr.srcs.empty() ? instr.dst
                                             : instr.srcs.front();
    const Lpn base = streamBase();
    const std::uint64_t vec_bytes =
        static_cast<std::uint64_t>(instr.lanes) * instr.elemBits / 8;
    const std::uint64_t per_page =
        std::min<std::uint64_t>(vec_bytes, cfg_.nand.pageBytes);
    frags_.begin(nand_.numDies());
    for (std::uint64_t p = base + lead.basePage;
         p < base + lead.basePage + lead.pageCount; ++p)
        frags_.add(nand_.dieOf(ftl_.physicalOf(p)), per_page);
    counters_.fragmentPages += lead.pageCount;
    if (frags_.fragments().empty())
        frags_.add(0, per_page);
    return frags_.fragments();
}

std::uint32_t
Engine::sensedOperands(const VecInstruction &instr) const
{
    // Operands whose freshest copy already sits in the page-buffer
    // latches (a previous IFP result) fold into the next in-flash
    // operation without re-sensing the array (ParaBit-style
    // latch-combining applies to MWS results as well).
    const Lpn base = streamBase();
    std::uint32_t sensed = 0;
    for (const auto &src : instr.srcs) {
        bool latch_resident = src.pageCount > 0;
        for (Lpn p = base + src.basePage;
             p < base + src.basePage + src.pageCount; ++p) {
            if (pageMeta_[p].loc != Loc::Latch) {
                latch_resident = false;
                break;
            }
        }
        if (!latch_resident)
            ++sensed;
    }
    return sensed;
}

Tick
Engine::compEstimate(const VecInstruction &instr, Target t,
                     const std::vector<IfpFragment> &frags) const
{
    const auto num_srcs = static_cast<std::uint32_t>(instr.srcs.size());
    switch (t) {
      case Target::Isp:
        return isp_.estimate(instr.op, instr.elemBits, instr.lanes,
                             num_srcs, instr.vectorized);
      case Target::Pud:
        return pud_.estimate(instr.op, instr.elemBits, instr.lanes);
      case Target::Ifp: {
        std::uint64_t per_die = 0;
        for (const auto &fr : frags)
            per_die = std::max(per_die, fr.bytes);
        return ifp_.estimate(instr.op, instr.elemBits, num_srcs,
                             sensedOperands(instr), per_die);
      }
    }
    return 0;
}

Engine::Route
Engine::routeFor(const PageMeta &m, Target t)
{
    // A latch page never also holds a DRAM copy (IFP writes and IFP
    // moves clear dramCached; Ideal jobs never set it), so the
    // DRAM-resident test comes first for ISP and PuD alike.
    const bool in_dram = m.loc == Loc::Dram || m.dramCached;
    switch (t) {
      case Target::Isp:
        // A DRAM-resident operand streams through the core's load
        // path. The IspCore streaming bound already covers that
        // traffic, so the DramStream hop is estimated but reserves
        // nothing; a sensed page is staged via the DRAM buffer.
        if (in_dram)
            return {{Hop::DramStream}, 1, Lands::InPlace};
        if (m.loc == Loc::Latch)
            return {{Hop::ChannelOut}, 1, Lands::InPlace};
        return {{Hop::Sense, Hop::ChannelOut}, 2, Lands::DramCopy};
      case Target::Pud:
        if (in_dram)
            return {};
        if (m.loc == Loc::Latch)
            return {{Hop::ChannelOut, Hop::DramWrite}, 2, Lands::Dram};
        return {{Hop::Sense, Hop::ChannelOut, Hop::DramWrite}, 3,
                Lands::DramCopy};
      case Target::Ifp:
        // Flash and latch operands are usable in place: the extended
        // FTL layout keeps operands co-located (§4.4). A dirty DRAM
        // copy loads into its die's page-buffer latch over the
        // channel (latch-operand computation, Ares-Flash style), far
        // cheaper than programming the array.
        if (m.loc != Loc::Dram)
            return {};
        if (m.dirty)
            return {{Hop::ChannelIn}, 1, Lands::Latch};
        return {{}, 0, Lands::Flash};
    }
    return {};
}

Engine::Movement
Engine::foldMovement(const StateCounts &counts, const HopTicks &hop)
{
    Movement mv;
    for (std::size_t s = 0; s < kPageStates; ++s) {
        if (counts[s] == 0)
            continue;
        // The state's representative page, inverting pageState().
        PageMeta m;
        m.loc = static_cast<Loc>(s / 4);
        m.dirty = (s / 2) % 2 != 0;
        m.dramCached = s % 2 != 0;
        for (Target t : {Target::Isp, Target::Pud, Target::Ifp}) {
            const Route r = routeFor(m, t);
            if (r.count == 0)
                continue;
            Tick page = 0;
            for (std::uint8_t h = 0; h < r.count; ++h)
                page += hop[static_cast<std::size_t>(r.hops[h])];
            const auto i = static_cast<std::size_t>(t);
            mv.pages[i] += counts[s];
            mv.slowest[i] = std::max(mv.slowest[i], page);
        }
    }
    return mv;
}

CostFeatures
Engine::features(const VecInstruction &instr, Tick now)
{
    CostFeatures f;

    f.supported[static_cast<std::size_t>(Target::Isp)] = true;
    f.supported[static_cast<std::size_t>(Target::Pud)] =
        pudSupports(instr.op);
    f.supported[static_cast<std::size_t>(Target::Ifp)] =
        ifpSupports(instr.op);

    // (6) Expected computation latency.
    const auto &frags = fragmentsFor(instr);
    for (Target t : {Target::Isp, Target::Pud, Target::Ifp})
        f.comp[static_cast<std::size_t>(t)] =
            compEstimate(instr, t, frags);

    // (5) Data movement latency (static, no-contention table). With
    // reliability enabled the flash-read stage carries the expected
    // ECC penalty at the device's current age, so offload decisions
    // shift as the device wears. (IFP computes on raw latched bits
    // without the inline ECC pipeline, so its in-place operands pay
    // no decode penalty — a fidelity note documented in README.)
    //
    // One walk counts the source pages per coherence state; the
    // route table is then folded once per present state. A page
    // costs the sum of its hops; transfers stripe over channels (the
    // table assumes ideal parallelism), so a target pays
    // ceil(pages / channels) waves of its slowest page. Every visit
    // counts: a page repeated across sources is charged each time.
    const Tick aging_read =
        rel_ ? rel_->typicalReadPenalty(nand_.totalErases(), now) : 0;
    const NandConfig &n = cfg_.nand;
    const Tick page_xfer =
        n.dmaTicks + transferTicks(n.pageBytes, n.channelBytesPerSec);
    const Tick dram_page =
        transferTicks(n.pageBytes, cfg_.dram.busBytesPerSec) +
        cfg_.dram.tRcd + cfg_.dram.tCas;
    // Indexed by Hop: Sense, ChannelOut, ChannelIn, DramWrite,
    // DramStream.
    const HopTicks hop_ticks = {n.cmdTicks + n.readTicks + aging_read,
                                page_xfer, page_xfer, dram_page,
                                dram_page};
    StateCounts per_state{};
    const Lpn base = streamBase();
    for (const auto &s : instr.srcs) {
        for (Lpn p = base + s.basePage;
             p < base + s.basePage + s.pageCount; ++p)
            ++per_state[pageState(pageMeta_[p])];
        counters_.foldedPages += s.pageCount;
    }
    const Movement mv = foldMovement(per_state, hop_ticks);
    for (std::size_t i = 0; i < kNumTargets; ++i) {
        const std::uint64_t waves =
            (mv.pages[i] + n.channels - 1) / n.channels;
        f.dm[i] = static_cast<Tick>(waves) * mv.slowest[i];
        f.dmBytes[i] = mv.pages[i] * n.pageBytes;
    }

    // (4) Resource queueing delay: live reads of the shared
    // calendars, so co-run streams see each other's backlog.
    const Tick isp_backlog = isp_.backlog(now);
    const Tick bank_backlog = dram_.bankBacklog(now);
    f.queue[static_cast<std::size_t>(Target::Isp)] = isp_backlog;
    f.queue[static_cast<std::size_t>(Target::Pud)] = bank_backlog;
    Tick die_backlog = 0;
    for (const auto &fr : frags)
        die_backlog =
            std::max(die_backlog, nand_.dieBacklog(fr.dieIndex, now));
    f.queue[static_cast<std::size_t>(Target::Ifp)] = die_backlog;

    // (3) Data dependence delay (within the dispatching stream).
    Tick dep_ready = 0;
    if (ctx_) {
        for (InstrId d : instr.deps) {
            if (d < ctx_->completion.size())
                dep_ready = std::max(dep_ready, ctx_->completion[d]);
        }
    }
    f.depDelay = dep_ready > now ? dep_ready - now : 0;

    // Bandwidth utilization (BW-Offloading's sole input): pending
    // work over a short window approximates the utilization samples
    // a TOM-style monitor would read.
    const double window = static_cast<double>(usToTicks(200));
    f.bwUtil[static_cast<std::size_t>(Target::Isp)] =
        static_cast<double>(isp_backlog) / window;
    f.bwUtil[static_cast<std::size_t>(Target::Pud)] =
        static_cast<double>(bank_backlog) / window;
    f.bwUtil[static_cast<std::size_t>(Target::Ifp)] =
        static_cast<double>(nand_.minDieBacklog(now)) / window;

    return f;
}

Tick
Engine::offloadOverhead(const VecInstruction &instr, Tick now)
{
    // §4.5 feature-collection + transformation accounting. Operand
    // location comes from real L2P lookups (so DFTL misses produce
    // the up-to-33us outliers the paper reports).
    const OverheadConfig &o = cfg_.overhead;
    const Lpn base = streamBase();
    Tick t = 0;
    for (const auto &s : instr.srcs) {
        auto lk = ftl_.translate(base + s.basePage, now);
        t += lk.latency;
    }
    if (!instr.deps.empty())
        t += o.depTrackPerQueue;
    t += o.queueTrackPerResource;
    t += o.dmTableLookup + o.compTableLookup + o.translationLookup;
    return t;
}

Tick
Engine::commitPage(Lpn page, Tick earliest)
{
    PageMeta &m = pageMeta_[page];
    // Latch contents program directly from the page buffer.
    Tick ready = earliest;
    if (m.loc == Loc::Dram) {
        // DRAM -> controller -> channel -> program.
        const Ppn ppn = ftl_.physicalOf(page);
        const std::uint32_t ch = nand_.decode(ppn).channel;
        auto x = nand_.transferIn(ch, cfg_.nand.pageBytes, earliest);
        ctx_->result.internalDmBusy += x.end - x.start;
        ctx_->energy.dma(1);
        ctx_->energy.channelTransfer(cfg_.nand.pageBytes);
        ready = x.end;
    }
    auto wr = ftl_.writePage(page, ready);
    ctx_->result.internalDmBusy += wr.readyAt - ready;
    ctx_->energy.flashProgram(1);
    ++ctx_->result.coherenceCommits;
    m.loc = Loc::Flash;
    m.dirty = false;
    m.version = 0;
    m.dramCached = false;
    return wr.readyAt;
}

void
Engine::recordWrite(Lpn page, Target target, Tick when)
{
    PageMeta &m = pageMeta_[page];
    if (m.version >= opts_.versionFlushThreshold) {
        // Flush before the one-byte counter wraps (§4.4).
        commitPage(page, when);
    }
    ++m.version;
    m.dirty = true;
    switch (target) {
      case Target::Isp:
      case Target::Pud:
        m.loc = Loc::Dram;
        m.dramCached = true;
        dramTouch(page, when);
        break;
      case Target::Ifp: {
        m.loc = Loc::Latch;
        // The page's latch lives on the die holding its physical
        // page, spreading latch pressure with the striped layout.
        m.latchDie = nand_.dieOf(ftl_.physicalOf(page));
        m.dramCached = false;
        // A rewrite refreshes the page's entry in its home die's
        // FIFO. The FIFOs do not hold exactly one slot per resident
        // page: a page that leaves the latch by the PuD route
        // (Lands::Dram) keeps its slot, a page whose home die
        // changed keeps a stale entry in the old die's FIFO, and a
        // page moveOperands() lands in a latch (Lands::Latch) never
        // enters one. Eviction skips entries no longer latch-resident
        // and dirty; the stale slots still count toward capacity.
        counters_.latchScanSteps +=
            latchFifo_.refresh(m.latchDie, page);
        latchFifo_.trim(m.latchDie, opts_.latchPagesPerDie,
                        [&](Lpn victim) {
                            const PageMeta &vm = pageMeta_[victim];
                            if (vm.loc == Loc::Latch && vm.dirty) {
                                commitPage(victim, when);
                                ++ctx_->result.latchEvictions;
                            }
                        });
        break;
      }
    }
}

Tick
Engine::moveOperands(const VecInstruction &instr, Target target,
                     Tick earliest)
{
    const NandConfig &n = cfg_.nand;
    RunResult &res = ctx_->result;
    EnergyModel &energy = ctx_->energy;
    const Lpn base = streamBase();
    Tick ready = earliest;
    for (const auto &s : instr.srcs) {
        for (Lpn p = base + s.basePage;
             p < base + s.basePage + s.pageCount; ++p) {
            // The route is read per visit, after earlier visits'
            // residency changes: a repeated page moves once.
            PageMeta &m = pageMeta_[p];
            const Route r = routeFor(m, target);
            FlashAddress home{};
            Tick at = earliest;
            for (std::uint8_t h = 0; h < r.count; ++h) {
                switch (r.hops[h]) {
                  case Hop::Sense: {
                    home = nand_.decode(ftl_.physicalOf(p));
                    auto rd = nand_.readPage(home, at);
                    energy.flashRead(1);
                    res.flashReadBusy += rd.end - rd.start;
                    at = rd.end;
                    break;
                  }
                  case Hop::ChannelOut:
                  case Hop::ChannelIn: {
                    // Out of the latch the page sits in or of the die
                    // it was just sensed on; in to its home die.
                    ServiceInterval x{at, at};
                    if (r.hops[h] == Hop::ChannelIn) {
                        home = nand_.decode(ftl_.physicalOf(p));
                        x = nand_.transferIn(home.channel, n.pageBytes,
                                             at);
                    } else {
                        x = nand_.transferOut(
                            m.loc == Loc::Latch
                                ? m.latchDie / n.diesPerChannel
                                : home.channel,
                            n.pageBytes, at);
                    }
                    energy.dma(1);
                    energy.channelTransfer(n.pageBytes);
                    res.internalDmBusy += x.end - x.start;
                    at = x.end;
                    break;
                  }
                  case Hop::DramWrite: {
                    auto w = dram_.access(static_cast<std::uint32_t>(p),
                                          n.pageBytes, at);
                    res.internalDmBusy += w.end - w.start;
                    at = w.end;
                    [[fallthrough]];
                  }
                  case Hop::DramStream:
                    energy.dramTransfer(n.pageBytes);
                    break;
                }
            }
            switch (r.lands) {
              case Lands::InPlace:
                break;
              case Lands::DramCopy:
                m.dramCached = true;
                break;
              case Lands::Dram:
                m.loc = Loc::Dram;
                break;
              case Lands::Latch:
                m.loc = Loc::Latch;
                m.latchDie = nand_.dieIndex(home);
                m.dramCached = false;
                break;
              case Lands::Flash:
                m.loc = Loc::Flash;
                break;
            }
            // ISP and PuD operands that end up DRAM-resident refresh
            // the staging LRU; IFP computes without touching DRAM.
            if (target != Target::Ifp &&
                (m.loc == Loc::Dram || m.dramCached))
                dramTouch(p, earliest);
            ready = std::max(ready, at);
        }
    }
    return ready;
}

void
Engine::computeEnergy(const VecInstruction &instr, Target target,
                      Tick busy)
{
    EnergyModel &energy = ctx_->energy;
    switch (target) {
      case Target::Isp:
        energy.ispBusy(busy);
        break;
      case Target::Pud:
        energy.pudOp(pud_.rowsFor(instr.elemBits, instr.lanes) *
                     pud_.bbopCount(instr.op, instr.elemBits));
        break;
      case Target::Ifp:
        energy.ifpOp(instr.op, instr.srcBytes());
        break;
    }
}

Tick
Engine::executeOn(const VecInstruction &instr, Target target,
                  Tick earliest)
{
    const auto ti = static_cast<std::size_t>(target);
    RunResult &res = ctx_->result;
    ++res.perResource[ti];
    const Lpn base = streamBase();

    if (ctx_->ideal) {
        // No contention, zero movement, table-latency compute; the
        // per-resource aggregate capacity is enforced in
        // sessionFinish().
        const Tick comp =
            compEstimate(instr, target, frags_.fragments());
        computeEnergy(instr, target, comp);
        res.computeBusy += comp;
        ctx_->idealBusy[ti] += comp;
        // Track result location (only) so operand-reuse effects such
        // as latch-resident IFP operands shape Ideal's choices.
        for (Lpn p = base + instr.dst.basePage;
             p < base + instr.dst.basePage + instr.dst.pageCount; ++p)
            pageMeta_[p].loc =
                target == Target::Ifp ? Loc::Latch : Loc::Dram;
        return earliest + comp;
    }

    // IFP counts sensed operands before the move turns dirty DRAM
    // operands into latch residents. The IFP and Ideal branches
    // reuse the fragment list features() just built: a replay never
    // targets IFP, and nothing writes the L2P in between (IFP-bound
    // movement neither touches the DRAM LRU nor commits a page).
    const std::uint32_t sensed =
        target == Target::Ifp ? sensedOperands(instr) : 0;
    const Tick ready = moveOperands(instr, target, earliest);
    ServiceInterval iv{ready, ready};
    switch (target) {
      case Target::Isp:
        iv = isp_.execute(instr.op, instr.elemBits, instr.lanes,
                          static_cast<std::uint32_t>(instr.srcs.size()),
                          instr.vectorized, ready);
        break;
      case Target::Pud:
        iv = pud_.execute(
            instr.op, instr.elemBits, instr.lanes,
            static_cast<std::uint32_t>(base + instr.dst.basePage), ready);
        break;
      case Target::Ifp: {
        const auto &frags = frags_.fragments();
        iv = ifp_.execute(instr.op, instr.elemBits,
                          static_cast<std::uint32_t>(instr.srcs.size()),
                          sensed, frags, ready);
        // Sensing energy: MWS activates the operand wordlines, all
        // at once for AND/NAND, maxOrOperands at a time for OR/NOR.
        std::uint64_t sensings = sensed;
        if (instr.op == OpCode::And || instr.op == OpCode::Nand) {
            sensings = std::min<std::uint64_t>(sensed, 1);
        } else if (instr.op == OpCode::Or || instr.op == OpCode::Nor) {
            sensings = (sensed + cfg_.nand.maxOrOperands - 1) /
                cfg_.nand.maxOrOperands;
        }
        ctx_->energy.ifpSense(sensings * frags.size());
        break;
      }
    }
    computeEnergy(instr, target, iv.end - iv.start);
    res.computeBusy += iv.end - iv.start;
    Tick done = iv.end;
    if (target == Target::Isp && instr.dstBytes() > 0) {
        // The ISP result streams into SSD DRAM.
        auto w = dram_.access(
            static_cast<std::uint32_t>(base + instr.dst.basePage),
            instr.dstBytes(), iv.end);
        ctx_->energy.dramTransfer(instr.dstBytes());
        res.internalDmBusy += w.end - w.start;
        done = w.end;
    }
    for (Lpn p = base + instr.dst.basePage;
         p < base + instr.dst.basePage + instr.dst.pageCount; ++p)
        recordWrite(p, target, done);
    return done;
}

void
Engine::dispatchNext(ExecContext &ctx)
{
    const Tick event_now = queue_->now();
    ctx_ = &ctx;
    // Background scrub rides on foreground dispatch activity. Ideal
    // streams stay the unrealizable bound: they never trigger aging
    // maintenance (and bypass the media model entirely).
    if (rel_ && !ctx.ideal)
        maybeScheduleScrub(event_now);
    const VecInstruction &instr = ctx.prog->instrs[ctx.pc];
    ++ctx.pc;
    RunResult &result = ctx.result;

    // Offloader pipeline stage: the decision core issues one
    // instruction per issue interval, while the full feature-
    // collection latency (§4.5, ~3.77us average) is added to the
    // instruction's dispatch latency (lookups overlap). The
    // offloader is shared: co-run streams' dispatch events contend
    // for issue slots FCFS. The event tick floors the acquisition:
    // a stream whose arrival event fires at T starts no earlier
    // than T even if the offloader sat idle before it (for tick-0
    // batch runs the floor is a no-op — a chain's dispatch never
    // fires after the calendar's free point).
    Tick disp_start;
    Tick now;
    Tick next_dispatch = 0;
    if (ctx.ideal) {
        disp_start = ctx.arrival;
        now = ctx.arrival;
    } else {
        const Tick ovh = offloadOverhead(
            instr, std::max(event_now, offloader_.freeAt()));
        auto disp = offloader_.acquire(event_now,
                                       cfg_.overhead.issueTicks);
        result.offloaderBusy += ovh;
        disp_start = disp.start;
        now = disp.start + ovh;
        next_dispatch = disp.end;
    }

    CostFeatures f = features(instr, now);
    const Target target = ctx.policy->select(instr, f);

    // Operand availability (RAW) gates execution start.
    Tick dep_ready = now;
    for (InstrId d : instr.deps) {
        if (d < ctx.completion.size())
            dep_ready = std::max(dep_ready, ctx.completion[d]);
    }

    Tick done = executeOn(instr, target, dep_ready);

    // Transient-fault injection: detection timeout, then replay
    // on the general-purpose core with the latest data (§4.4).
    if (opts_.transientFaultRate > 0.0 &&
        rng_.chance(opts_.transientFaultRate)) {
        ++result.faultsInjected;
        const Tick retry_at = done + kFaultTimeout;
        const Target alt =
            target == Target::Isp ? Target::Pud : Target::Isp;
        const Target replay_target =
            (alt == Target::Pud && !pudSupports(instr.op))
                ? Target::Isp
                : alt;
        done = executeOn(instr, replay_target, retry_at);
        ++result.replays;
    }

    ctx.completion[instr.id] = done;
    // Request latency: from the instruction becoming ready
    // (dispatched and operands available) to completion — the
    // per-request latency Fig. 8 reports tails over.
    const Tick ready = std::max(disp_start, dep_ready);
    result.latencyUs.add(ticksToUs(done > ready ? done - ready : 0));

    if (tracer_) {
        if (tracer_->wants(trace::Category::Occupancy)) {
            trace::Event e;
            e.cat = trace::Category::Occupancy;
            e.kind = trace::EventKind::Instr;
            e.device = traceId_;
            e.start = ready;
            e.end = done;
            e.a = instr.id;
            e.b = static_cast<std::uint64_t>(instr.op);
            e.c = static_cast<std::uint64_t>(target);
            // Rebuilt: recordWrite() may have committed pages.
            if (target == Target::Ifp)
                e.lane = fragmentsFor(instr).front().dieIndex;
            e.str = tracer_->intern(ctx.name);
            tracer_->record(e);
        }
        maybeSampleBacklog(done);
    }

    ctx_ = nullptr;

    // Chain the stream on: this instruction's completion event, then
    // the next dispatch. A stream's chain is strictly sequential, and
    // dispatches outrank same-tick completions, so one stream replays
    // the call sequence of a serial instruction loop. Completions
    // only advance the stream's end time: every resource was already
    // reserved above (the §4.3.2 reservation-calendar model).
    const Tick completes = std::max(event_now, done);
    ++ctx.outstanding;
    queue_->schedule(
        completes,
        [this, &ctx, completes] {
            ctx.execEnd = std::max(ctx.execEnd, completes);
            --ctx.outstanding;
            if (ctx.finished() && streamDone_)
                streamDone_(ctx);
        },
        kCompletionPriority);
    if (!ctx.done()) {
        queue_->schedule(
            std::max(event_now, next_dispatch),
            [this, &ctx] { dispatchNext(ctx); }, kDispatchPriority);
    }
}

Tick
Engine::drainStream(ExecContext &ctx, Tick after)
{
    ctx_ = &ctx;
    const NandConfig &n = cfg_.nand;
    Tick end = after;
    std::uint64_t pages = 0;
    for (Lpn p = ctx.base; p < ctx.base + ctx.prog->footprintPages; ++p) {
        PageMeta &m = pageMeta_[p];
        if (!m.dirty)
            continue;
        Tick src_ready = after;
        if (m.loc == Loc::Latch) {
            const std::uint32_t ch = m.latchDie / n.diesPerChannel;
            auto x = nand_.transferOut(ch, n.pageBytes, after);
            ctx.energy.dma(1);
            ctx.energy.channelTransfer(n.pageBytes);
            src_ready = x.end;
        }
        auto iv = pcie_.acquire(
            src_ready,
            transferTicks(n.pageBytes, cfg_.host.pcieBytesPerSec));
        ctx.energy.dramTransfer(n.pageBytes);
        ctx.result.hostDmBusy += iv.end - iv.start;
        end = std::max(end, iv.end);
        m.dirty = false;
        ++pages;
    }
    if (tracer_ && pages > 0 &&
        tracer_->wants(trace::Category::Occupancy)) {
        trace::Event e;
        e.cat = trace::Category::Occupancy;
        e.kind = trace::EventKind::HostDrain;
        e.device = traceId_;
        e.start = after;
        e.end = end;
        e.a = pages;
        e.str = tracer_->intern(ctx.name);
        tracer_->record(e);
    }
    stats_.counter("engine.drained_pages").inc(pages);
    ctx_ = nullptr;
    return end;
}

void
Engine::sessionBegin(std::uint64_t capacity_pages,
                     const EngineOptions &opts)
{
    ctx_ = nullptr;
    opts_ = opts;
    if (capacity_pages > ftl_.logicalPages()) {
        throw std::invalid_argument(
            "Engine: program footprint exceeds SSD logical capacity; "
            "scale the workload or the device");
    }
    ftl_.preload(capacity_pages);
    ftl_.setMappingCacheCapacity(capacity_pages);
    pageMeta_.assign(capacity_pages, PageMeta{});
    latchFifo_.reset(nand_.numDies());
    dramCapacityPages_ = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(
                static_cast<double>(capacity_pages) *
                opts.dramStagingFraction));
    dramLru_.reset(capacity_pages);
    queue_ = std::make_unique<EventQueue>();
    nextScrubAt_ = cfg_.reliability.scrubIntervalTicks;
    scrubCursor_ = 0;
    scrubScheduled_ = false;
}

void
Engine::maybeSampleBacklog(Tick now)
{
    if (!tracer_->wants(trace::Category::Queue) ||
        now < nextTraceSampleAt_)
        return;
    const Tick step = std::max<Tick>(1, tracer_->sampleInterval());
    while (nextTraceSampleAt_ <= now)
        nextTraceSampleAt_ += step;
    Tick die_backlog = 0;
    for (std::uint32_t d = 0; d < nand_.numDies(); ++d)
        die_backlog = std::max(die_backlog, nand_.dieBacklog(d, now));
    trace::Event e;
    e.cat = trace::Category::Queue;
    e.kind = trace::EventKind::BacklogSample;
    e.device = traceId_;
    e.lane = static_cast<std::uint32_t>(busyDieFraction(now) * 1e6);
    e.start = now;
    e.end = now;
    e.a = isp_.backlog(now);
    e.b = dram_.bankBacklog(now);
    e.c = die_backlog;
    tracer_->record(e);
}

double
Engine::busyDieFraction(Tick now) const
{
    const std::uint32_t dies = nand_.numDies();
    if (dies == 0)
        return 0.0;
    std::uint32_t busy = 0;
    for (std::uint32_t d = 0; d < dies; ++d)
        if (nand_.dieBacklog(d, now) > 0)
            ++busy;
    return static_cast<double>(busy) / static_cast<double>(dies);
}

void
Engine::maybeScheduleScrub(Tick now)
{
    if (scrubScheduled_ || cfg_.reliability.scrubIntervalTicks == 0)
        return;
    // Catch up without bursting: an idle gap longer than the
    // interval yields one pass, not a backlog of them.
    while (nextScrubAt_ < now)
        nextScrubAt_ += cfg_.reliability.scrubIntervalTicks;
    scrubScheduled_ = true;
    queue_->schedule(
        nextScrubAt_, [this] { scrubPass(); }, kScrubPriority);
}

void
Engine::scrubPass()
{
    scrubScheduled_ = false;
    nextScrubAt_ += cfg_.reliability.scrubIntervalTicks;
    const Tick now = queue_->now();
    rel_->notePass();
    const std::uint64_t total = ftl_.totalBlocks();
    const std::uint64_t window = std::min<std::uint64_t>(
        cfg_.reliability.scrubBlocksPerPass, total);
    std::uint32_t refreshed = 0;
    for (std::uint64_t i = 0; i < window; ++i) {
        const std::uint64_t bi = scrubCursor_;
        scrubCursor_ = (scrubCursor_ + 1) % total;
        if (!rel_->scrubDue(bi, nand_.eraseCount(bi), now))
            continue;
        if (ftl_.scrubBlock(bi, now)) {
            // A block that retired during the scrub collection left
            // the pool rather than being refreshed — it counts
            // against the pass's migration budget but not as a
            // refresh in the reported counters.
            if (!rel_->retired(bi))
                rel_->noteRefresh();
            if (++refreshed >= cfg_.reliability.scrubMaxRefreshPerPass)
                break;
        }
    }
    // Wear-leveling rides the same pass budget: while the pool's
    // erase-count spread exceeds the gap, migrate the coldest full
    // block so its young erases rejoin the allocator's rotation.
    std::uint32_t migrations = 0;
    if (cfg_.reliability.wearLevelEnabled) {
        for (std::uint32_t m = 0;
             m < cfg_.reliability.wearLevelMaxPerPass; ++m) {
            const std::int64_t bi =
                ftl_.wearLevelCandidate(cfg_.reliability.wearLevelGap);
            if (bi < 0)
                break;
            if (!ftl_.scrubBlock(static_cast<std::uint64_t>(bi), now))
                break;
            rel_->noteLevelMigration();
            ++migrations;
        }
    }
    if (tracer_ && tracer_->wants(trace::Category::Reliability)) {
        trace::Event e;
        e.cat = trace::Category::Reliability;
        e.kind = trace::EventKind::Scrub;
        e.device = traceId_;
        e.start = now;
        e.end = now;
        e.a = refreshed;
        e.b = migrations;
        tracer_->record(e);
    }
    // No self-rescheduling: the next dispatch re-arms the task, so
    // the queue drains once foreground traffic stops.
}

void
Engine::sessionAttach(ExecContext &ctx, const Program &prog,
                      OffloadPolicy &policy, const std::string &name,
                      std::uint64_t base_page, Tick arrival)
{
    if (base_page + prog.footprintPages > pageMeta_.size())
        throw std::invalid_argument(
            "Engine: stream region exceeds the session's prepared "
            "capacity");
    ctx.name = name.empty() ? prog.name : name;
    ctx.prog = &prog;
    ctx.policy = &policy;
    ctx.ideal = policy.ideal();
    ctx.base = base_page;
    ctx.arrival = arrival;
    ctx.completion.assign(prog.instrs.size(), 0);
    ctx.result.workload = ctx.name;
    ctx.result.policy = policy.name();
    if (ctx.done())
        return; // empty program: nothing to dispatch, finished on arrival
    // A future arrival tick schedules the first dispatch there — the
    // arrival event of an open-loop run.
    queue_->schedule(
        std::max(queue_->now(), arrival),
        [this, &ctx] { dispatchNext(ctx); }, kDispatchPriority);
}

Tick
Engine::sessionFinish(ExecContext &ctx)
{
    Tick end = ctx.execEnd;
    if (ctx.ideal) {
        // "No resource contention" still cannot beat the aggregate
        // capacity of each resource class: one controller core, all
        // DRAM banks, all flash dies perfectly load-balanced.
        end = std::max(
            end, ctx.arrival +
                ctx.idealBusy[static_cast<std::size_t>(Target::Isp)]);
        end = std::max(
            end, ctx.arrival +
                ctx.idealBusy[static_cast<std::size_t>(Target::Pud)] /
                    dram_.numBanks());
        end = std::max(
            end, ctx.arrival +
                ctx.idealBusy[static_cast<std::size_t>(Target::Ifp)] /
                    nand_.numDies());
    } else if (opts_.drainResults) {
        end = drainStream(ctx, end);
    }
    ctx.result.instrCount = ctx.prog->instrs.size();
    ctx.result.execTime = end;
    ctx.result.dmEnergyJ = ctx.energy.dataMovementJ();
    ctx.result.computeEnergyJ = ctx.energy.computeJ();
    return end;
}

void
Engine::sessionReclaim(std::uint64_t base_page, std::uint64_t pages)
{
    const Lpn limit = std::min<std::uint64_t>(base_page + pages,
                                              pageMeta_.size());
    for (Lpn p = base_page; p < limit; ++p) {
        dramLru_.eraseKey(p);
        pageMeta_[p] = PageMeta{};
    }
    latchFifo_.purge(base_page, limit);
}

Engine::Image
Engine::captureImage() const
{
    if (!queue_)
        throw std::logic_error(
            "Engine::captureImage: no session open");
    if (!queue_->empty() || ctx_ != nullptr)
        throw std::logic_error(
            "Engine::captureImage: session not quiescent");
    std::optional<reliability::ReliabilityModel::State> rel;
    if (rel_)
        rel = rel_->capture();
    return Image{ftl_.capture(), nand_.capture(), dram_.capture(),
                 isp_.capture(), std::move(rel), *this, stats_,
                 queue_->now(), queue_->eventsFired()};
}

void
Engine::restoreImage(const Image &img)
{
    if (img.rel.has_value() != (rel_ != nullptr))
        throw std::invalid_argument(
            "Engine::restoreImage: reliability enablement mismatch "
            "between the image and this engine's config");
    // The substrates' handles index stats_'s slots; the image's set
    // must hold each of them in the same slot.
    if (!img.stats.extends(stats_))
        throw std::invalid_argument(
            "Engine::restoreImage: the image's counters were "
            "registered by a differently configured engine");

    ftl_.restore(img.ftl);
    nand_.restore(img.nand);
    dram_.restore(img.dram);
    isp_.restore(img.isp);
    if (rel_)
        rel_->restore(*img.rel);
    State::operator=(img.session);
    stats_ = img.stats;
    ctx_ = nullptr;
    scrubScheduled_ = false; // quiescent capture: no pending event
    queue_ = std::make_unique<EventQueue>();
    queue_->restore(img.queueNow, img.queueFired);
}

} // namespace conduit
