#include "reference/timing_reference.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "gpusim/replay.hh"
#include "gpusim/simplecache.hh"
#include "support/logging.hh"

namespace rodinia {
namespace gpusim {
namespace reference {

namespace {

constexpr uint64_t kIdle = ~0ULL;

struct Cta;

/** One resident warp: its replay cursor and pending instruction. */
struct Warp
{
    Warp(const BlockRecord &block, int start, int warp_size)
        : rep(block, start, warp_size)
    {
    }

    WarpReplayer rep;
    WarpInst inst;
    bool hasInst = false;
    Cta *cta = nullptr;
};

/** One resident thread block and its barrier bookkeeping. */
struct Cta
{
    int blockDim = 0;
    uint64_t sharedBytes = 0;
    int smIndex = -1;
    std::vector<std::unique_ptr<Warp>> warps;
    int aliveWarps = 0;
    int arrived = 0;
    std::vector<Warp *> barrierWaiters;
};

struct WaitEntry
{
    uint64_t wake;
    uint64_t seq;
    Warp *warp;

    bool
    operator>(const WaitEntry &o) const
    {
        return wake != o.wake ? wake > o.wake : seq > o.seq;
    }
};

/** Per-SM issue state. */
struct Sm
{
    std::deque<Warp *> ready;
    std::priority_queue<WaitEntry, std::vector<WaitEntry>,
                        std::greater<WaitEntry>>
        waiting;
    uint64_t freeCycle = 0;
    std::vector<std::unique_ptr<Cta>> ctas;
    int usedCtas = 0;
    int usedThreads = 0;
    int usedRegs = 0;
    uint64_t usedShared = 0;
    std::unique_ptr<SimpleCache> l1;
    std::unique_ptr<SimpleCache> tex;
    std::unique_ptr<SimpleCache> cst;
};

/** Distinct coalesced segment addresses of a memory warp inst. */
void
coalesceSegs(int coal_shift, const WarpInst &inst,
             std::vector<uint64_t> &out)
{
    // coalesceBytes is validated power-of-two, so segment math is
    // shifts rather than 64-bit division on this per-memory-
    // instruction path.
    out.clear();
    for (int l = 0; l < 32; ++l) {
        if (!(inst.activeMask & (1u << l)))
            continue;
        uint64_t first = inst.addrs[size_t(l)] >> coal_shift;
        uint64_t last =
            (inst.addrs[size_t(l)] + std::max(inst.size, 1u) - 1) >>
            coal_shift;
        for (uint64_t s = first; s <= last; ++s) {
            uint64_t seg = s << coal_shift;
            if (std::find(out.begin(), out.end(), seg) == out.end())
                out.push_back(seg);
        }
    }
}

/** Distinct constant-memory words touched by a warp inst. */
void
constWords(const WarpInst &inst, std::vector<uint64_t> &out)
{
    out.clear();
    for (int l = 0; l < 32; ++l) {
        if (!(inst.activeMask & (1u << l)))
            continue;
        uint64_t word = inst.addrs[size_t(l)] >> 2;
        if (std::find(out.begin(), out.end(), word) == out.end())
            out.push_back(word);
    }
}

/** Shared-memory bank-conflict serialization factor. */
int
bankConflictFactorFor(const SimConfig &cfg, uint64_t bank_mask,
                      const WarpInst &inst)
{
    if (!cfg.bankConflictsEnabled)
        return 1;
    // Words mapping to the same bank serialize; identical words
    // broadcast. This runs once per shared-memory warp
    // instruction — the hot path of NW/LUD/HS simulations — so
    // it scans fixed stack arrays (at most 32 entries) instead
    // of allocating per-bank containers, and divides only when
    // the bank count is not a power of two.
    uint64_t seenWord[32];
    int seenBank[32];
    int n = 0;
    int factor = 1;
    for (int l = 0; l < 32; ++l) {
        if (!(inst.activeMask & (1u << l)))
            continue;
        uint64_t word = inst.addrs[size_t(l)] >> 2;
        int bank = bank_mask ? int(word & bank_mask)
                             : int(word % uint64_t(cfg.sharedBanks));
        bool dup = false;
        int multiplicity = 1;
        for (int i = 0; i < n; ++i) {
            if (seenWord[i] == word) {
                dup = true; // broadcast: no extra cost
                break;
            }
            if (seenBank[i] == bank)
                ++multiplicity;
        }
        if (dup)
            continue;
        seenWord[n] = word;
        seenBank[n] = bank;
        ++n;
        factor = std::max(factor, multiplicity);
    }
    return factor;
}

int
channelOf(uint64_t addr, uint64_t chan_mask, int num_channels)
{
    return chan_mask ? int((addr >> 8) & chan_mask)
                     : int((addr >> 8) % uint64_t(num_channels));
}

/** Single-launch serial simulation: every cycle, each SM in index
 *  order issues at most one warp instruction. */
class Engine
{
  public:
    Engine(const SimConfig &cfg, const KernelRecording &rec)
        : cfg(cfg), rec(rec)
    {
    }

    KernelStats
    run()
    {
        stats.numChannels = cfg.numChannels;
        stats.coreClockGhz = cfg.coreClockGhz;

        sms.resize(size_t(cfg.numSms));
        for (auto &sm : sms) {
            if (cfg.l1Enabled)
                sm.l1 = std::make_unique<SimpleCache>(cfg.l1Bytes, 8,
                                                      cfg.l1LineBytes);
            sm.tex = std::make_unique<SimpleCache>(cfg.texCacheBytes, 8, 64);
            sm.cst = std::make_unique<SimpleCache>(cfg.constCacheBytes, 8,
                                                   64);
        }
        if (cfg.l2Enabled)
            l2 = std::make_unique<SimpleCache>(cfg.l2Bytes, 16,
                                               cfg.l2LineBytes);
        chFree.assign(size_t(cfg.numChannels), 0);
        bankMask = (cfg.sharedBanks & (cfg.sharedBanks - 1)) == 0
                       ? uint64_t(cfg.sharedBanks) - 1
                       : 0;
        chanMask = (cfg.numChannels & (cfg.numChannels - 1)) == 0
                       ? uint64_t(cfg.numChannels) - 1
                       : 0;
        coalShift = __builtin_ctz(unsigned(cfg.coalesceBytes));

        blocksRemaining = rec.blocks.size();
        for (size_t s = 0;
             s < sms.size() && nextBlock < rec.blocks.size(); ++s)
            placeBlocks(s, 0);

        // smNext[s] is a conservative lower bound on the next cycle
        // at which SM s can make progress; the per-cycle scan skips
        // an SM with one dense-array compare instead of touching its
        // queues. Deferring the waiting->ready drain this way cannot
        // change results: entries drain in (wake, seq) heap order
        // whether moved cycle-by-cycle or in one batch, and issue
        // itself only ever happens at cycles the bound admits. Only
        // the SM an issue runs on can gain work (barrier release and
        // block placement are SM-local), so recomputing the bound
        // after visiting that SM keeps it valid.
        smNext.assign(sms.size(), 0);
        uint64_t cycle = 0;
        while (blocksRemaining > 0) {
            bool issued = false;
            for (size_t s = 0; s < sms.size(); ++s) {
                if (smNext[s] > cycle)
                    continue;
                Sm &sm = sms[s];
                while (!sm.waiting.empty() &&
                       sm.waiting.top().wake <= cycle) {
                    sm.ready.push_back(sm.waiting.top().warp);
                    sm.waiting.pop();
                }
                if (cycle >= sm.freeCycle && !sm.ready.empty()) {
                    Warp *w = sm.ready.front();
                    sm.ready.pop_front();
                    issue(s, *w, cycle);
                    issued = true;
                    if (blocksRemaining == 0)
                        break;
                }
                smNext[s] =
                    !sm.ready.empty()
                        ? std::max(sm.freeCycle, cycle + 1)
                        : (!sm.waiting.empty()
                               ? std::max(sm.waiting.top().wake,
                                          cycle + 1)
                               : kIdle);
            }
            if (blocksRemaining == 0)
                break;
            if (issued) {
                ++cycle;
                continue;
            }
            // Nothing issued: jump to the next interesting cycle.
            uint64_t next = kIdle;
            for (uint64_t lb : smNext)
                next = std::min(next, std::max(cycle + 1, lb));
            if (next == kIdle) {
                std::vector<SmSnapshot> snaps(sms.size());
                for (size_t s = 0; s < sms.size(); ++s)
                    snaps[s] = {sms[s].ready.size(),
                                sms[s].waiting.size(),
                                sms[s].usedCtas, sms[s].freeCycle,
                                smNext[s]};
                panic(formatDeadlockDiagnostics(
                    cycle, nextBlock, rec.blocks.size(),
                    blocksRemaining, snaps));
            }
            cycle = next;
        }

        stats.cycles = std::max(cycle, simEnd);
        return stats;
    }

  private:
    bool
    canFit(const Sm &sm, const BlockRecord &block) const
    {
        if (sm.usedCtas == 0)
            return true; // always allow one CTA to avoid deadlock
        return sm.usedCtas < cfg.maxCtasPerSm &&
               sm.usedThreads + block.blockDim <= cfg.maxThreadsPerSm &&
               sm.usedShared + block.sharedBytes <= cfg.sharedMemPerSm &&
               sm.usedRegs + block.blockDim * cfg.regsPerThread <=
                   cfg.regFileSize;
    }

    void
    placeBlocks(size_t sm_index, uint64_t cycle)
    {
        Sm &sm = sms[sm_index];
        while (nextBlock < rec.blocks.size() &&
               canFit(sm, rec.blocks[nextBlock])) {
            const BlockRecord &block = rec.blocks[nextBlock];
            ++nextBlock;

            auto cta = std::make_unique<Cta>();
            cta->blockDim = block.blockDim;
            cta->sharedBytes = block.sharedBytes;
            cta->smIndex = int(sm_index);
            int warps = warpsPerBlock(block.blockDim, cfg.warpSize);
            for (int wi = 0; wi < warps; ++wi) {
                auto warp = std::make_unique<Warp>(
                    block, wi * cfg.warpSize, cfg.warpSize);
                warp->cta = cta.get();
                warp->hasInst = warp->rep.next(warp->inst);
                if (warp->hasInst) {
                    ++cta->aliveWarps;
                    sm.waiting.push({cycle + 1, seq++, warp.get()});
                }
                cta->warps.push_back(std::move(warp));
            }

            if (cta->aliveWarps == 0) {
                // Block recorded nothing; it completes immediately.
                --blocksRemaining;
                continue;
            }

            sm.usedCtas += 1;
            sm.usedThreads += block.blockDim;
            sm.usedShared += block.sharedBytes;
            sm.usedRegs += block.blockDim * cfg.regsPerThread;
            sm.ctas.push_back(std::move(cta));
        }
    }

    /** One global-memory transaction; returns its completion cycle. */
    uint64_t
    dramAccess(Sm &sm, uint64_t cycle, uint64_t addr, bool is_write,
               bool use_l1)
    {
        if (cfg.l1Enabled && use_l1 && !is_write) {
            if (sm.l1->access(addr)) {
                ++stats.l1Hits;
                return cycle + cfg.l1HitLatency;
            }
            ++stats.l1Misses;
        }
        if (l2) {
            if (l2->access(addr)) {
                ++stats.l2Hits;
                return cycle + cfg.l2HitLatency;
            }
            ++stats.l2Misses;
        }
        int ch = channelOf(addr, chanMask, cfg.numChannels);
        uint64_t svc = uint64_t(cfg.channelServiceCycles());
        uint64_t start = std::max(cycle, chFree[size_t(ch)]);
        chFree[size_t(ch)] = start + svc;
        stats.channelBusyCycles += svc;
        stats.dramBytes += uint64_t(cfg.coalesceBytes);
        ++stats.dramTransactions;
        return start + svc + uint64_t(cfg.gmemLatencyCycles);
    }

    void
    finishWarp(size_t sm_index, Warp &w, uint64_t cycle)
    {
        Cta *cta = w.cta;
        --cta->aliveWarps;
        if (cta->aliveWarps > 0) {
            // A warp ending can complete a barrier rendezvous.
            if (cta->arrived == cta->aliveWarps && cta->arrived > 0)
                releaseBarrier(sm_index, *cta, cycle);
            return;
        }

        // CTA complete: free resources, pull in pending work.
        Sm &sm = sms[sm_index];
        sm.usedCtas -= 1;
        sm.usedThreads -= cta->blockDim;
        sm.usedShared -= cta->sharedBytes;
        sm.usedRegs -= cta->blockDim * cfg.regsPerThread;
        --blocksRemaining;
        placeBlocks(sm_index, cycle);
    }

    void
    releaseBarrier(size_t sm_index, Cta &cta, uint64_t cycle)
    {
        Sm &sm = sms[sm_index];
        for (Warp *waiter : cta.barrierWaiters)
            sm.waiting.push({cycle + barrierLatency, seq++, waiter});
        cta.barrierWaiters.clear();
        cta.arrived = 0;
    }

    void
    issue(size_t sm_index, Warp &w, uint64_t cycle)
    {
        Sm &sm = sms[sm_index];
        // Reference, not copy (WarpInst carries 32 lane addresses):
        // every read below happens before w.rep.next(w.inst)
        // overwrites the slot at the end of issue.
        const WarpInst &inst = w.inst;
        const int active = inst.activeLanes();
        const int issueC = cfg.warpIssueCycles();

        // Commit statistics.
        stats.warpInstructions += inst.count;
        stats.threadInstructions += uint64_t(active) * inst.count;
        size_t bucket = size_t(std::min((active - 1) / 8, 3));
        stats.occupancyBuckets[bucket] += inst.count;

        // Memory instructions carry implicit address-arithmetic
        // instructions: commit them and occupy the issue slot.
        uint64_t issue_done = cycle + uint64_t(issueC);
        if (inst.op == GOp::Load || inst.op == GOp::Store) {
            stats.memOps[size_t(inst.space)] += uint64_t(active);
            uint64_t extra = uint64_t(cfg.addressAluPerMem);
            if (extra) {
                stats.warpInstructions += extra;
                stats.threadInstructions += extra * uint64_t(active);
                stats.occupancyBuckets[bucket] += extra;
                issue_done = cycle + uint64_t(issueC) * (1 + extra);
            }
        }

        uint64_t wake = issue_done;
        sm.freeCycle = issue_done;

        switch (inst.op) {
          case GOp::IntAlu:
          case GOp::FpAlu:
          case GOp::Branch:
            sm.freeCycle = cycle + uint64_t(issueC) * inst.count;
            wake = sm.freeCycle;
            break;

          case GOp::Sync: {
            // Advance past the barrier, then park until release.
            Cta *cta = w.cta;
            w.hasInst = w.rep.next(w.inst);
            if (!w.hasInst) {
                finishWarp(sm_index, w, cycle);
            } else {
                cta->barrierWaiters.push_back(&w);
                ++cta->arrived;
                if (cta->arrived == cta->aliveWarps)
                    releaseBarrier(sm_index, *cta, cycle);
            }
            simEnd = std::max(simEnd, cycle + uint64_t(issueC));
            return;
          }

          case GOp::Load:
          case GOp::Store:
            switch (inst.space) {
              case Space::Shared: {
                int factor = bankConflictFactorFor(cfg, bankMask, inst);
                sm.freeCycle = issue_done + uint64_t(issueC) *
                                                uint64_t(factor - 1);
                wake = sm.freeCycle;
                stats.bankConflictExtraCycles +=
                    uint64_t(issueC) * uint64_t(factor - 1);
                break;
              }
              case Space::Param:
                break; // register-speed, always hits
              case Space::Const: {
                // Distinct words serialize on the constant cache.
                constWords(inst, scratch);
                uint64_t done = issue_done + uint64_t(cfg.constHitLatency);
                for (uint64_t word : scratch) {
                    if (sm.cst->access(word << 2)) {
                        ++stats.constHits;
                    } else {
                        ++stats.constMisses;
                        done = std::max(done, dramAccess(sm, cycle,
                                                         word << 2, false,
                                                         false));
                    }
                }
                sm.freeCycle =
                    issue_done +
                    uint64_t(issueC) *
                        (std::max<size_t>(scratch.size(), 1) - 1);
                wake = std::max(done, sm.freeCycle);
                break;
              }
              case Space::Tex: {
                coalesceSegs(coalShift, inst, scratch);
                uint64_t done = issue_done + uint64_t(cfg.texHitLatency);
                for (uint64_t seg : scratch) {
                    if (sm.tex->access(seg)) {
                        ++stats.texHits;
                    } else {
                        ++stats.texMisses;
                        done = std::max(done, dramAccess(sm, cycle, seg,
                                                         false, false));
                    }
                }
                wake = done;
                break;
              }
              case Space::Global:
              case Space::Local:
              default: {
                coalesceSegs(coalShift, inst, scratch);
                if (inst.op == GOp::Load) {
                    uint64_t done = issue_done;
                    for (uint64_t seg : scratch)
                        done = std::max(done, dramAccess(sm, cycle, seg,
                                                         false, true));
                    wake = done;
                } else {
                    // Stores are buffered: consume bandwidth but do
                    // not stall the warp.
                    for (uint64_t seg : scratch)
                        simEnd = std::max(simEnd,
                                          dramAccess(sm, cycle, seg, true,
                                                     true));
                }
                break;
              }
            }
            break;
        }

        simEnd = std::max(simEnd, wake);
        w.hasInst = w.rep.next(w.inst);
        if (!w.hasInst) {
            finishWarp(sm_index, w, cycle);
            return;
        }
        // Heap bypass for stall-bound instructions (ALU, shared,
        // cache-hit constant): when the warp wakes no later than the
        // SM's own issue stall, the SM cannot issue before `wake`, so
        // every future push on this SM carries a strictly larger wake
        // (freeCycle is monotone and wake' > cycle' >= freeCycle).
        // If every already-parked warp also wakes strictly later,
        // the (wake, seq) drain would deliver this warp exactly at
        // the back of the current ready queue — append it there
        // directly and skip the priority-queue round trip. An equal
        // top wake means an older (smaller-seq) warp must go first,
        // so that case takes the heap path.
        if (wake <= sm.freeCycle &&
            (sm.waiting.empty() || sm.waiting.top().wake > wake)) {
            sm.ready.push_back(&w);
            return;
        }
        sm.waiting.push({std::max(wake, cycle + 1), seq++, &w});
    }

    static constexpr uint64_t barrierLatency = 8;

    const SimConfig &cfg;
    const KernelRecording &rec;
    KernelStats stats;
    std::vector<Sm> sms;
    std::unique_ptr<SimpleCache> l2;
    std::vector<uint64_t> chFree;
    std::vector<uint64_t> scratch;
    std::vector<uint64_t> smNext; //!< per-SM next-progress lower bound
    uint64_t bankMask = 0; //!< sharedBanks-1 when a power of two
    uint64_t chanMask = 0; //!< numChannels-1 when a power of two
    int coalShift = 0;     //!< log2(coalesceBytes)
    size_t nextBlock = 0;
    size_t blocksRemaining = 0;
    uint64_t seq = 0;
    uint64_t simEnd = 0;
};

} // namespace

KernelStats
simulate(const SimConfig &cfg, const KernelRecording &rec)
{
    cfg.validate();
    Engine engine(cfg, rec);
    return engine.run();
}

KernelStats
simulate(const SimConfig &cfg, const LaunchSequence &seq)
{
    KernelStats total;
    for (const auto &rec : seq.launches) {
        KernelStats s = simulate(cfg, rec);
        s.cycles += cfg.launchOverheadCycles;
        total.add(s);
    }
    return total;
}

} // namespace reference
} // namespace gpusim
} // namespace rodinia
