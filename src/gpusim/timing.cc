#include "gpusim/timing.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <iomanip>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <sstream>
#include <thread>
#include <vector>

#include "gpusim/replay.hh"
#include "gpusim/simplecache.hh"
#include "support/cancel.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace rodinia {
namespace gpusim {

void
KernelStats::add(const KernelStats &o)
{
    cycles += o.cycles;
    threadInstructions += o.threadInstructions;
    warpInstructions += o.warpInstructions;
    for (size_t i = 0; i < occupancyBuckets.size(); ++i)
        occupancyBuckets[i] += o.occupancyBuckets[i];
    for (size_t i = 0; i < memOps.size(); ++i)
        memOps[i] += o.memOps[i];
    dramTransactions += o.dramTransactions;
    dramBytes += o.dramBytes;
    channelBusyCycles += o.channelBusyCycles;
    bankConflictExtraCycles += o.bankConflictExtraCycles;
    l1Hits += o.l1Hits;
    l1Misses += o.l1Misses;
    l2Hits += o.l2Hits;
    l2Misses += o.l2Misses;
    texHits += o.texHits;
    texMisses += o.texMisses;
    constHits += o.constHits;
    constMisses += o.constMisses;
    numChannels = o.numChannels;
    coreClockGhz = o.coreClockGhz;
}

bool
KernelStats::operator==(const KernelStats &o) const
{
    return cycles == o.cycles &&
           threadInstructions == o.threadInstructions &&
           warpInstructions == o.warpInstructions &&
           occupancyBuckets == o.occupancyBuckets &&
           memOps == o.memOps &&
           dramTransactions == o.dramTransactions &&
           dramBytes == o.dramBytes &&
           channelBusyCycles == o.channelBusyCycles &&
           bankConflictExtraCycles == o.bankConflictExtraCycles &&
           l1Hits == o.l1Hits && l1Misses == o.l1Misses &&
           l2Hits == o.l2Hits && l2Misses == o.l2Misses &&
           texHits == o.texHits && texMisses == o.texMisses &&
           constHits == o.constHits && constMisses == o.constMisses &&
           numChannels == o.numChannels &&
           coreClockGhz == o.coreClockGhz;
}

std::string
serializeKernelStats(const KernelStats &s)
{
    std::ostringstream os;
    os << "gpustats 1\n"
       << s.cycles << " " << s.threadInstructions << " "
       << s.warpInstructions << "\n";
    for (size_t i = 0; i < s.occupancyBuckets.size(); ++i)
        os << (i ? " " : "") << s.occupancyBuckets[i];
    os << "\n";
    for (size_t i = 0; i < s.memOps.size(); ++i)
        os << (i ? " " : "") << s.memOps[i];
    os << "\n"
       << s.dramTransactions << " " << s.dramBytes << " "
       << s.channelBusyCycles << " " << s.bankConflictExtraCycles
       << "\n"
       << s.l1Hits << " " << s.l1Misses << " " << s.l2Hits << " "
       << s.l2Misses << " " << s.texHits << " " << s.texMisses << " "
       << s.constHits << " " << s.constMisses << "\n"
       << s.numChannels << " "
       << std::setprecision(std::numeric_limits<double>::max_digits10)
       << s.coreClockGhz << "\n";
    return os.str();
}

bool
parseKernelStats(const std::string &payload, KernelStats &out)
{
    std::istringstream in(payload);
    std::string tag;
    int version = 0;
    in >> tag >> version;
    if (tag != "gpustats" || version != 1)
        return false;
    in >> out.cycles >> out.threadInstructions >>
        out.warpInstructions;
    for (auto &b : out.occupancyBuckets)
        in >> b;
    for (auto &m : out.memOps)
        in >> m;
    in >> out.dramTransactions >> out.dramBytes >>
        out.channelBusyCycles >> out.bankConflictExtraCycles;
    in >> out.l1Hits >> out.l1Misses >> out.l2Hits >> out.l2Misses >>
        out.texHits >> out.texMisses >> out.constHits >>
        out.constMisses;
    in >> out.numChannels >> out.coreClockGhz;
    return bool(in);
}

std::string
serializeTraceStats(const TraceStats &s)
{
    std::ostringstream os;
    os << "tracestats 1\n"
       << s.warpInstructions << " " << s.threadInstructions << "\n";
    for (size_t i = 0; i < s.occupancyBuckets.size(); ++i)
        os << (i ? " " : "") << s.occupancyBuckets[i];
    os << "\n";
    for (size_t i = 0; i < s.memOps.size(); ++i)
        os << (i ? " " : "") << s.memOps[i];
    os << "\n";
    return os.str();
}

bool
parseTraceStats(const std::string &payload, TraceStats &out)
{
    std::istringstream in(payload);
    std::string tag;
    int version = 0;
    in >> tag >> version;
    if (tag != "tracestats" || version != 1)
        return false;
    in >> out.warpInstructions >> out.threadInstructions;
    for (auto &b : out.occupancyBuckets)
        in >> b;
    for (auto &m : out.memOps)
        in >> m;
    return bool(in);
}

std::string
formatDeadlockDiagnostics(uint64_t cycle, size_t next_block,
                          size_t total_blocks, size_t blocks_remaining,
                          const std::vector<SmSnapshot> &sms)
{
    std::ostringstream os;
    os << "gpusim deadlock: no runnable warps at cycle " << cycle
       << " with " << blocks_remaining << " of " << total_blocks
       << " blocks unfinished (next block to place: " << next_block
       << " of " << total_blocks << ")";
    for (size_t s = 0; s < sms.size(); ++s) {
        const SmSnapshot &sm = sms[s];
        os << "\n  sm" << s << ": ready=" << sm.readyWarps
           << " waiting=" << sm.waitingWarps
           << " ctas=" << sm.residentCtas
           << " freeCycle=" << sm.freeCycle << " next=";
        if (sm.nextBound == ~0ULL)
            os << "idle";
        else
            os << sm.nextBound;
    }
    return os.str();
}

namespace {

/** setSimEpochForTest's cap; 0 = use epochCyclesFor unmodified. */
std::atomic<uint64_t> epochCapForTest{0};

} // namespace

uint64_t
epochCyclesFor(const SimConfig &cfg)
{
    // The shortest path through shared state: an L2 hit, or a DRAM
    // transaction that starts on an idle channel. Any request issued
    // at cycle c therefore completes at or after c + E, i.e. never
    // before the next epoch boundary — which is exactly what lets the
    // engine defer all shared-state arbitration to the
    // boundary without changing any warp's wake cycle.
    uint64_t dram = uint64_t(cfg.channelServiceCycles()) +
                    uint64_t(cfg.gmemLatencyCycles > 0
                                 ? cfg.gmemLatencyCycles
                                 : 0);
    uint64_t e = dram;
    if (cfg.l2Enabled && uint64_t(cfg.l2HitLatency) < e)
        e = uint64_t(cfg.l2HitLatency);
    return e > 0 ? e : 1;
}

void
setSimEpochForTest(uint64_t cycles)
{
    epochCapForTest.store(cycles, std::memory_order_relaxed);
}

namespace {

constexpr uint64_t kIdle = ~0ULL;

/**
 * Can this block never satisfy canFit's steady-state bounds on an
 * *empty* SM, i.e. does its standalone demand exceed the SM's total
 * capacity? Such a CTA is only ever admitted through the "always
 * allow one CTA" deadlock-avoidance hatch, and silently simulating
 * it understates contention, so the engine counts it
 * (gpusim.oversubscribed_cta, reported by `--stats`).
 */
bool
ctaOverloads(const SimConfig &cfg, const WarpTrace::Block &block)
{
    return block.blockDim > cfg.maxThreadsPerSm ||
           block.sharedBytes > cfg.sharedMemPerSm ||
           block.blockDim * cfg.regsPerThread > cfg.regFileSize;
}

struct Cta;

/** One resident warp: a cursor at its next instruction. */
struct Warp
{
    WarpTrace::Cursor cur;
    Cta *cta = nullptr;
};

/** One resident thread block and its barrier bookkeeping. */
struct Cta
{
    int blockDim = 0;
    uint64_t sharedBytes = 0;
    int smIndex = -1;
    std::vector<Warp> warps; //!< reserved up front: never reallocates
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

/*
 * The epoch timing engine.
 *
 * Its results are defined by a plain cycle-by-cycle scan that, each
 * cycle, visits the SMs in index order and lets each issue at most
 * one warp instruction, touching the shared L2/DRAM model and the
 * global block counter as it goes (that scan is the reference model
 * in tests/reference/, which the tests compare this engine against).
 *
 * SMs only interact through (a) the shared L2/DRAM channel model,
 * (b) the global block-dispatch counter, and (c) the global
 * simulation-end watermark. The engine advances every SM E cycles at
 * a time where E = epochCyclesFor(cfg) is the minimum latency of any
 * path through shared state, so a shared request issued inside an
 * epoch cannot wake its warp before the next epoch boundary. Each SM
 * therefore simulates its epoch on a private lane — buffering shared
 * requests in issue order and parking their warps — and the
 * coordinator replays the buffers through the real L2/channel state
 * at the barrier in canonical (cycle, smIndex, lane-FIFO) order:
 * exactly the scan's shared-access order. CTA completions suspend
 * their lane mid-epoch so the coordinator can hand out blocks in the
 * same canonical order. The result is bit-identical KernelStats for
 * any lane-runner count and any epoch length <= E (DESIGN.md "Timing
 * engine").
 */

/** One deferred shared-memory-system request (L2/DRAM). */
struct DeferredReq
{
    uint64_t cycle;      //!< issue cycle: canonical replay major key
    uint64_t addr;       //!< coalesced segment / constant word address
    int64_t pendingSlot; //!< index into Lane::pending; -1 = none
};

/** A warp parked on at least one deferred request this epoch. */
struct PendingWarp
{
    Warp *warp;    //!< nullptr when the warp finished at issue time
    uint64_t wake; //!< max over the SM-locally-known components
    uint64_t cycle; //!< issue cycle (for the max(wake, cycle+1) rule)
    uint64_t seqNo; //!< lane seq reserved at issue: keeps heap order
};

/** One SM's private simulation state plus its epoch buffers. */
struct Lane
{
    Sm sm;
    size_t smIndex = 0;
    uint64_t cycle = 0; //!< next unsimulated cycle
    uint64_t seq = 0;   //!< lane-local (wake, seq) tie-break counter
    uint64_t simEnd = 0;
    uint64_t loops = 0;
    bool paused = false;     //!< waiting for coordinator block handout
    uint64_t pauseCycle = 0; //!< cycle of the suspending completion
    KernelStats stats;       //!< SM-local partial sums
    WarpInst inst;           //!< the instruction being issued
    std::vector<uint64_t> scratch;
    std::vector<uint64_t> defer; //!< current issue's deferred addrs
    std::vector<DeferredReq> reqs;
    std::vector<PendingWarp> pending;
    size_t replayPos = 0;
};

/**
 * Single-launch engine: per-SM lanes advanced in epochs by the
 * calling thread plus a small helper pool, with all shared state
 * touched only by the coordinator between epochs.
 */
class EpochEngine
{
  public:
    EpochEngine(const SimConfig &cfg, const WarpTrace &trace,
                int participants)
        : cfg(cfg), trace(trace),
          participants(participants),
          parentCancel(support::currentCancelToken())
    {
    }

    ~EpochEngine()
    {
        {
            std::lock_guard<std::mutex> g(mu);
            shutdown = true;
        }
        cvStart.notify_all();
        for (auto &t : workers)
            t.join();
    }

    KernelStats
    run()
    {
        stats.coreClockGhz = cfg.coreClockGhz;

        lanes.resize(size_t(cfg.numSms));
        for (size_t s = 0; s < lanes.size(); ++s) {
            Lane &ln = lanes[s];
            ln.smIndex = s;
            if (cfg.l1Enabled)
                ln.sm.l1 = std::make_unique<SimpleCache>(
                    cfg.l1Bytes, 8, cfg.l1LineBytes);
            ln.sm.tex =
                std::make_unique<SimpleCache>(cfg.texCacheBytes, 8, 64);
            ln.sm.cst =
                std::make_unique<SimpleCache>(cfg.constCacheBytes, 8, 64);
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

        uint64_t epochLen = epochCyclesFor(cfg);
        uint64_t cap = epochCapForTest.load(std::memory_order_relaxed);
        if (cap && cap < epochLen)
            epochLen = cap; // shorter epochs are always sound

        blocksRemaining = trace.blocks.size();
        for (size_t s = 0;
             s < lanes.size() && nextBlock < trace.blocks.size(); ++s)
            placeBlocks(lanes[s], 0);

        uint64_t finalCycle = 0;
        if (blocksRemaining > 0) {
            spawnWorkers();
            uint64_t base = 0;
            for (;;) {
                auto t0 = std::chrono::steady_clock::now();
                uint64_t end = base + epochLen;
                runRound(end);
                bool done = resolvePauses(end, finalCycle);
                // Replay even on the final epoch: buffered stores and
                // finished-warp loads up to the final cycle are real
                // traffic the reference scan counts too.
                replayEpoch();
                ++epochCount;
                auto t1 = std::chrono::steady_clock::now();
                support::metrics::observe(
                    "gpusim.epoch.span_us",
                    uint64_t(std::chrono::duration_cast<
                                 std::chrono::microseconds>(t1 - t0)
                                 .count()));
                if (done)
                    break;
                // Idle-jump: next epoch starts at the earliest cycle
                // any lane can make progress (never before `end`).
                uint64_t next = kIdle;
                for (Lane &ln : lanes)
                    next = std::min(next, laneBound(ln));
                if (next == kIdle) {
                    std::vector<SmSnapshot> snaps(lanes.size());
                    for (size_t s = 0; s < lanes.size(); ++s)
                        snaps[s] = {lanes[s].sm.ready.size(),
                                    lanes[s].sm.waiting.size(),
                                    lanes[s].sm.usedCtas,
                                    lanes[s].sm.freeCycle,
                                    laneBound(lanes[s])};
                    panic(formatDeadlockDiagnostics(
                        end, nextBlock, trace.blocks.size(),
                        blocksRemaining, snaps));
                }
                base = std::max(end, next);
                for (Lane &ln : lanes)
                    ln.cycle = base;
            }
        }

        // Merge lane partials into the shared (replay-side) totals.
        for (Lane &ln : lanes) {
            stats.add(ln.stats);
            simEnd = std::max(simEnd, ln.simEnd);
        }
        stats.cycles = std::max(finalCycle, simEnd);
        stats.numChannels = cfg.numChannels;
        stats.coreClockGhz = cfg.coreClockGhz;

        namespace m = support::metrics;
        using St = m::Stability;
        m::count("gpusim.epoch.runs", 1, St::Volatile);
        m::count("gpusim.epoch.count", epochCount, St::Volatile);
        m::count("gpusim.epoch.deferred_replays", replayCount,
                 St::Volatile);
        m::count("gpusim.epoch.cta_pauses", pauseCount, St::Volatile);
        m::gauge("gpusim.epoch.threads", uint64_t(participants));
        return stats;
    }

  private:
    // ---- worker pool -------------------------------------------------

    void
    spawnWorkers()
    {
        // Participant 0 is the coordinator (the calling thread).
        int helpers = std::min(participants - 1, int(lanes.size()) - 1);
        workers.reserve(size_t(std::max(helpers, 0)));
        for (int p = 1; p <= helpers; ++p)
            workers.emplace_back(&EpochEngine::workerMain, this);
        participants = helpers + 1;
    }

    /**
     * Run lanes of round @p r until none is left to claim. Lanes are
     * claimed one at a time, so a helper the OS has not scheduled yet
     * holds up nothing: whoever is running takes its lanes, and the
     * round waits only for lanes already in flight. A helper that
     * wakes after its round ended finds round != r and claims
     * nothing.
     */
    void
    claimLanes(uint64_t r, uint64_t epoch_end)
    {
        std::unique_lock<std::mutex> lock(mu);
        while (round == r && nextLane < lanes.size()) {
            Lane &ln = lanes[nextLane++];
            lock.unlock();
            std::exception_ptr err;
            try {
                runLane(ln, epoch_end);
            } catch (...) {
                err = std::current_exception();
            }
            lock.lock();
            if (err)
                errors.push_back(err);
            if (++lanesDone == lanes.size())
                cvDone.notify_one();
        }
    }

    void
    workerMain()
    {
        // Workers poll the same cancellation token as the coordinator
        // so a cancelled or overdue sim unwinds on every thread.
        support::CancelScope cancel(parentCancel);
        uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            cvStart.wait(lock, [&] { return shutdown || round != seen; });
            if (shutdown)
                return;
            seen = round;
            uint64_t end = roundEnd;
            lock.unlock();
            claimLanes(seen, end);
            lock.lock();
        }
    }

    /** One epoch's phase 1: the participants run every lane. */
    void
    runRound(uint64_t end)
    {
        uint64_t r;
        {
            std::lock_guard<std::mutex> g(mu);
            r = ++round;
            roundEnd = end;
            nextLane = 0;
            lanesDone = 0;
        }
        if (!workers.empty())
            cvStart.notify_all();
        claimLanes(r, end);
        std::exception_ptr err;
        {
            std::unique_lock<std::mutex> lock(mu);
            cvDone.wait(lock, [&] { return lanesDone == lanes.size(); });
            if (!errors.empty()) {
                err = errors.front();
                errors.clear();
            }
        }
        if (err)
            std::rethrow_exception(err);
    }

    // ---- per-lane simulation (phase 1, parallel) ---------------------

    /** Earliest cycle >= ln.cycle at which the lane can progress. */
    uint64_t
    laneBound(const Lane &ln) const
    {
        const Sm &sm = ln.sm;
        if (!sm.ready.empty())
            return std::max(sm.freeCycle, ln.cycle);
        if (!sm.waiting.empty())
            return std::max(sm.waiting.top().wake, ln.cycle);
        return kIdle;
    }

    /** Advance one lane to epoch_end or to a CTA-completion pause. */
    void
    runLane(Lane &ln, uint64_t epoch_end)
    {
        Sm &sm = ln.sm;
        while (!ln.paused) {
            uint64_t cycle = ln.cycle;
            if (cycle >= epoch_end)
                return;
            if ((++ln.loops & 0xfff) == 0)
                support::checkpointCancellation();
            while (!sm.waiting.empty() &&
                   sm.waiting.top().wake <= cycle) {
                sm.ready.push_back(sm.waiting.top().warp);
                sm.waiting.pop();
            }
            if (cycle >= sm.freeCycle && !sm.ready.empty()) {
                Warp *w = sm.ready.front();
                sm.ready.pop_front();
                issue(ln, *w, cycle);
                ln.cycle = cycle + 1;
                continue;
            }
            // Nothing issuable: jump to the lane's next progress
            // bound, capped at the epoch boundary.
            uint64_t nb =
                !sm.ready.empty()
                    ? std::max(sm.freeCycle, cycle + 1)
                    : (!sm.waiting.empty()
                           ? std::max(sm.waiting.top().wake, cycle + 1)
                           : kIdle);
            if (nb >= epoch_end) {
                ln.cycle = epoch_end;
                return;
            }
            ln.cycle = nb;
        }
    }

    /**
     * SM-local part of a global-memory access: probe the per-SM L1
     * inline (its state and order are lane-private), defer the rest.
     * Returns the known completion cycle for an L1 hit, or 0 after
     * buffering the shared-path request into ln.defer.
     */
    uint64_t
    localAccess(Lane &ln, uint64_t cycle, uint64_t addr, bool is_write,
                bool use_l1)
    {
        if (cfg.l1Enabled && use_l1 && !is_write) {
            if (ln.sm.l1->access(addr)) {
                ++ln.stats.l1Hits;
                return cycle + uint64_t(cfg.l1HitLatency);
            }
            ++ln.stats.l1Misses;
        }
        ln.defer.push_back(addr);
        return 0;
    }

    /** Flush ln.defer as requests bound to pending slot @p slot. */
    void
    flushDeferred(Lane &ln, uint64_t cycle, int64_t slot)
    {
        for (uint64_t addr : ln.defer)
            ln.reqs.push_back({cycle, addr, slot});
        ln.defer.clear();
    }

    void
    finishWarp(Lane &ln, Warp &w, uint64_t cycle)
    {
        Cta *cta = w.cta;
        --cta->aliveWarps;
        if (cta->aliveWarps > 0) {
            if (cta->arrived == cta->aliveWarps && cta->arrived > 0)
                releaseBarrier(ln, *cta, cycle);
            return;
        }

        // CTA complete: free resources, then suspend. The global
        // block counter and placement consume shared state, so the
        // coordinator replays completions in canonical
        // (cycle, smIndex) order between epochs.
        Sm &sm = ln.sm;
        sm.usedCtas -= 1;
        sm.usedThreads -= cta->blockDim;
        sm.usedShared -= cta->sharedBytes;
        sm.usedRegs -= cta->blockDim * cfg.regsPerThread;
        ln.paused = true;
        ln.pauseCycle = cycle;
    }

    void
    releaseBarrier(Lane &ln, Cta &cta, uint64_t cycle)
    {
        for (Warp *waiter : cta.barrierWaiters)
            ln.sm.waiting.push({cycle + barrierLatency, ln.seq++,
                                waiter});
        cta.barrierWaiters.clear();
        cta.arrived = 0;
    }

    void
    issue(Lane &ln, Warp &w, uint64_t cycle)
    {
        Sm &sm = ln.sm;
        w.cur.next(ln.inst);
        const WarpInst &inst = ln.inst;
        const int active = inst.activeLanes();
        const int issueC = cfg.warpIssueCycles();

        KernelStats &ls = ln.stats;
        ls.warpInstructions += inst.count;
        ls.threadInstructions += uint64_t(active) * inst.count;
        size_t bucket = size_t(std::min((active - 1) / 8, 3));
        ls.occupancyBuckets[bucket] += inst.count;

        uint64_t issue_done = cycle + uint64_t(issueC);
        if (inst.op == GOp::Load || inst.op == GOp::Store) {
            ls.memOps[size_t(inst.space)] += uint64_t(active);
            uint64_t extra = uint64_t(cfg.addressAluPerMem);
            if (extra) {
                ls.warpInstructions += extra;
                ls.threadInstructions += extra * uint64_t(active);
                ls.occupancyBuckets[bucket] += extra;
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
            Cta *cta = w.cta;
            if (w.cur.done()) {
                finishWarp(ln, w, cycle);
            } else {
                cta->barrierWaiters.push_back(&w);
                ++cta->arrived;
                if (cta->arrived == cta->aliveWarps)
                    releaseBarrier(ln, *cta, cycle);
            }
            ln.simEnd = std::max(ln.simEnd, cycle + uint64_t(issueC));
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
                ls.bankConflictExtraCycles +=
                    uint64_t(issueC) * uint64_t(factor - 1);
                break;
              }
              case Space::Param:
                break; // register-speed, always hits
              case Space::Const: {
                constWords(inst, ln.scratch);
                uint64_t done =
                    issue_done + uint64_t(cfg.constHitLatency);
                for (uint64_t word : ln.scratch) {
                    if (sm.cst->access(word << 2)) {
                        ++ls.constHits;
                    } else {
                        ++ls.constMisses;
                        done = std::max(done,
                                        localAccess(ln, cycle, word << 2,
                                                    false, false));
                    }
                }
                sm.freeCycle =
                    issue_done +
                    uint64_t(issueC) *
                        (std::max<size_t>(ln.scratch.size(), 1) - 1);
                wake = std::max(done, sm.freeCycle);
                break;
              }
              case Space::Tex: {
                coalesceSegs(coalShift, inst, ln.scratch);
                uint64_t done =
                    issue_done + uint64_t(cfg.texHitLatency);
                for (uint64_t seg : ln.scratch) {
                    if (sm.tex->access(seg)) {
                        ++ls.texHits;
                    } else {
                        ++ls.texMisses;
                        done = std::max(done,
                                        localAccess(ln, cycle, seg,
                                                    false, false));
                    }
                }
                wake = done;
                break;
              }
              case Space::Global:
              case Space::Local:
              default: {
                coalesceSegs(coalShift, inst, ln.scratch);
                if (inst.op == GOp::Load) {
                    uint64_t done = issue_done;
                    for (uint64_t seg : ln.scratch)
                        done = std::max(done,
                                        localAccess(ln, cycle, seg,
                                                    false, true));
                    wake = done;
                } else {
                    // Buffered stores: shared-path bandwidth only;
                    // their completions fold into simEnd at replay.
                    for (uint64_t seg : ln.scratch)
                        localAccess(ln, cycle, seg, true, true);
                    flushDeferred(ln, cycle, -1);
                }
                break;
              }
            }
            break;
        }

        // `wake` so far holds only the SM-locally-known components
        // (issue slot, bank/const serialization, cache hits). If any
        // request went to the shared path, the warp parks as pending
        // and the coordinator folds the replayed completions in at
        // the barrier — they cannot land before the next epoch, so
        // nothing this lane simulates meanwhile can depend on them.
        if (w.cur.done()) {
            if (!ln.defer.empty())
                flushDeferred(ln, cycle, -1);
            ln.simEnd = std::max(ln.simEnd, wake);
            finishWarp(ln, w, cycle);
            return;
        }
        if (!ln.defer.empty()) {
            int64_t slot = int64_t(ln.pending.size());
            flushDeferred(ln, cycle, slot);
            ln.pending.push_back({&w, wake, cycle, ln.seq++});
            return;
        }
        ln.simEnd = std::max(ln.simEnd, wake);
        // No ready-queue bypass here (the reference scan has one): it
        // would peek at waiting.top(), which during an epoch is
        // missing the still-pending deferred warps. The bypass is
        // semantically neutral, so always taking the heap path
        // preserves bit-identity.
        sm.waiting.push({std::max(wake, cycle + 1), ln.seq++, &w});
    }

    // ---- coordinator phases (serial, between epochs) -----------------

    bool
    canFit(const Sm &sm, const WarpTrace::Block &block) const
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
    placeBlocks(Lane &ln, uint64_t cycle)
    {
        Sm &sm = ln.sm;
        while (nextBlock < trace.blocks.size() &&
               canFit(sm, trace.blocks[nextBlock])) {
            const WarpTrace::Block &block = trace.blocks[nextBlock];
            ++nextBlock;
            if (ctaOverloads(cfg, block))
                support::metrics::count("gpusim.oversubscribed_cta");

            auto cta = std::make_unique<Cta>();
            cta->blockDim = block.blockDim;
            cta->sharedBytes = block.sharedBytes;
            cta->smIndex = int(ln.smIndex);
            cta->warps.reserve(size_t(block.warps()));
            for (int wi = 0; wi < block.warps(); ++wi) {
                Warp &warp = cta->warps.emplace_back(
                    Warp{block.warp(wi), cta.get()});
                if (!warp.cur.done()) {
                    ++cta->aliveWarps;
                    sm.waiting.push({cycle + 1, ln.seq++, &warp});
                }
            }

            if (cta->aliveWarps == 0) {
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

    /**
     * Phase 2: replay CTA completions in canonical order. Each pause
     * decrements the block counter and hands out new blocks exactly
     * as the reference scan's in-order placement does; the resumed
     * lane then continues its epoch on the coordinator (a lane can
     * pause more than once per epoch, but the canonical order of its
     * later pauses is always after the one just handled, so a simple
     * rescan preserves order). Returns true when the last block
     * completed, with the simulation's final cycle in @p final_cycle.
     */
    bool
    resolvePauses(uint64_t epoch_end, uint64_t &final_cycle)
    {
        for (;;) {
            Lane *best = nullptr;
            for (Lane &ln : lanes) {
                if (!ln.paused)
                    continue;
                if (!best || ln.pauseCycle < best->pauseCycle)
                    best = &ln; // index order breaks cycle ties
            }
            if (!best)
                return false;
            best->paused = false;
            ++pauseCount;
            --blocksRemaining;
            if (blocksRemaining == 0) {
                final_cycle = best->pauseCycle;
                return true;
            }
            placeBlocks(*best, best->pauseCycle);
            if (blocksRemaining == 0) {
                // Placement drained the tail through empty blocks.
                final_cycle = best->pauseCycle;
                return true;
            }
            runLane(*best, epoch_end);
        }
    }

    /** The shared half of a global access (the lane-local L1 probe
     *  is localAccess); returns the completion cycle. */
    uint64_t
    sharedAccess(uint64_t cycle, uint64_t addr)
    {
        if (l2) {
            if (l2->access(addr)) {
                ++stats.l2Hits;
                return cycle + uint64_t(cfg.l2HitLatency);
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

    /**
     * Phase 3: replay every lane's buffered requests through the
     * shared L2/channel state in (cycle, smIndex) order — lane
     * buffers are cycle-monotone FIFOs, so a k-way merge reproduces
     * the reference scan's access order exactly — then wake the
     * pending warps with their reserved seq numbers.
     */
    void
    replayEpoch()
    {
        struct Head
        {
            uint64_t cycle;
            size_t lane;
            bool
            operator>(const Head &o) const
            {
                return cycle != o.cycle ? cycle > o.cycle
                                        : lane > o.lane;
            }
        };
        std::priority_queue<Head, std::vector<Head>,
                            std::greater<Head>>
            heads;
        for (size_t li = 0; li < lanes.size(); ++li) {
            lanes[li].replayPos = 0;
            if (!lanes[li].reqs.empty())
                heads.push({lanes[li].reqs[0].cycle, li});
        }
        while (!heads.empty()) {
            Head h = heads.top();
            heads.pop();
            Lane &ln = lanes[h.lane];
            const DeferredReq &rq = ln.reqs[ln.replayPos++];
            uint64_t done = sharedAccess(rq.cycle, rq.addr);
            if (rq.pendingSlot >= 0) {
                PendingWarp &p = ln.pending[size_t(rq.pendingSlot)];
                p.wake = std::max(p.wake, done);
            } else {
                simEnd = std::max(simEnd, done);
            }
            ++replayCount;
            if (ln.replayPos < ln.reqs.size())
                heads.push({ln.reqs[ln.replayPos].cycle, h.lane});
        }
        for (Lane &ln : lanes) {
            for (const PendingWarp &p : ln.pending) {
                ln.simEnd = std::max(ln.simEnd, p.wake);
                if (p.warp)
                    ln.sm.waiting.push({std::max(p.wake, p.cycle + 1),
                                        p.seqNo, p.warp});
            }
            ln.pending.clear();
            ln.reqs.clear();
            ln.replayPos = 0;
        }
    }

    static constexpr uint64_t barrierLatency = 8;

    const SimConfig &cfg;
    const WarpTrace &trace;
    int participants;
    const support::CancelToken *parentCancel;

    KernelStats stats; //!< shared-path counters + merged totals
    std::vector<Lane> lanes;
    std::unique_ptr<SimpleCache> l2;
    std::vector<uint64_t> chFree;
    uint64_t bankMask = 0;
    uint64_t chanMask = 0;
    int coalShift = 0;
    size_t nextBlock = 0;
    size_t blocksRemaining = 0;
    uint64_t simEnd = 0;

    uint64_t epochCount = 0;
    uint64_t replayCount = 0;
    uint64_t pauseCount = 0;

    // Pool state, all guarded by mu. A lane passes to its runner with
    // the nextLane claim and back to the coordinator with lanesDone.
    std::mutex mu;
    std::condition_variable cvStart, cvDone;
    uint64_t round = 0;
    uint64_t roundEnd = 0;
    size_t nextLane = 0;  //!< next lane of this round to claim
    size_t lanesDone = 0; //!< lanes of this round finished
    bool shutdown = false;
    std::vector<std::exception_ptr> errors;
    std::vector<std::thread> workers; //!< last: they use all of the above
};

} // namespace

KernelStats
TimingSim::simulate(const WarpTrace &trace) const
{
    if (trace.warpSize != cfg.warpSize)
        panic("gpusim: a warp-", trace.warpSize,
              " trace simulated under warpSize ", cfg.warpSize);
    EpochEngine engine(cfg, trace,
                       std::clamp(cfg.simThreads, 1, cfg.numSms));
    return engine.run();
}

KernelStats
TimingSim::simulate(const SequenceTrace &seq) const
{
    KernelStats total;
    for (const auto &trace : seq.launches) {
        support::checkpointCancellation();
        KernelStats s = simulate(trace);
        s.cycles += cfg.launchOverheadCycles;
        total.add(s);
    }
    return total;
}

KernelStats
TimingSim::simulate(const KernelRecording &rec) const
{
    return simulate(WarpTrace(rec, cfg.warpSize));
}

KernelStats
TimingSim::simulate(const LaunchSequence &seq) const
{
    return simulate(SequenceTrace(seq, cfg.warpSize));
}

} // namespace gpusim
} // namespace rodinia
