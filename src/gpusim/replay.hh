/**
 * @file
 * SIMT warp replay: merges per-lane traces into warp instructions.
 *
 * The replayer walks the 32 lanes of a warp in lockstep: at each
 * step it finds the minimum execution-order key among the lanes'
 * next events and issues one warp instruction covering exactly the
 * lanes sitting at that key. Divergent branches therefore split the
 * warp into serialized groups (smaller active masks), and lanes
 * reconverge as soon as their keys match again — the behavior of a
 * reconvergence-stack SIMT pipeline, including loop-level divergence
 * thanks to LoopIter's per-iteration keys.
 */

#ifndef RODINIA_GPUSIM_REPLAY_HH
#define RODINIA_GPUSIM_REPLAY_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "gpusim/types.hh"

namespace rodinia {
namespace gpusim {

/** One warp-level instruction reconstructed from lane traces. */
struct WarpInst
{
    GOp op = GOp::IntAlu;
    Space space = Space::None;
    uint32_t activeMask = 0;
    uint32_t count = 1;  //!< serialized repeat count (batched ALU)
    uint32_t size = 0;   //!< per-lane access size for memory ops
    std::array<uint64_t, 32> addrs{}; //!< per-lane addresses (mem ops)

    int activeLanes() const { return __builtin_popcount(activeMask); }
};

/** Replays one warp of a recorded block as warp instructions. */
class WarpReplayer
{
  public:
    /**
     * @param block recorded block
     * @param warp_start first lane's thread index within the block
     * @param warp_size lanes per warp (threads beyond blockDim are
     *        simply absent)
     */
    WarpReplayer(const BlockRecord &block, int warp_start, int warp_size);

    /** Produce the next warp instruction; false when exhausted. */
    bool next(WarpInst &out);

    /** True once every lane's trace is exhausted. */
    bool done() const { return live == 0; }

  private:
    // Per-lane stream cursors plus a one-event decoded lookahead:
    // ev[l] always holds lane l's next undelivered event, decoded
    // once when the previous one was consumed. The min-key scan in
    // next() therefore reads plain structs exactly as the old
    // pointer-window formulation did — the delta decode happens once
    // per event, not once per scan — and walks only the set bits of
    // `live` (lanes with events left).
    std::array<LaneStream::Cursor, 32> cur{};
    std::array<GEvent, 32> ev{};
    uint32_t live = 0;
};

// Defined inline: this runs once per warp instruction of every
// warp-trace build (gpusim/warptrace.hh) and trace analysis, so
// its scan must inline into those loops.
inline bool
WarpReplayer::next(WarpInst &out)
{
    if (live == 0)
        return false;

    // Single fused scan: track the running-minimum key and gather the
    // matching lanes as we go; a lane with a strictly smaller key
    // restarts the gather (rare — warps mostly run in lockstep).
    // Lanes are scanned in ascending order, so the instruction's
    // op/space come from the lowest lane at the minimum key, exactly
    // as the two-pass find-then-gather formulation would produce.
    // Lanes whose key matches but whose op/space differ are neither
    // gathered nor advanced. A restart can leave stale addrs entries
    // for lanes outside the final activeMask; every consumer masks
    // addrs reads by activeMask, so those slots are dead.
    const GEvent *min_ev = nullptr;
    out.activeMask = 0;
    out.count = 1;
    for (uint32_t m = live; m; m &= m - 1) {
        int l = __builtin_ctz(m);
        const GEvent &e = ev[std::size_t(l)];
        if (!min_ev || e.key < min_ev->key) {
            min_ev = &e;
            out.op = e.op;
            out.space = e.space;
            out.size = e.size;
            out.activeMask = 0;
            out.count = 1;
        } else if (!(e.key == min_ev->key) || e.op != min_ev->op ||
                   e.space != min_ev->space) {
            continue;
        }
        out.activeMask |= 1u << l;
        out.addrs[std::size_t(l)] = e.addr;
        if (e.count > out.count)
            out.count = e.count;
    }

    // Consume the gathered lanes' events: decode each lane's next
    // event into its lookahead slot, dropping exhausted lanes.
    for (uint32_t m = out.activeMask; m; m &= m - 1) {
        int l = __builtin_ctz(m);
        if (!cur[std::size_t(l)].next(ev[std::size_t(l)]))
            live &= ~(1u << l);
    }
    return true;
}

/** Number of warps needed for a block of the given size. */
inline int
warpsPerBlock(int block_dim, int warp_size)
{
    return (block_dim + warp_size - 1) / warp_size;
}

/** Warp-level trace statistics, independent of any timing model. */
struct TraceStats
{
    uint64_t warpInstructions = 0;
    uint64_t threadInstructions = 0;
    /** Warp instructions by active-lane bucket: 1-8/9-16/17-24/25-32. */
    std::array<uint64_t, 4> occupancyBuckets{};
    /** Thread-level memory operations by Space. */
    std::array<uint64_t, 7> memOps{};

    /** Count one warp instruction. */
    void
    tally(const WarpInst &inst)
    {
        int active = inst.activeLanes();
        warpInstructions += inst.count;
        threadInstructions += uint64_t(active) * inst.count;
        occupancyBuckets[size_t(std::min((active - 1) / 8, 3))] +=
            inst.count;
        if (inst.op == GOp::Load || inst.op == GOp::Store)
            memOps[size_t(inst.space)] += uint64_t(active);
    }

    /** Add another analysis's counts (launches, or disjoint blocks). */
    void add(const TraceStats &o);

    bool operator==(const TraceStats &o) const = default;

    /** Average active threads over all issued warp instructions. */
    double avgWarpOccupancy() const;
    /** Fraction of warp instructions in each occupancy bucket. */
    std::array<double, 4> occupancyFractions() const;
    /** Fraction of memory ops in each space. */
    std::array<double, 7> memOpFractions() const;
};

/** Compute trace statistics for a whole recording. */
TraceStats analyzeTrace(const KernelRecording &rec, int warp_size = 32);

/** Aggregate trace statistics over a launch sequence. */
TraceStats analyzeTrace(const struct LaunchSequence &seq,
                        int warp_size = 32);

} // namespace gpusim
} // namespace rodinia

#endif // RODINIA_GPUSIM_REPLAY_HH
