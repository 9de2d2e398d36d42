/**
 * @file
 * Warp traces: a recorded launch replayed once at one warp size.
 *
 * The SIMT merge (WarpReplayer) depends only on the recording and the
 * warp size, never on the timing configuration, so every simulation
 * of a kernel would otherwise redo the same min-key scan over each
 * warp's lanes. A WarpTrace runs that merge once and keeps what the
 * timing engine reads: per block the geometry and one exactly sized
 * buffer of per-warp instruction streams, each a byte stream of
 *
 *   tag     op (bits 0-2) | space (bits 3-5) | kNewMask | kCount
 *   mask    varint, only with kNewMask (the active mask changed)
 *   count   varint, only with kCount (repeat count != 1)
 *   size    varint, Load and Store only
 *   addrs   Load and Store only: one zigzag-varint delta per active
 *           lane, in lane order, against the previous active lane;
 *           the first against the first active lane of the warp's
 *           previous memory instruction (0 at the stream start)
 *
 * A warp's first instruction always carries its mask (the stream
 * starts from mask 0). Non-memory instructions decode with size 0
 * and no addresses, which is what the recorder gives them. Decoding
 * is sequential through Cursor, one instruction at a time, exactly
 * as a resident warp issues them. The build tallies TraceStats in
 * the same walk, so a trace carries its own analysis.
 */

#ifndef RODINIA_GPUSIM_WARPTRACE_HH
#define RODINIA_GPUSIM_WARPTRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/replay.hh"
#include "gpusim/types.hh"

namespace rodinia {
namespace gpusim {

struct LaunchSequence;

/** One kernel launch replayed once at one warp size. */
struct WarpTrace
{
    /** Tag bits above the op (bits 0-2) and space (bits 3-5). */
    static constexpr uint8_t kNewMask = 0x40;
    static constexpr uint8_t kCount = 0x80;

    /** Sequential decoder over one warp's instruction stream. */
    class Cursor
    {
      public:
        Cursor() = default;
        Cursor(const uint8_t *begin, const uint8_t *end)
            : p(begin), end(end)
        {
        }

        /** True once every instruction has been decoded. */
        bool done() const { return p == end; }

        /**
         * Decode the next instruction into @p out; false at the end
         * of the stream. Only the active lanes' addrs entries are
         * written.
         */
        bool
        next(WarpInst &out)
        {
            if (p == end)
                return false;
            uint8_t tag = *p++;
            out.op = GOp(tag & 7);
            out.space = Space((tag >> 3) & 7);
            if (tag & kNewMask)
                mask = uint32_t(support::getVarint(p));
            out.activeMask = mask;
            out.count = (tag & kCount) ? uint32_t(support::getVarint(p)) : 1;
            if (out.op != GOp::Load && out.op != GOp::Store) {
                out.size = 0;
                return true;
            }
            out.size = uint32_t(support::getVarint(p));
            uint64_t a = base;
            for (uint32_t m = mask; m; m &= m - 1) {
                a += uint64_t(support::unzigzag(support::getVarint(p)));
                out.addrs[size_t(__builtin_ctz(m))] = a;
                if (m == mask)
                    base = a;
            }
            return true;
        }

      private:
        const uint8_t *p = nullptr;   //!< the next instruction's tag
        const uint8_t *end = nullptr; //!< one past the warp's last byte
        uint32_t mask = 0;            //!< the current active mask
        uint64_t base = 0; //!< first active address, last memory inst
    };

    /**
     * One thread block: its geometry and, in one heap allocation of
     * 32-bit words, each warp's end offset (words [0, warps)) and the
     * payload, every warp's stream back to back, padded to a whole
     * word. The buffer is sized exactly, so allocatedBytes() is a pure
     * function of the recording and the warp size.
     */
    class Block
    {
      public:
        Block() = default;

        /**
         * Replay every warp of @p rec, encoding through @p scratch and
         * tallying into @p stats. A block's payload must stay under
         * 4 GiB (fatal otherwise).
         */
        Block(const BlockRecord &rec, int warp_size,
              std::vector<uint8_t> &scratch, TraceStats &stats);

        int blockDim = 0;         //!< threads in the block
        uint64_t sharedBytes = 0; //!< its shared-memory allocation

        /** Warps in the block. */
        int warps() const { return nWarps; }

        /** A decoder over warp @p w; valid while this block lives. */
        Cursor
        warp(int w) const
        {
            const uint8_t *base = payload();
            uint32_t begin = w ? words[size_t(w - 1)] : 0;
            return {base + begin, base + words[size_t(w)]};
        }

        /** Encoded instruction bytes, over all warps. */
        uint64_t
        encodedBytes() const
        {
            return nWarps ? words[size_t(nWarps - 1)] : 0;
        }

        /** Heap bytes this block holds. */
        uint64_t
        allocatedBytes() const
        {
            return 4 * (uint64_t(nWarps) + (encodedBytes() + 3) / 4);
        }

      private:
        const uint8_t *
        payload() const
        {
            return reinterpret_cast<const uint8_t *>(words.get() +
                                                     size_t(nWarps));
        }

        int nWarps = 0;
        std::unique_ptr<uint32_t[]> words;
    };

    WarpTrace() = default;

    /**
     * Replay every warp of @p rec at @p warp_size, polling the
     * thread's cancel token between blocks.
     */
    WarpTrace(const KernelRecording &rec, int warp_size);

    int warpSize = 32;
    std::vector<Block> blocks;
    /** The launch's analysis, equal to analyzeTrace(rec, warpSize). */
    TraceStats stats;

    uint64_t encodedBytes() const;
    /** Heap bytes the blocks and the block array hold. */
    uint64_t allocatedBytes() const;
};

/** A launch sequence's warp traces, in launch order. */
struct SequenceTrace
{
    SequenceTrace() = default;

    /** Replay every launch of @p seq at @p warp_size (WarpTrace). */
    SequenceTrace(const LaunchSequence &seq, int warp_size);

    int warpSize = 32;
    std::vector<WarpTrace> launches;
    /** Over every launch: equal to analyzeTrace(seq, warpSize). */
    TraceStats stats;

    uint64_t encodedBytes() const;
    uint64_t allocatedBytes() const;
};

} // namespace gpusim
} // namespace rodinia

#endif // RODINIA_GPUSIM_WARPTRACE_HH
