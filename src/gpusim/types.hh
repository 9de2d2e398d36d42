/**
 * @file
 * Core types for the trace-driven SIMT GPU simulator (the GPGPU-Sim
 * analog used for Figures 1-5, Table III, and the Plackett-Burman
 * study).
 *
 * Kernels execute their real computation per thread while recording a
 * trace of dynamic instructions. Each event carries a 128-bit order
 * key encoding the loop-iteration path plus the source-location PC;
 * comparing keys lexicographically reproduces program execution
 * order, which lets the warp replayer model SIMT reconvergence by
 * always executing the minimum-key lanes together.
 *
 * Lane traces are delta-encoded byte streams (order-key deltas,
 * address deltas, op/space tag bytes, optional repeat counts) decoded
 * sequentially during replay. A 40-byte GEvent compresses to a few
 * bytes because consecutive events share key prefixes and access
 * strides, and a finished block seals all its lanes into one buffer —
 * that is what makes paper-scale recordings fit in memory.
 */

#ifndef RODINIA_GPUSIM_TYPES_HH
#define RODINIA_GPUSIM_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <source_location>
#include <vector>

#include "support/varint.hh"

namespace rodinia {
namespace gpusim {

/** Dynamic instruction categories recorded by kernels. */
enum class GOp : uint8_t {
    IntAlu,
    FpAlu,
    Branch,
    Load,
    Store,
    Sync,
};

/** GPU memory spaces (Figure 2's breakdown). */
enum class Space : uint8_t {
    None,
    Global,
    Shared,
    Const,
    Tex,
    Param,
    Local,
};

/** Printable name for a memory space. */
const char *spaceName(Space s);

/**
 * 128-bit execution-order key: up to three (pc, iteration) loop
 * levels followed by the event PC, packed most-significant-first so
 * integer comparison equals lexicographic program-order comparison.
 */
struct OrderKey
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool
    operator==(const OrderKey &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
    bool
    operator<(const OrderKey &o) const
    {
        return hi != o.hi ? hi < o.hi : lo < o.lo;
    }
};

/**
 * Compress a source location into a 16-bit PC.
 *
 * Lines above 1023 fold their overflow bits back into the 10-bit
 * field (XOR of the 10-bit groups) instead of clamping: clamping
 * mapped every line past 1023 to the same PC, so distinct
 * instrumentation sites deep in a large file collided into one key
 * slot, merging distinct loop levels and distorting SIMT
 * reconvergence. For lines <= 1023 the folds are no-ops, so existing
 * PCs (and every recorded content hash) are unchanged.
 */
inline uint16_t
packPc(const std::source_location &loc)
{
    uint32_t line = loc.line();
    line = (line ^ (line >> 10) ^ (line >> 20)) & 1023;
    uint32_t col = loc.column() > 63 ? 63 : loc.column();
    uint16_t pc = uint16_t((line << 6) | col);
    return pc ? pc : 1;
}

/** One recorded dynamic instruction of one GPU thread. */
struct GEvent
{
    OrderKey key;
    uint64_t addr = 0;
    uint32_t size = 0;
    uint32_t count = 1; //!< repeat count for batched ALU work
    GOp op = GOp::IntAlu;
    Space space = Space::None;
};

/**
 * Append-only builder for one lane's event trace.
 *
 * Events are delta-encoded into a single byte buffer: a tag byte
 * (op, space, presence bits), zigzag-varint deltas of the two order-
 * key words against the previous event, a zigzag-varint address
 * delta against the previous memory access plus a varint size (only
 * for events that carry an address), and a varint repeat count (only
 * when != 1). Each kernel thread appends to its own builder while its
 * block records; when the block finishes, BlockRecord copies every
 * lane's bytes into one sealed buffer, so a recording holds no
 * per-lane objects at all. The CPU-side trace::EventStream, with few
 * long streams, keeps true columns instead.
 *
 * Decoding is sequential via Cursor, which is exactly how the warp
 * replayer, the content hash, and the aggregate counters consume
 * lanes.
 */
class LaneStream
{
  public:
    /** Append one event at the tail of the lane. */
    void
    append(const GEvent &e)
    {
        ++count;
        bool hasAddr = e.addr != 0 || e.size != 0;
        bool hasCount = e.count != 1;
        uint8_t tag = uint8_t(uint8_t(e.op) | (uint8_t(e.space) << 3) |
                              (hasAddr ? 0x40 : 0) |
                              (hasCount ? 0x80 : 0));
        buf.push_back(tag);
        // Order keys are packed most-significant-first (the event PC
        // occupies bits 48-63 of an empty stack), so consecutive
        // events differ in the HIGH bits — the worst case for a
        // little-endian varint of an arithmetic delta. Byte-swapping
        // before an XOR delta moves the changing bytes to the low
        // end: a PC change costs 1-3 varint bytes instead of 8-10.
        uint64_t swHi = __builtin_bswap64(e.key.hi);
        uint64_t swLo = __builtin_bswap64(e.key.lo);
        support::putVarint(buf, swHi ^ prevKeyHi);
        support::putVarint(buf, swLo ^ prevKeyLo);
        prevKeyHi = swHi;
        prevKeyLo = swLo;
        if (hasAddr) {
            support::putVarint(
                buf, support::zigzag(int64_t(e.addr - prevAddr)));
            support::putVarint(buf, e.size);
            prevAddr = e.addr;
        }
        if (hasCount)
            support::putVarint(buf, e.count);
    }

    /** Empty the lane, keeping its buffer's capacity for reuse. */
    void
    clear()
    {
        count = 0;
        buf.clear();
        prevKeyHi = prevKeyLo = prevAddr = 0;
    }

    uint64_t size() const { return count; }
    bool empty() const { return count == 0; }
    /** Encoded payload bytes. */
    uint64_t encodedBytes() const { return buf.size(); }
    /** The encoded payload (encodedBytes() bytes). */
    const uint8_t *data() const { return buf.data(); }

    /**
     * Sequential decoder over one lane's encoded bytes, wherever
     * they live: a builder or a sealed block. The bytes must outlive
     * the cursor and must not change while it reads them.
     */
    class Cursor
    {
      public:
        Cursor() = default;
        Cursor(const uint8_t *begin, const uint8_t *end)
            : p(begin), end(end)
        {
        }
        explicit Cursor(const LaneStream &stream)
            : Cursor(stream.data(), stream.data() + stream.encodedBytes())
        {
        }

        /** Decode the next event into out; false at end of lane. */
        bool
        next(GEvent &out)
        {
            if (p == end)
                return false;
            uint8_t tag = *p++;
            out.op = GOp(tag & 7);
            out.space = Space((tag >> 3) & 7);
            prevKeyHi ^= support::getVarint(p);
            prevKeyLo ^= support::getVarint(p);
            out.key.hi = __builtin_bswap64(prevKeyHi);
            out.key.lo = __builtin_bswap64(prevKeyLo);
            if (tag & 0x40) {
                prevAddr +=
                    uint64_t(support::unzigzag(support::getVarint(p)));
                out.addr = prevAddr;
                out.size = uint32_t(support::getVarint(p));
            } else {
                out.addr = 0;
                out.size = 0;
            }
            out.count = (tag & 0x80) ? uint32_t(support::getVarint(p)) : 1;
            return true;
        }

      private:
        const uint8_t *p = nullptr;   //!< the next event's first byte
        const uint8_t *end = nullptr; //!< one past the lane's last byte
        uint64_t prevKeyHi = 0;
        uint64_t prevKeyLo = 0;
        uint64_t prevAddr = 0;
    };

    /** Materialize the lane (tests / small traces only). */
    std::vector<GEvent>
    decodeAll() const
    {
        std::vector<GEvent> out;
        out.reserve(std::size_t(count));
        Cursor c(*this);
        GEvent e;
        while (c.next(e))
            out.push_back(e);
        return out;
    }

  private:
    uint64_t count = 0;
    std::vector<uint8_t> buf; //!< delta-encoded events
    uint64_t prevKeyHi = 0;   //!< encoder state: byte-swapped key words
    uint64_t prevKeyLo = 0;
    uint64_t prevAddr = 0;    //!< encoder state: previous mem address
};

/** Kernel launch geometry (1-D grid and block, as Rodinia uses). */
struct LaunchConfig
{
    int gridDim = 1;
    int blockDim = 32;

    int totalThreads() const { return gridDim * blockDim; }
};

/**
 * Recording of one thread block, sealed: one event trace per thread,
 * all in one heap allocation of 32-bit words. Words [0, n) hold each
 * lane's end offset into the payload, words [n, 2n) each lane's event
 * count, and the payload — every lane's encoded bytes, back to back in
 * thread order — follows, padded to a whole word. A lane therefore
 * costs 8 bytes plus its encoded events, and a block one heap block.
 * The buffer is sized exactly, so allocatedBytes() is a pure function
 * of the recording. Sealed blocks are immutable: DeviceSpace::rewrite
 * re-encodes into a fresh one.
 */
class BlockRecord
{
  public:
    BlockRecord() = default;

    /**
     * Seal one builder per thread, in thread order. A block's payload
     * must stay under 4 GiB (fatal otherwise).
     */
    BlockRecord(const std::vector<LaneStream> &lanes,
                uint64_t shared_bytes);

    uint64_t sharedBytes = 0;
    int blockDim = 0; //!< threads, and so lanes, in the block

    /** Events lane @p l recorded. */
    uint64_t
    laneEvents(int l) const
    {
        return words[std::size_t(blockDim + l)];
    }

    /** A decoder over lane @p l; valid while this block lives. */
    LaneStream::Cursor
    lane(int l) const
    {
        const uint8_t *base = payload();
        uint32_t begin = l ? words[std::size_t(l - 1)] : 0;
        return {base + begin, base + words[std::size_t(l)]};
    }

    /** Encoded payload bytes, over all lanes. */
    uint64_t
    encodedBytes() const
    {
        return blockDim ? words[std::size_t(blockDim - 1)] : 0;
    }

    /** Heap bytes this block holds: the index plus the padded
     *  payload. */
    uint64_t
    allocatedBytes() const
    {
        return blockDim ? 4 * wordCount(uint64_t(blockDim), encodedBytes())
                        : 0;
    }

  private:
    static uint64_t
    wordCount(uint64_t lanes, uint64_t payload_bytes)
    {
        return 2 * lanes + (payload_bytes + 3) / 4;
    }

    const uint8_t *
    payload() const
    {
        return reinterpret_cast<const uint8_t *>(
            words.get() + 2 * std::size_t(blockDim));
    }

    std::unique_ptr<uint32_t[]> words;
};

/** Full recording of one kernel launch. */
struct KernelRecording
{
    LaunchConfig launch;
    std::vector<BlockRecord> blocks;

    /** Total dynamic thread instructions across all blocks. */
    uint64_t threadInstructions() const;

    /** Total dynamic memory instructions by space. */
    std::vector<uint64_t> memOpsBySpace() const;

    /** Encoded event bytes over all blocks. */
    uint64_t encodedBytes() const;

    /** Heap bytes the sealed blocks and the block array hold. */
    uint64_t allocatedBytes() const;
};

} // namespace gpusim
} // namespace rodinia

#endif // RODINIA_GPUSIM_TYPES_HH
