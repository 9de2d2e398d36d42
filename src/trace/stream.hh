/**
 * @file
 * Compact streaming storage for CPU memory traces.
 *
 * The paper-scale inputs (Table I: BFS on 1 M nodes, NW 2048², ...)
 * produce traces that do not fit in memory as materialized 24-byte
 * MemEvent structs. EventStream stores the same sequence as
 * delta-encoded columnar chunks — separate byte streams per chunk for
 * zigzag-varint address deltas, varint sizes, and bit-packed
 * read/write flags — cut every kChunkEvents events. Real traces have
 * strong spatial locality, so address deltas are small and the
 * encoding lands around 2-4 bytes/event instead of 24.
 *
 * Each chunk carries the absolute base address its first delta is
 * taken against, and every chunk stays resident until the stream is
 * destroyed.
 *
 * Concurrency contract: one EventStream belongs to one recording
 * thread. Cursors may read concurrently with each other but not with
 * append()/transform().
 */

#ifndef RODINIA_TRACE_STREAM_HH
#define RODINIA_TRACE_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/varint.hh"

namespace rodinia {
namespace trace {

/** One recorded memory access. */
struct MemEvent
{
    uint64_t addr;
    uint16_t size;
    uint8_t isWrite;
};

/**
 * Append-only store for one thread's memory-access sequence, with
 * sequential decode via Cursor.
 */
class EventStream
{
  public:
    /** Events per sealed chunk (the columnar framing granularity). */
    static constexpr uint32_t kChunkEvents = 4096;

    /** Record one access at the tail of the sequence. */
    void
    append(uint64_t addr, uint16_t size, uint8_t isWrite)
    {
        ++count;
        if (openN == 0)
            startChunk(addr);
        Chunk &c = chunks.back();
        support::putVarint(c.addrs,
                           support::zigzag(int64_t(addr - prevAddr)));
        prevAddr = addr;
        support::putVarint(c.sizes, size);
        flagAccum |= uint8_t(isWrite ? 1u : 0u) << (flagBits & 7);
        if ((++flagBits & 7) == 0) {
            c.flags.push_back(flagAccum);
            flagAccum = 0;
        }
        if (++openN == kChunkEvents)
            seal();
    }

    uint64_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Encoded bytes across all chunks. */
    uint64_t encodedBytes() const;

    /**
     * Sequential reader. Holds pointers into the stream; movable so
     * live cursor sets can be compacted. Do not append to the stream
     * while cursors exist.
     */
    class Cursor
    {
      public:
        Cursor() = default;
        explicit Cursor(const EventStream &stream) : s(&stream) {}

        /** Decode the next event into out; false at end of stream. */
        bool
        next(MemEvent &out)
        {
            if (s == nullptr)
                return false;
            if (inChunk == chunkN) {
                if (!openNextChunk())
                    return false;
            }
            int64_t d = support::unzigzag(support::getVarint(pa));
            prevAddr = uint64_t(int64_t(prevAddr) + d);
            out.addr = prevAddr;
            out.size = uint16_t(support::getVarint(ps));
            uint32_t bit = inChunk;
            uint8_t byte = (bit >> 3) < flagBytes ? pf[bit >> 3]
                                                  : tailFlags;
            out.isWrite = uint8_t((byte >> (bit & 7)) & 1u);
            ++inChunk;
            return true;
        }

      private:
        bool openNextChunk();

        const EventStream *s = nullptr;
        size_t nextChunk = 0;    //!< next chunk index to open
        uint32_t inChunk = 0;    //!< events consumed in open chunk
        uint32_t chunkN = 0;     //!< events in open chunk
        const uint8_t *pa = nullptr; //!< address-delta read head
        const uint8_t *ps = nullptr; //!< size read head
        const uint8_t *pf = nullptr; //!< flag-byte column
        uint32_t flagBytes = 0;  //!< complete flag bytes available
        uint8_t tailFlags = 0;   //!< partial flag byte (open chunk)
        uint64_t prevAddr = 0;   //!< delta-decode accumulator
    };

    /** Visit every event in order (inlined per-event dispatch). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        Cursor c(*this);
        MemEvent e;
        while (c.next(e))
            fn(e);
    }

    /** Materialize the whole sequence (tests / small traces only). */
    std::vector<MemEvent> decodeAll() const;

    /**
     * Rewrite every event in place: decode, apply fn(MemEvent&),
     * re-encode. Used by normalizeAddresses to remap addresses onto
     * the canonical layout. Invalidates cursors.
     */
    template <typename Fn>
    void
    transform(Fn &&fn)
    {
        EventStream out;
        forEach([&](const MemEvent &ev) {
            MemEvent m = ev;
            fn(m);
            out.append(m.addr, m.size, m.isWrite);
        });
        *this = std::move(out);
    }

  private:
    friend class Cursor;

    /** One sealed or open chunk. */
    struct Chunk
    {
        uint32_t n = 0;          //!< events (set on seal)
        uint64_t baseAddr = 0;   //!< first delta is vs this address
        std::vector<uint8_t> addrs; //!< zigzag varint address deltas
        std::vector<uint8_t> sizes; //!< varint access sizes
        std::vector<uint8_t> flags; //!< isWrite bits, LSB-first
    };

    void startChunk(uint64_t addr);
    void seal();

    uint64_t count = 0;
    std::vector<Chunk> chunks; //!< back() may be the open chunk
    uint32_t openN = 0;        //!< events in the open chunk (0 = none)
    uint64_t prevAddr = 0;     //!< delta-encode accumulator
    uint8_t flagAccum = 0;     //!< pending flag bits
    uint32_t flagBits = 0;     //!< total flag bits in the open chunk
};

} // namespace trace
} // namespace rodinia

#endif // RODINIA_TRACE_STREAM_HH
