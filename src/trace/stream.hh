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
 * Chunks are self-contained (each carries the absolute base address
 * its first delta is taken against), which enables the spill path: a
 * process-wide ChunkSink — in production an adapter over
 * driver::ResultStore, keyed by the chunk's content hash so the store
 * doubles as a trace cache — absorbs sealed chunks beyond a bounded
 * resident ring, and cursors fetch them back transparently during
 * replay.
 *
 * Concurrency contract: one EventStream belongs to one recording
 * thread. Cursors may read concurrently with each other but not with
 * append()/transform(). The ChunkSink must be thread-safe (streams on
 * different threads seal concurrently) and must be installed before
 * recording starts.
 */

#ifndef RODINIA_TRACE_STREAM_HH
#define RODINIA_TRACE_STREAM_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
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
 * Destination for spilled trace chunks. Implementations must be
 * thread-safe; blobs are opaque and content-addressed, so put() for
 * an existing key may no-op (identical chunks dedupe).
 */
class ChunkSink
{
  public:
    virtual ~ChunkSink() = default;
    /** Persist blob under key (key = chunkContentHash(blob)). */
    virtual void put(uint64_t key, const std::string &blob) = 0;
    /** Fetch a blob; false if the sink lost it (fatal for replay). */
    virtual bool get(uint64_t key, std::string &blob) = 0;
};

/**
 * Install the process-wide spill sink. residentChunks bounds the
 * per-stream in-memory ring of sealed chunks: sealing past the bound
 * pushes the oldest resident chunk to the sink. nullptr disables
 * spilling (all chunks stay resident). Install before recording;
 * returns the previous sink so scopes can restore it.
 */
ChunkSink *setTraceSpill(ChunkSink *sink, uint32_t residentChunks);

/** Currently installed sink (nullptr when spilling is disabled). */
ChunkSink *traceSpillSink();

/** Resident-ring bound active for the installed sink. */
uint32_t traceSpillResidentChunks();

/** Content hash (FNV-1a 64) used as a spilled chunk's store key. */
uint64_t chunkContentHash(const std::string &blob);

/** Total chunks spilled process-wide (telemetry for tests/stats). */
uint64_t traceChunksSpilled();

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

    /** Encoded bytes across all chunks (spilled ones included). */
    uint64_t encodedBytes() const;

    /** Chunks pushed to the spill sink by this stream. */
    uint64_t spilledChunks() const { return nSpilled; }

    /**
     * Sequential reader. Holds pointers into the stream (or into a
     * private buffer for fetched spilled chunks); movable so live
     * cursor sets can be compacted. Do not append to the stream
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
        /** Blob backing a spilled chunk's read heads. Heap-allocated
         *  so moving the cursor (live-set compaction) cannot
         *  relocate the bytes pa/ps/pf point into (std::string SSO
         *  would). */
        std::unique_ptr<std::string> fetched;
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
        out.nSpilled += nSpilled; // keep telemetry cumulative
        *this = std::move(out);
    }

  private:
    friend class Cursor;

    /**
     * One sealed or open chunk. Sealed chunks may be spilled: the
     * columns are released and only (spillKey, n, sizes) remain so a
     * cursor can fetch the blob back from the sink.
     */
    struct Chunk
    {
        uint32_t n = 0;          //!< events (set on seal)
        uint64_t baseAddr = 0;   //!< first delta is vs this address
        std::vector<uint8_t> addrs; //!< zigzag varint address deltas
        std::vector<uint8_t> sizes; //!< varint access sizes
        std::vector<uint8_t> flags; //!< isWrite bits, LSB-first
        uint64_t spillKey = 0;   //!< chunkContentHash of the blob
        uint32_t encodedSize = 0; //!< blob bytes (valid when spilled)
        bool spilled = false;
    };

    void startChunk(uint64_t addr);
    void seal();
    void spillOldest();

    uint64_t count = 0;
    std::vector<Chunk> chunks; //!< back() may be the open chunk
    uint32_t openN = 0;        //!< events in the open chunk (0 = none)
    uint64_t prevAddr = 0;     //!< delta-encode accumulator
    uint8_t flagAccum = 0;     //!< pending flag bits
    uint32_t flagBits = 0;     //!< total flag bits in the open chunk
    size_t firstResident = 0;  //!< chunks[0..firstResident) spilled
    uint64_t nSpilled = 0;
};

} // namespace trace
} // namespace rodinia

#endif // RODINIA_TRACE_STREAM_HH
