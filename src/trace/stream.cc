#include "trace/stream.hh"

#include <atomic>

#include "support/logging.hh"

namespace rodinia {
namespace trace {

namespace {

/** Process-wide spill configuration (install-before-record). */
ChunkSink *g_sink = nullptr;
uint32_t g_residentChunks = 0;
std::atomic<uint64_t> g_chunksSpilled{0};

/** Append a length-prefixed byte column to blob. */
void
putColumn(std::string &blob, const std::vector<uint8_t> &col)
{
    std::vector<uint8_t> len;
    support::putVarint(len, col.size());
    blob.append(reinterpret_cast<const char *>(len.data()), len.size());
    blob.append(reinterpret_cast<const char *>(col.data()), col.size());
}

} // namespace

ChunkSink *
setTraceSpill(ChunkSink *sink, uint32_t residentChunks)
{
    ChunkSink *prev = g_sink;
    g_sink = sink;
    g_residentChunks = sink ? residentChunks : 0;
    return prev;
}

ChunkSink *
traceSpillSink()
{
    return g_sink;
}

uint32_t
traceSpillResidentChunks()
{
    return g_residentChunks;
}

uint64_t
traceChunksSpilled()
{
    return g_chunksSpilled.load(std::memory_order_relaxed);
}

uint64_t
chunkContentHash(const std::string &blob)
{
    uint64_t h = 0xcbf29ce484222325ull; // FNV-1a 64
    for (unsigned char c : blob)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

void
EventStream::startChunk(uint64_t addr)
{
    // Enforce the resident ring before growing: sealed chunks beyond
    // the bound go to the sink oldest-first, so memory holds only the
    // open chunk plus the configured window of recent ones.
    if (g_sink != nullptr) {
        size_t sealed = chunks.size();
        while (sealed - firstResident > g_residentChunks) {
            spillOldest();
        }
    }
    chunks.emplace_back();
    chunks.back().baseAddr = addr;
    prevAddr = addr;
    flagAccum = 0;
    flagBits = 0;
}

void
EventStream::seal()
{
    Chunk &c = chunks.back();
    if (flagBits & 7) {
        c.flags.push_back(flagAccum);
        flagAccum = 0;
    }
    c.n = openN;
    openN = 0;
}

void
EventStream::spillOldest()
{
    Chunk &c = chunks[firstResident];
    std::string blob;
    std::vector<uint8_t> hdr;
    support::putVarint(hdr, c.n);
    support::putVarint(hdr, c.baseAddr);
    blob.append(reinterpret_cast<const char *>(hdr.data()), hdr.size());
    putColumn(blob, c.addrs);
    putColumn(blob, c.sizes);
    putColumn(blob, c.flags);
    c.spillKey = chunkContentHash(blob);
    c.encodedSize = uint32_t(blob.size());
    g_sink->put(c.spillKey, blob);
    c.addrs = {};
    c.sizes = {};
    c.flags = {};
    c.spilled = true;
    ++firstResident;
    ++nSpilled;
    g_chunksSpilled.fetch_add(1, std::memory_order_relaxed);
}

bool
EventStream::Cursor::openNextChunk()
{
    while (true) {
        if (nextChunk >= s->chunks.size())
            return false;
        const Chunk &c = s->chunks[nextChunk++];
        bool open = nextChunk == s->chunks.size() && s->openN > 0;
        uint32_t n = open ? s->openN : c.n;
        if (n == 0)
            continue; // sealed-empty should not happen; be safe
        if (c.spilled) {
            ChunkSink *sink = traceSpillSink();
            if (!fetched)
                fetched = std::make_unique<std::string>();
            if (sink == nullptr || !sink->get(c.spillKey, *fetched))
                panic("EventStream: spilled trace chunk ",
                      c.spillKey, " unavailable");
            const uint8_t *p =
                reinterpret_cast<const uint8_t *>(fetched->data());
            uint32_t bn = uint32_t(support::getVarint(p));
            if (bn != n)
                panic("EventStream: spilled chunk ", c.spillKey,
                      " event count mismatch");
            prevAddr = support::getVarint(p);
            uint64_t aLen = support::getVarint(p);
            pa = p;
            p += aLen;
            uint64_t sLen = support::getVarint(p);
            ps = p;
            p += sLen;
            uint64_t fLen = support::getVarint(p);
            pf = p;
            flagBytes = uint32_t(fLen);
            tailFlags = 0;
        } else {
            prevAddr = c.baseAddr;
            pa = c.addrs.data();
            ps = c.sizes.data();
            pf = c.flags.data();
            flagBytes = uint32_t(c.flags.size());
            tailFlags = open ? s->flagAccum : 0;
        }
        chunkN = n;
        inChunk = 0;
        return true;
    }
}

uint64_t
EventStream::encodedBytes() const
{
    uint64_t bytes = 0;
    for (const auto &c : chunks) {
        if (c.spilled)
            bytes += c.encodedSize;
        else
            bytes += c.addrs.size() + c.sizes.size() + c.flags.size();
    }
    return bytes;
}

std::vector<MemEvent>
EventStream::decodeAll() const
{
    std::vector<MemEvent> out;
    out.reserve(size_t(count));
    forEach([&](const MemEvent &e) { out.push_back(e); });
    return out;
}

} // namespace trace
} // namespace rodinia
