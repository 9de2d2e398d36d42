#include "trace/stream.hh"

namespace rodinia {
namespace trace {

void
EventStream::startChunk(uint64_t addr)
{
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
        prevAddr = c.baseAddr;
        pa = c.addrs.data();
        ps = c.sizes.data();
        pf = c.flags.data();
        flagBytes = uint32_t(c.flags.size());
        tailFlags = open ? s->flagAccum : 0;
        chunkN = n;
        inChunk = 0;
        return true;
    }
}

uint64_t
EventStream::encodedBytes() const
{
    uint64_t bytes = 0;
    for (const auto &c : chunks)
        bytes += c.addrs.size() + c.sizes.size() + c.flags.size();
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
