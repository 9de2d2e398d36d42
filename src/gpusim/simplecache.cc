#include "gpusim/simplecache.hh"

#include "support/logging.hh"

namespace rodinia {
namespace gpusim {

SimpleCache::SimpleCache(uint64_t size_bytes, int assoc, int line_bytes)
    : assoc(assoc), line(line_bytes)
{
    if (size_bytes == 0 || assoc <= 0 || line_bytes <= 0)
        fatal("SimpleCache: invalid geometry");
    numSets = size_bytes / (uint64_t(assoc) * line_bytes);
    if (numSets == 0)
        numSets = 1;
    // Round down to a power of two for cheap indexing.
    while (numSets & (numSets - 1))
        numSets &= numSets - 1;
    setShift = __builtin_ctzll(numSets);
    lineShift = (line & (line - 1)) == 0 ? __builtin_ctz(unsigned(line))
                                         : -1;
    entries.resize(numSets * assoc);
}

bool
SimpleCache::access(uint64_t addr)
{
    ++clock;
    uint64_t line_addr =
        lineShift >= 0 ? addr >> lineShift : addr / uint64_t(line);
    uint64_t set = line_addr & (numSets - 1);
    uint64_t tag = line_addr >> setShift;
    Entry *base = &entries[set * assoc];

    for (int w = 0; w < assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lastUse = clock;
            return true;
        }
    }

    Entry *victim = base;
    for (int w = 0; w < assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = clock;
    return false;
}

} // namespace gpusim
} // namespace rodinia
