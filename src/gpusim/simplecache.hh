/**
 * @file
 * Small set-associative LRU cache used for the GPU's texture,
 * constant, L1 and L2 caches. Reports hit or miss per access only —
 * the timing model counts them and turns misses into memory-channel
 * transactions.
 */

#ifndef RODINIA_GPUSIM_SIMPLECACHE_HH
#define RODINIA_GPUSIM_SIMPLECACHE_HH

#include <cstdint>
#include <vector>

namespace rodinia {
namespace gpusim {

/** Set-associative LRU lookup cache (no data, no coherence). */
class SimpleCache
{
  public:
    SimpleCache(uint64_t size_bytes, int assoc, int line_bytes);

    /** Look up `addr`; allocate on miss. Returns true on hit. */
    bool access(uint64_t addr);

  private:
    struct Entry
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    int assoc;
    int line;
    int lineShift = -1; //!< log2(line) when a power of two, else -1
    int setShift = 0;   //!< log2(numSets); numSets is always a power of two
    uint64_t numSets;
    std::vector<Entry> entries;
    uint64_t clock = 0;
};

} // namespace gpusim
} // namespace rodinia

#endif // RODINIA_GPUSIM_SIMPLECACHE_HH
