/**
 * @file
 * Reference shared-cache model: one set-associative, LRU,
 * write-allocate cache per size, replayed access by access with
 * lastUse timestamps. cachesim::CacheSweep (src/cachesim/sweep.hh)
 * measures every size in one pass and must reproduce each
 * CacheStats field of this model exactly; only the tests use it.
 */

#ifndef RODINIA_TESTS_REFERENCE_SHARED_CACHE_HH
#define RODINIA_TESTS_REFERENCE_SHARED_CACHE_HH

#include <cstdint>
#include <vector>

#include "cachesim/cache.hh"

namespace rodinia {
namespace cachesim {

/**
 * One shared, set-associative, LRU, write-allocate cache fed by a
 * multithreaded access stream.
 */
class SharedCache
{
  public:
    explicit SharedCache(const CacheConfig &config);

    /** Replay one access; internally splits line-crossing accesses. */
    void access(int tid, uint64_t addr, uint32_t size, bool is_write);

    /**
     * Finalize statistics: residencies still live in the cache are
     * counted (and classified shared or private). Call once, after
     * the full trace has been replayed.
     */
    const CacheStats &finish();

    const CacheConfig &config() const { return cfg; }
    const CacheStats &stats() const { return counters; }

  private:
    void accessLine(int tid, uint64_t line_addr, bool is_write);

    struct Line
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        uint64_t threadMask = 0;
        bool valid = false;
    };

    CacheConfig cfg;
    CacheStats counters;
    std::vector<Line> lines;   //!< numSets * assoc, set-major
    uint64_t nSets = 0;        //!< cached cfg.numSets()
    int setShift = 0;          //!< log2(nSets)
    uint64_t useClock = 0;
    bool finished = false;
};

} // namespace cachesim
} // namespace rodinia

#endif // RODINIA_TESTS_REFERENCE_SHARED_CACHE_HH
