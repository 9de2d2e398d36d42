/**
 * @file
 * Multicore shared-cache simulator for working-set and sharing
 * analysis (Sections IV-B, V-A; Figures 8, 9, 10).
 *
 * Mirrors Bienia et al.'s methodology: an 8-core CMP with one cache
 * shared by all cores, 4-way associative with 64-byte lines, swept
 * from 128 kB to 16 MB. For every residency of a line we track which
 * threads touched it; a residency touched by more than one thread is
 * "shared", giving the fraction-of-lines-shared and
 * accesses-to-shared-lines-per-memory-reference metrics.
 *
 * The simulator is the single-pass CacheSweep (sweep.hh), which
 * measures every swept size in one replay; the per-size reference
 * cache it is checked against lives in tests/reference/.
 */

#ifndef RODINIA_CACHESIM_CACHE_HH
#define RODINIA_CACHESIM_CACHE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rodinia {
namespace trace {
class TraceSession;
} // namespace trace

namespace cachesim {

/** Geometry of one simulated shared cache. */
struct CacheConfig
{
    uint64_t sizeBytes = 4 * 1024 * 1024;
    int assoc = 4;
    int lineBytes = 64;

    /**
     * Check the geometry and fail fast with a clear message instead
     * of silently truncating: sizeBytes must be a positive multiple
     * of assoc * lineBytes, and the set count (like the line size)
     * must be a power of two for the masked index mapping.
     */
    void validate() const;

    /** Number of sets. Fatal if the geometry is invalid. */
    uint64_t numSets() const;
};

/** Counters accumulated while replaying a trace through the cache. */
struct CacheStats
{
    /**
     * LRU stack-distance histogram buckets: hitDepth[d] counts hits
     * whose line sat at depth d (0 = MRU) of its set's recency
     * stack. Depths beyond the last bucket clamp into it. Misses
     * are the accesses in no bucket, so the miss count at a reduced
     * associativity a <= assoc is `accesses - sum(hitDepth[0..a-1])`
     * (Mattson: one replay measures every smaller associativity).
     */
    static constexpr int kDepthBuckets = 8;

    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;

    /** Line residencies that ended (evicted or still live at end). */
    uint64_t residencies = 0;
    /** Residencies touched by two or more distinct threads. */
    uint64_t sharedResidencies = 0;
    /** Accesses to a line after it became shared in its residency. */
    uint64_t accessesToShared = 0;
    /** Write accesses to shared residencies (communication proxy). */
    uint64_t writesToShared = 0;

    /** Hits per LRU stack depth (see kDepthBuckets). */
    std::array<uint64_t, kDepthBuckets> hitDepth{};

    double
    missRate() const
    {
        return accesses ? double(misses) / double(accesses) : 0.0;
    }

    /** Misses this trace would take at associativity `a` (<= assoc). */
    uint64_t
    missesAtAssoc(int a) const
    {
        uint64_t hits = 0;
        for (int d = 0; d < a && d < kDepthBuckets; ++d)
            hits += hitDepth[size_t(d)];
        return accesses - hits;
    }

    bool
    operator==(const CacheStats &o) const
    {
        return accesses == o.accesses && misses == o.misses &&
               evictions == o.evictions &&
               residencies == o.residencies &&
               sharedResidencies == o.sharedResidencies &&
               accessesToShared == o.accessesToShared &&
               writesToShared == o.writesToShared &&
               hitDepth == o.hitDepth;
    }
    double
    sharedLineFraction() const
    {
        return residencies ? double(sharedResidencies) /
                             double(residencies)
                           : 0.0;
    }
    double
    sharedAccessFraction() const
    {
        return accesses ? double(accessesToShared) / double(accesses)
                        : 0.0;
    }
};

/**
 * Replay the session's interleaved memory trace once and return the
 * per-size statistics for every given size. Implemented on the
 * single-pass stack-distance engine (see sweep.hh); byte-identical
 * to replaying one independent cache per size (the reference model
 * in tests/reference/).
 */
std::vector<CacheStats> sweepCacheSizes(
    const trace::TraceSession &session,
    const std::vector<uint64_t> &sizes_bytes, int assoc = 4,
    int line_bytes = 64);

/** The paper's eight cache sizes: 128 kB .. 16 MB, powers of two. */
std::vector<uint64_t> paperCacheSizes();

} // namespace cachesim
} // namespace rodinia

#endif // RODINIA_CACHESIM_CACHE_HH
