/**
 * @file
 * Single-pass multi-configuration cache sweep (Figures 8, 9, 10).
 *
 * The paper sweeps one shared cache from 128 kB to 16 MB at fixed
 * 4-way/64 B geometry. Simulating each size independently repeats
 * identical work per trace event: the line split, the interleaving
 * walk, and a timestamped LRU update per size. This engine replays
 * the trace ONCE and maintains, for every swept size, per-set LRU
 * stacks ordered most- to least-recently used (Mattson-style): a
 * hit's position in its stack is its stack distance, recorded into
 * CacheStats::hitDepth, and the stack's tail is the LRU victim, so
 * misses, evictions, and the shared-residency bookkeeping fall out
 * for all sizes in the same pass — plus, from the distance
 * histogram, the miss count at every associativity below the
 * simulated one for free.
 *
 * Equivalence contract: for each size the per-set stack order equals
 * the lastUse-timestamp order of an independent per-size LRU cache,
 * and the sharing counters are updated at the same points, so every
 * CacheStats field is byte-identical to replaying the same
 * interleaved trace through one such cache per size (asserted by the
 * equivalence property tests against the reference model in
 * tests/reference/).
 */

#ifndef RODINIA_CACHESIM_SWEEP_HH
#define RODINIA_CACHESIM_SWEEP_HH

#include <cstdint>
#include <vector>

#include "cachesim/cache.hh"

namespace rodinia {
namespace trace {
class TraceSession;
} // namespace trace

namespace cachesim {

/** Geometry shared by every configuration of one sweep. */
struct SweepConfig
{
    std::vector<uint64_t> sizesBytes; //!< one simulated cache each
    int assoc = 4;
    int lineBytes = 64;
};

/** Everything one replay pass measured. */
struct SweepResult
{
    std::vector<uint64_t> sizesBytes;
    std::vector<CacheStats> stats; //!< parallel to sizesBytes

    /** Line-granular accesses replayed (equal for every size). */
    uint64_t lineAccesses = 0;
    /** Wall-clock spent replaying (observability, not serialized). */
    double replaySeconds = 0.0;

    double
    accessesPerSecond() const
    {
        return replaySeconds > 0.0 ? double(lineAccesses) /
                                     replaySeconds
                                   : 0.0;
    }
};

/**
 * The single-pass engine. Feed the interleaved access stream through
 * access(), then collect everything with finish(). Use runSweep()
 * for the common replay-a-session case.
 */
class CacheSweep
{
  public:
    explicit CacheSweep(const SweepConfig &config);

    /** Replay one access; internally splits line-crossing accesses. */
    void
    access(int tid, uint64_t addr, uint32_t size, bool is_write)
    {
        uint64_t first = addr >> lineShift;
        uint64_t last = (addr + (size ? size - 1 : 0)) >> lineShift;
        uint64_t tid_bit = 1ULL << (tid & 63);
        for (uint64_t line = first; line <= last; ++line)
            accessLine(tid_bit, line, is_write);
    }

    /**
     * Finalize statistics: residencies still live are counted and
     * classified as shared or private. Call once.
     */
    SweepResult finish(double replay_seconds = 0.0);

    const SweepConfig &config() const { return cfg; }

  private:
    /** One resident line: identity plus the threads that touched it
     *  this residency. Stored in MRU-to-LRU order within its set. */
    struct Way
    {
        uint64_t tag;
        uint64_t threadMask;
    };

    /** One swept cache size. */
    struct Level
    {
        uint64_t nSets = 0;
        int setShift = 0;            //!< log2(nSets)
        std::vector<Way> ways;       //!< nSets * assoc, set-major
        std::vector<uint8_t> fill;   //!< valid ways per set
        CacheStats stats;
    };

    void accessLine(uint64_t tid_bit, uint64_t line_addr,
                    bool is_write);

    SweepConfig cfg;
    std::vector<Level> levels;
    int lineShift = 6;
    uint64_t lineAccesses = 0;
    bool finished = false;
};

/**
 * Replay the session's deterministic interleaved trace through the
 * engine and return the per-size statistics plus replay telemetry.
 */
SweepResult runSweep(const trace::TraceSession &session,
                     const SweepConfig &config);

} // namespace cachesim
} // namespace rodinia

#endif // RODINIA_CACHESIM_SWEEP_HH
