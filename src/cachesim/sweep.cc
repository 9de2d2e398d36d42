#include "cachesim/sweep.hh"

#include <chrono>
#include <cstring>

#include "support/cancel.hh"
#include "support/logging.hh"
#include "trace/trace.hh"

namespace rodinia {
namespace cachesim {

namespace {

int
popcount64(uint64_t v)
{
    return __builtin_popcountll(v);
}

int
log2u64(uint64_t v)
{
    return 63 - __builtin_clzll(v);
}

} // namespace

CacheSweep::CacheSweep(const SweepConfig &config) : cfg(config)
{
    if (cfg.sizesBytes.empty())
        fatal("CacheSweep: no cache sizes to sweep");
    lineShift = log2u64(uint64_t(cfg.lineBytes));
    levels.resize(cfg.sizesBytes.size());
    for (size_t i = 0; i < cfg.sizesBytes.size(); ++i) {
        CacheConfig geom;
        geom.sizeBytes = cfg.sizesBytes[i];
        geom.assoc = cfg.assoc;
        geom.lineBytes = cfg.lineBytes;
        Level &lv = levels[i];
        lv.nSets = geom.numSets(); // validates, fatal on bad geometry
        lv.setShift = log2u64(lv.nSets);
        lv.ways.resize(lv.nSets * size_t(cfg.assoc));
        lv.fill.assign(lv.nSets, 0);
    }
}

void
CacheSweep::accessLine(uint64_t tid_bit, uint64_t line_addr,
                       bool is_write)
{
    if (finished)
        panic("CacheSweep::access after finish()");
    ++lineAccesses;
    for (Level &lv : levels) {
        CacheStats &st = lv.stats;
        ++st.accesses;

        // Set-index hashing (XOR-folded upper bits): real L2/L3
        // caches hash the index, and without it our scaled power-of-
        // two problem sizes place all threads' partition-aligned
        // streams into the same set simultaneously — a synthetic
        // conflict artifact the paper's odd-sized inputs (34
        // features, 609x590 frames) never hit. The stacks below keep
        // LRU order by position instead of timestamps.
        uint64_t set =
            (line_addr ^ (line_addr >> lv.setShift) * 0x9e3779b9) &
            (lv.nSets - 1);
        uint64_t tag = line_addr >> lv.setShift;
        Way *base = &lv.ways[set * size_t(cfg.assoc)];
        int n = lv.fill[set];

        // MRU fast path: a re-reference of the stack head needs no
        // reordering, and it is the overwhelmingly common case on
        // looping workloads, so skip the scan-and-memmove entirely.
        // The bookkeeping matches the depth==0 arm of the slow path
        // exactly.
        if (n > 0 && base[0].tag == tag) {
            ++st.hitDepth[0];
            uint64_t mask = base[0].threadMask;
            bool was_shared = popcount64(mask) > 1;
            mask |= tid_bit;
            if (was_shared || popcount64(mask) > 1) {
                ++st.accessesToShared;
                if (is_write)
                    ++st.writesToShared;
            }
            base[0].threadMask = mask;
            continue;
        }

        int depth = 1;
        while (depth < n && base[depth].tag != tag)
            ++depth;

        if (depth < n) {
            // Hit: the MRU-stack index IS the LRU stack distance.
            int bucket = depth < CacheStats::kDepthBuckets
                             ? depth
                             : CacheStats::kDepthBuckets - 1;
            ++st.hitDepth[size_t(bucket)];
            uint64_t mask = base[depth].threadMask;
            bool was_shared = popcount64(mask) > 1;
            mask |= tid_bit;
            bool now_shared = popcount64(mask) > 1;
            if (was_shared || now_shared) {
                ++st.accessesToShared;
                if (is_write)
                    ++st.writesToShared;
            }
            std::memmove(base + 1, base, sizeof(Way) * size_t(depth));
            base[0] = Way{tag, mask};
        } else {
            ++st.misses;
            if (n == cfg.assoc) {
                // Stack full: the tail is the LRU victim.
                const Way &victim = base[n - 1];
                ++st.evictions;
                ++st.residencies;
                if (popcount64(victim.threadMask) > 1)
                    ++st.sharedResidencies;
                std::memmove(base + 1, base,
                             sizeof(Way) * size_t(n - 1));
            } else {
                std::memmove(base + 1, base, sizeof(Way) * size_t(n));
                ++lv.fill[set];
            }
            base[0] = Way{tag, tid_bit};
        }
    }
}

SweepResult
CacheSweep::finish(double replay_seconds)
{
    if (finished)
        panic("CacheSweep::finish called twice");
    finished = true;
    SweepResult result;
    result.sizesBytes = cfg.sizesBytes;
    result.stats.reserve(levels.size());
    for (Level &lv : levels) {
        for (uint64_t set = 0; set < lv.nSets; ++set) {
            const Way *base = &lv.ways[set * size_t(cfg.assoc)];
            for (int w = 0; w < lv.fill[set]; ++w) {
                ++lv.stats.residencies;
                if (popcount64(base[w].threadMask) > 1)
                    ++lv.stats.sharedResidencies;
            }
        }
        result.stats.push_back(lv.stats);
    }
    result.lineAccesses = lineAccesses;
    result.replaySeconds = replay_seconds;
    return result;
}

SweepResult
runSweep(const trace::TraceSession &session, const SweepConfig &config)
{
    CacheSweep sweep(config);
    auto t0 = std::chrono::steady_clock::now();
    uint64_t events = 0;
    session.forEachInterleaved(
        [&sweep, &events](int tid, const trace::MemEvent &e) {
            // Cooperative cancellation checkpoint, strided to keep
            // the replay loop's per-event cost unchanged.
            if ((++events & 0xfffff) == 0)
                support::checkpointCancellation();
            sweep.access(tid, e.addr, e.size, e.isWrite != 0);
        });
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return sweep.finish(seconds);
}

} // namespace cachesim
} // namespace rodinia
