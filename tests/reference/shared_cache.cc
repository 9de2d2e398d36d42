#include "reference/shared_cache.hh"

#include "support/logging.hh"

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

SharedCache::SharedCache(const CacheConfig &config) : cfg(config)
{
    cfg.validate();
    nSets = cfg.numSets();
    setShift = log2u64(nSets);
    lines.resize(nSets * cfg.assoc);
}

void
SharedCache::access(int tid, uint64_t addr, uint32_t size, bool is_write)
{
    if (finished)
        panic("SharedCache::access after finish()");
    uint64_t first = addr / cfg.lineBytes;
    uint64_t last = (addr + (size ? size - 1 : 0)) / cfg.lineBytes;
    for (uint64_t line = first; line <= last; ++line)
        accessLine(tid, line, is_write);
}

void
SharedCache::accessLine(int tid, uint64_t line_addr, bool is_write)
{
    ++counters.accesses;
    ++useClock;

    // Set-index hashing (XOR-folded upper bits): real L2/L3 caches
    // hash the index, and without it our scaled power-of-two problem
    // sizes place all threads' partition-aligned streams into the
    // same set simultaneously — a synthetic conflict artifact the
    // paper's odd-sized inputs (34 features, 609x590 frames) never
    // hit.
    uint64_t set = (line_addr ^ (line_addr >> setShift) * 0x9e3779b9) &
                   (nSets - 1);
    uint64_t tag = line_addr >> setShift;
    Line *base = &lines[set * cfg.assoc];

    uint64_t tid_bit = 1ULL << (tid & 63);

    // Hit?
    for (int w = 0; w < cfg.assoc; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            // LRU stack distance: how many set-mates were used more
            // recently. Valid lines carry distinct lastUse stamps,
            // so this is the line's depth in the recency stack.
            int depth = 0;
            for (int v = 0; v < cfg.assoc; ++v)
                if (base[v].valid && base[v].lastUse > l.lastUse)
                    ++depth;
            if (depth >= CacheStats::kDepthBuckets)
                depth = CacheStats::kDepthBuckets - 1;
            ++counters.hitDepth[size_t(depth)];
            l.lastUse = useClock;
            bool was_shared = popcount64(l.threadMask) > 1;
            l.threadMask |= tid_bit;
            bool now_shared = popcount64(l.threadMask) > 1;
            if (was_shared || now_shared) {
                ++counters.accessesToShared;
                if (is_write)
                    ++counters.writesToShared;
            }
            return;
        }
    }

    // Miss: choose victim (invalid way first, else LRU).
    ++counters.misses;
    Line *victim = base;
    for (int w = 0; w < cfg.assoc; ++w) {
        Line &l = base[w];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (l.lastUse < victim->lastUse)
            victim = &l;
    }
    if (victim->valid) {
        ++counters.evictions;
        ++counters.residencies;
        if (popcount64(victim->threadMask) > 1)
            ++counters.sharedResidencies;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock;
    victim->threadMask = tid_bit;
}

const CacheStats &
SharedCache::finish()
{
    if (finished)
        return counters;
    finished = true;
    for (const Line &l : lines) {
        if (!l.valid)
            continue;
        ++counters.residencies;
        if (popcount64(l.threadMask) > 1)
            ++counters.sharedResidencies;
    }
    return counters;
}

} // namespace cachesim
} // namespace rodinia
