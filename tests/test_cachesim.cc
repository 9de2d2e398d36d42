/**
 * @file
 * Unit and property tests for the shared-cache simulator.
 */

#include <gtest/gtest.h>

#include "cachesim/cache.hh"
#include "cachesim/sweep.hh"
#include "reference/shared_cache.hh"
#include "support/rng.hh"
#include "trace/trace.hh"

using namespace rodinia;
using namespace rodinia::cachesim;

namespace {

CacheConfig
smallConfig(uint64_t bytes = 4096, int assoc = 4, int line = 64)
{
    CacheConfig cfg;
    cfg.sizeBytes = bytes;
    cfg.assoc = assoc;
    cfg.lineBytes = line;
    return cfg;
}

} // namespace

TEST(CacheSim, ColdMissThenHit)
{
    SharedCache c(smallConfig());
    c.access(0, 0x1000, 4, false);
    c.access(0, 0x1004, 4, false);
    const auto &st = c.finish();
    EXPECT_EQ(st.accesses, 2u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_DOUBLE_EQ(st.missRate(), 0.5);
}

TEST(CacheSim, LineCrossingAccessTouchesTwoLines)
{
    SharedCache c(smallConfig());
    c.access(0, 0x1000 + 60, 8, false); // crosses a 64 B boundary
    const auto &st = c.finish();
    EXPECT_EQ(st.accesses, 2u);
    EXPECT_EQ(st.misses, 2u);
}

TEST(CacheSim, LruEviction)
{
    // One set: 4 ways of 64 B = 256 B cache with 64 B lines, but we
    // need sets=1: size = assoc * line.
    SharedCache c(smallConfig(256, 4, 64));
    // Fill the (single) set with 4 distinct lines.
    for (uint64_t i = 0; i < 4; ++i)
        c.access(0, i * 64 * 1, 4, false); // all map to set 0? no:
    // Lines 0..3 map to different sets only if sets > 1; with one
    // set they all collide. Access a 5th line: evicts line 0 (LRU).
    c.access(0, 4 * 64, 4, false);
    c.access(0, 0, 4, false); // line 0 must now miss again
    const auto &st = c.finish();
    EXPECT_EQ(st.misses, 6u);
    EXPECT_EQ(st.evictions, 2u);
}

TEST(CacheSim, LruKeepsRecentlyUsed)
{
    SharedCache c(smallConfig(256, 4, 64));
    for (uint64_t i = 0; i < 4; ++i)
        c.access(0, i * 64, 4, false);
    c.access(0, 0, 4, false);      // touch line 0 (now MRU)
    c.access(0, 4 * 64, 4, false); // evicts line 1, not line 0
    c.access(0, 0, 4, false);      // still a hit
    const auto &st = c.finish();
    EXPECT_EQ(st.misses, 5u);
}

TEST(CacheSim, SharingClassification)
{
    SharedCache c(smallConfig());
    // Line A touched by two threads; line B by one thread.
    c.access(0, 0x0, 4, false);
    c.access(1, 0x8, 4, true);
    c.access(0, 0x1000, 4, false);
    const auto &st = c.finish();
    EXPECT_EQ(st.residencies, 2u);
    EXPECT_EQ(st.sharedResidencies, 1u);
    // The second access to line A happened when it became shared.
    EXPECT_EQ(st.accessesToShared, 1u);
    EXPECT_EQ(st.writesToShared, 1u);
    EXPECT_DOUBLE_EQ(st.sharedLineFraction(), 0.5);
}

TEST(CacheSim, PrivateDataNeverShared)
{
    SharedCache c(smallConfig(64 * 1024));
    for (int t = 0; t < 4; ++t)
        for (uint64_t i = 0; i < 32; ++i)
            c.access(t, uint64_t(t) * 0x10000 + i * 64, 4, true);
    const auto &st = c.finish();
    EXPECT_EQ(st.sharedResidencies, 0u);
    EXPECT_EQ(st.accessesToShared, 0u);
}

TEST(CacheSim, PaperCacheSizes)
{
    auto sizes = paperCacheSizes();
    ASSERT_EQ(sizes.size(), 8u);
    EXPECT_EQ(sizes.front(), 128u * 1024);
    EXPECT_EQ(sizes.back(), 16u * 1024 * 1024);
    for (size_t i = 1; i < sizes.size(); ++i)
        EXPECT_EQ(sizes[i], sizes[i - 1] * 2);
}

/** Property: miss rate is non-increasing in cache size (LRU). */
TEST(CacheSim, MissRateMonotoneInCacheSize)
{
    trace::TraceSession session(4);
    Rng rng(77);
    std::vector<uint8_t> heap(1 << 20);
    session.run([&](trace::ThreadCtx &ctx) {
        Rng local(100 + ctx.tid());
        for (int i = 0; i < 20000; ++i) {
            // Zipf-ish reuse: mostly hot region, occasional cold.
            uint64_t addr = local.chance(0.8)
                                ? local.below(1 << 14)
                                : local.below(1 << 20);
            ctx.load(&heap[addr], 4);
        }
    });

    auto sweep = sweepCacheSizes(session, paperCacheSizes());
    for (size_t i = 1; i < sweep.size(); ++i)
        EXPECT_LE(sweep[i].missRate(), sweep[i - 1].missRate() + 1e-9)
            << "size index " << i;
}

/** Property: every access lands in exactly one statistics bucket. */
TEST(CacheSim, AccessAccounting)
{
    trace::TraceSession session(2);
    std::vector<uint8_t> heap(1 << 16);
    session.run([&](trace::ThreadCtx &ctx) {
        Rng local(5 + ctx.tid());
        for (int i = 0; i < 5000; ++i)
            ctx.load(&heap[local.below(1 << 16)], 4);
    });
    auto sweep = sweepCacheSizes(session, {128 * 1024});
    const auto &st = sweep[0];
    // 10000 program accesses; those straddling a 64 B boundary split
    // into two line accesses.
    EXPECT_GE(st.accesses, 10000u);
    EXPECT_LE(st.accesses, 11000u);
    EXPECT_EQ(st.misses + (st.accesses - st.misses), st.accesses);
    EXPECT_LE(st.sharedResidencies, st.residencies);
    EXPECT_LE(st.accessesToShared, st.accesses);
}

namespace {

/** Record a mixed multi-threaded trace with line-straddling sizes. */
void
recordMixedTrace(trace::TraceSession &session, std::vector<uint8_t> &heap,
                 int accessesPerThread)
{
    session.run([&](trace::ThreadCtx &ctx) {
        Rng local(321 + ctx.tid());
        for (int i = 0; i < accessesPerThread; ++i) {
            // Zipf-ish reuse plus cold tail, with sizes up to 64 B so
            // some accesses straddle a line boundary.
            uint64_t addr = local.chance(0.7)
                                ? local.below(1 << 13)
                                : local.below(heap.size() - 64);
            uint32_t size = uint32_t(1 + local.below(64));
            if (local.chance(0.3))
                ctx.store(&heap[addr], size);
            else
                ctx.load(&heap[addr], size);
        }
    });
    session.normalizeAddresses();
}

/** Replay the session through an independent per-size SharedCache. */
CacheStats
oracleStats(const trace::TraceSession &session, uint64_t bytes, int assoc,
            int line)
{
    SharedCache oracle(smallConfig(bytes, assoc, line));
    session.forEachInterleaved([&](int tid, const trace::MemEvent &e) {
        oracle.access(tid, e.addr, e.size, e.isWrite != 0);
    });
    return oracle.finish();
}

} // namespace

/**
 * The equivalence contract: every CacheStats field the single-pass
 * sweep produces — including the hit-depth histogram and the sharing
 * counters — equals an independent SharedCache replay of the same
 * interleaved trace, at every swept size.
 */
TEST(CacheSweep, MatchesSharedCacheOracleExactly)
{
    trace::TraceSession session(8);
    std::vector<uint8_t> heap(1 << 18);
    recordMixedTrace(session, heap, 6000);

    SweepConfig cfg;
    cfg.sizesBytes = {8 * 1024, 32 * 1024, 128 * 1024, 1024 * 1024};
    auto result = runSweep(session, cfg);
    ASSERT_EQ(result.stats.size(), cfg.sizesBytes.size());
    ASSERT_EQ(result.sizesBytes, cfg.sizesBytes);

    for (size_t i = 0; i < cfg.sizesBytes.size(); ++i) {
        CacheStats want = oracleStats(session, cfg.sizesBytes[i],
                                      cfg.assoc, cfg.lineBytes);
        EXPECT_TRUE(result.stats[i] == want)
            << "size " << cfg.sizesBytes[i];
        EXPECT_EQ(result.stats[i].accesses, result.lineAccesses);
    }
}

/** Equivalence holds off the default geometry too. */
TEST(CacheSweep, OracleEquivalenceAcrossGeometries)
{
    trace::TraceSession session(4);
    std::vector<uint8_t> heap(1 << 16);
    recordMixedTrace(session, heap, 3000);

    struct Geometry
    {
        int assoc;
        int line;
    };
    for (Geometry g : {Geometry{1, 64}, Geometry{2, 32},
                       Geometry{8, 128}}) {
        SweepConfig cfg;
        cfg.assoc = g.assoc;
        cfg.lineBytes = g.line;
        cfg.sizesBytes = {uint64_t(g.assoc) * uint64_t(g.line) * 16,
                          uint64_t(g.assoc) * uint64_t(g.line) * 256};
        auto result = runSweep(session, cfg);
        for (size_t i = 0; i < cfg.sizesBytes.size(); ++i) {
            CacheStats want = oracleStats(session, cfg.sizesBytes[i],
                                          g.assoc, g.line);
            EXPECT_TRUE(result.stats[i] == want)
                << "assoc " << g.assoc << " line " << g.line
                << " size " << cfg.sizesBytes[i];
        }
    }
}

/** hitDepth is a complete, consistent decomposition of the hits. */
TEST(CacheSweep, HitDepthAccountingInvariants)
{
    trace::TraceSession session(4);
    std::vector<uint8_t> heap(1 << 17);
    recordMixedTrace(session, heap, 4000);

    SweepConfig cfg;
    cfg.sizesBytes = paperCacheSizes();
    auto result = runSweep(session, cfg);
    for (const CacheStats &st : result.stats) {
        uint64_t depthHits = 0;
        for (uint64_t d : st.hitDepth)
            depthHits += d;
        EXPECT_EQ(depthHits, st.accesses - st.misses);
        // Depth-projected misses: exact at the simulated assoc, and
        // non-increasing as the projected associativity grows.
        EXPECT_EQ(st.missesAtAssoc(cfg.assoc), st.misses);
        for (int a = 1; a < cfg.assoc; ++a)
            EXPECT_GE(st.missesAtAssoc(a), st.missesAtAssoc(a + 1));
        EXPECT_LE(st.missesAtAssoc(1), st.accesses);
    }
}

/** Replay telemetry: line accesses and throughput derivation. */
TEST(CacheSweep, ReplayTelemetry)
{
    trace::TraceSession session(2);
    std::vector<uint8_t> heap(1 << 14);
    recordMixedTrace(session, heap, 500);

    SweepConfig cfg;
    cfg.sizesBytes = {64 * 1024};
    auto result = runSweep(session, cfg);
    EXPECT_GT(result.lineAccesses, 0u);
    EXPECT_GE(result.replaySeconds, 0.0);

    SweepResult r;
    r.lineAccesses = 100;
    r.replaySeconds = 4.0;
    EXPECT_DOUBLE_EQ(r.accessesPerSecond(), 25.0);
    r.replaySeconds = 0.0;
    EXPECT_DOUBLE_EQ(r.accessesPerSecond(), 0.0);
}

/** Bad geometry dies loudly instead of truncating the set count. */
TEST(CacheConfigDeath, RejectsInvalidGeometry)
{
    EXPECT_DEATH(smallConfig(4096, 0, 64).numSets(),
                 "must be positive");
    EXPECT_DEATH(smallConfig(4096, 4, 48).numSets(),
                 "power of two");
    EXPECT_DEATH(smallConfig(4000, 4, 64).numSets(),
                 "not a positive multiple");
    EXPECT_DEATH(smallConfig(3 * 4096, 4, 64).numSets(),
                 "set count must be a power of two");
    EXPECT_DEATH(SharedCache(smallConfig(0, 4, 64)),
                 "not a positive multiple");
}

/** Sharing rises with cache size when threads share a hot region. */
TEST(CacheSim, SharedHotRegionDetected)
{
    trace::TraceSession session(4);
    std::vector<uint8_t> heap(1 << 18);
    session.run([&](trace::ThreadCtx &ctx) {
        Rng local(9 + ctx.tid());
        for (int i = 0; i < 10000; ++i) {
            // All threads hammer the same 16 kB region.
            ctx.load(&heap[local.below(1 << 14)], 4);
        }
    });
    auto sweep = sweepCacheSizes(session, {1024 * 1024});
    EXPECT_GT(sweep[0].sharedLineFraction(), 0.5);
    EXPECT_GT(sweep[0].sharedAccessFraction(), 0.5);
}
