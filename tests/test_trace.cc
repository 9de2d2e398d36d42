/**
 * @file
 * Unit tests for the CPU instrumentation substrate.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "support/alloc_align.hh"
#include "support/rng.hh"
#include "trace/trace.hh"

using namespace rodinia;
using namespace rodinia::trace;

TEST(Trace, CountsInstructionMix)
{
    TraceSession s(1);
    s.run([](ThreadCtx &ctx) {
        int x = 0;
        ctx.alu(5);
        ctx.fp(3);
        ctx.branch(2);
        ctx.load(&x, 4);
        ctx.store(&x, 4);
    });
    auto mix = s.totalMix();
    EXPECT_EQ(mix.intOps, 5u);
    EXPECT_EQ(mix.fpOps, 3u);
    EXPECT_EQ(mix.branches, 2u);
    EXPECT_EQ(mix.loads, 1u);
    EXPECT_EQ(mix.stores, 1u);
    EXPECT_EQ(mix.total(), 12u);
    EXPECT_EQ(mix.memRefs(), 2u);
}

TEST(Trace, RecordsEventsPerThread)
{
    TraceSession s(4);
    s.run([](ThreadCtx &ctx) {
        int buf[8] = {};
        for (int i = 0; i <= ctx.tid(); ++i)
            ctx.load(&buf[i], 4);
    });
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(s.contexts()[t]->eventCount(), uint64_t(t + 1));
    EXPECT_EQ(s.totalEvents(), 1u + 2 + 3 + 4);
}

TEST(Trace, RecordingCanBeDisabled)
{
    TraceSession s(2, false);
    s.run([](ThreadCtx &ctx) {
        int x = 0;
        ctx.load(&x, 4);
        ctx.store(&x, 4);
    });
    EXPECT_EQ(s.totalEvents(), 0u);
    // Instruction mix still counts.
    EXPECT_EQ(s.totalMix().memRefs(), 4u);
}

TEST(Trace, LdStMoveRealData)
{
    TraceSession s(1);
    int value = 0;
    s.run([&](ThreadCtx &ctx) {
        ctx.st(&value, 42);
        int v = ctx.ld(&value);
        ctx.st(&value, v + 1);
    });
    EXPECT_EQ(value, 43);
}

TEST(Trace, BarrierSynchronizesPhases)
{
    const int nt = 8;
    TraceSession s(nt, false);
    std::vector<int> phase1(nt, 0);
    std::vector<int> sums(nt, 0);
    s.run([&](ThreadCtx &ctx) {
        phase1[ctx.tid()] = ctx.tid() + 1;
        ctx.barrier();
        int sum = 0;
        for (int i = 0; i < nt; ++i)
            sum += phase1[i];
        sums[ctx.tid()] = sum;
    });
    for (int t = 0; t < nt; ++t)
        EXPECT_EQ(sums[t], nt * (nt + 1) / 2);
}

TEST(Trace, DataFootprintPages)
{
    TraceSession s(1);
    // Touch 3 distinct 4 kB pages via a heap buffer.
    std::vector<uint8_t> buf(3 * 4096 + 64);
    s.run([&](ThreadCtx &ctx) {
        ctx.load(&buf[0], 4);
        ctx.load(&buf[4096], 4);
        ctx.load(&buf[2 * 4096], 4);
        ctx.load(&buf[4096 + 8], 4); // same page again
    });
    // At least 3 pages (buffer may straddle page boundaries).
    EXPECT_GE(s.dataFootprintPages(), 3u);
    EXPECT_LE(s.dataFootprintPages(), 4u);
}

TEST(Trace, PageStraddlingAccessCountsBothPages)
{
    TraceSession s(1);
    std::vector<uint8_t> buf(2 * 4096);
    // Find an offset 4 bytes before a page boundary.
    uintptr_t base = uintptr_t(buf.data());
    uintptr_t boundary = (base + 4096) & ~uintptr_t(4095);
    uint8_t *p = reinterpret_cast<uint8_t *>(boundary - 4);
    s.run([&](ThreadCtx &ctx) { ctx.load(p, 8); });
    EXPECT_EQ(s.dataFootprintPages(), 2u);
}

TEST(Trace, InstructionSitesAreDistinctPerCallSite)
{
    TraceSession s(1);
    s.run([](ThreadCtx &ctx) {
        for (int i = 0; i < 10; ++i)
            ctx.alu(1); // one site despite 10 calls
        ctx.alu(1);     // second site
        ctx.fp(1);      // third site
    });
    EXPECT_EQ(s.instructionSites(), 3u);
    EXPECT_GE(s.instructionFootprintBlocks(), 1u);
}

TEST(Trace, InterleavingIsRoundRobinAndComplete)
{
    TraceSession s(3);
    std::vector<int> data(16, 0);
    s.run([&](ThreadCtx &ctx) {
        for (int i = 0; i < 2 + ctx.tid(); ++i)
            ctx.load(&data[ctx.tid() * 4 + i], 4);
    });
    std::vector<int> order;
    s.forEachInterleaved(
        [&](int tid, const MemEvent &) { order.push_back(tid); });
    // Total = 2 + 3 + 4 events; round-robin starts 0,1,2,0,1,2,...
    ASSERT_EQ(order.size(), 9u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
    EXPECT_EQ(order[3], 0);
    // Thread 2 has the most events, so the tail is all 2s.
    EXPECT_EQ(order[8], 2);
}

TEST(Trace, NormalizeSplitsLineStraddlingEvents)
{
    TraceSession s(1);
    std::vector<uint8_t> buf(256);
    // Start 4 bytes before a 64 B line boundary so the 12-byte load
    // straddles it.
    uintptr_t base = uintptr_t(buf.data());
    uintptr_t boundary = (base + 64) & ~uintptr_t(63);
    uint8_t *p = reinterpret_cast<uint8_t *>(boundary - 4);
    s.run([&](ThreadCtx &ctx) { ctx.load(p, 12); });
    s.normalizeAddresses();
    const auto ev = s.contexts()[0]->eventsCopy();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].size + ev[1].size, 12u);
    // Each piece now covers exactly one line.
    for (const auto &e : ev)
        EXPECT_EQ(e.addr >> 6,
                  (e.addr + (e.size ? e.size - 1 : 0)) >> 6);
}

TEST(Trace, NormalizeAssignsFirstTouchSequentialPages)
{
    TraceSession s(1);
    std::vector<uint8_t> buf(3 * 4096);
    s.run([&](ThreadCtx &ctx) {
        ctx.load(&buf[2 * 4096], 4); // touched first
        ctx.load(&buf[0], 4);
        ctx.load(&buf[4096], 4);
        ctx.load(&buf[2 * 4096 + 8], 4); // same line as the first
    });
    s.normalizeAddresses();
    const auto ev = s.contexts()[0]->eventsCopy();
    ASSERT_EQ(ev.size(), 4u);
    // Pages are renumbered in first-touch order...
    EXPECT_EQ(ev[1].addr >> 12, (ev[0].addr >> 12) + 1);
    EXPECT_EQ(ev[2].addr >> 12, (ev[1].addr >> 12) + 1);
    // ...and same-line accesses land on the same canonical line.
    EXPECT_EQ(ev[3].addr >> 6, ev[0].addr >> 6);
    // The figure-level footprint is unchanged by renumbering.
    EXPECT_EQ(s.dataFootprintPages(), 3u);
}

/**
 * Identical logical access patterns against different allocations
 * produce byte-identical canonical traces: the guarantee the
 * cross-process figure determinism rests on. (Equal line/page
 * *phase* of the two buffers is guaranteed by the scoped allocation
 * alignment in support/alloc_align.hh, held here exactly as
 * core::characterizeCpu holds it around a workload run.)
 */
TEST(Trace, NormalizeCanonicalizesAcrossAllocations)
{
    support::DeterministicAllocScope alignScope;
    using Canon = std::vector<std::tuple<int, uint64_t, uint16_t,
                                         uint8_t>>;
    auto canonEvents = [](std::vector<uint8_t> &buf) {
        TraceSession s(2);
        s.run([&](ThreadCtx &ctx) {
            Rng local(7 + ctx.tid());
            for (int i = 0; i < 3000; ++i) {
                uint64_t a = local.below(buf.size() - 16);
                uint32_t sz = uint32_t(1 + local.below(12));
                if (local.chance(0.25))
                    ctx.store(&buf[a], sz);
                else
                    ctx.load(&buf[a], sz);
            }
        });
        s.normalizeAddresses();
        Canon out;
        s.forEachInterleaved([&](int tid, const MemEvent &e) {
            out.emplace_back(tid, e.addr, e.size, e.isWrite);
        });
        return out;
    };
    std::vector<uint8_t> a(1 << 14), b(1 << 14);
    EXPECT_TRUE(canonEvents(a) == canonEvents(b));
}

/**
 * A traced array shorter than a line still gets a page of its own
 * under the alignment scope. A plain 8-float vector is only
 * line-aligned there, and whether it shared a page with another
 * traced array depended on the heap's history: swaptions' forward
 * curve moved its data footprint between 3 and 2 pages.
 */
TEST(Trace, PageAlignedVectorOwnsAPageUnderTheScope)
{
    support::DeterministicAllocScope alignScope;
    for (size_t n : {size_t(1), size_t(8), size_t(100)}) {
        auto v = support::pageAlignedVector<float>(n);
        ASSERT_EQ(v.size(), n);
        EXPECT_EQ(uintptr_t(v.data()) % 4096, 0u) << n << " floats";
        for (float f : v)
            EXPECT_EQ(f, 0.0f);
    }
}

TEST(Trace, WideAccessSplitsIntoLinesPreservingFootprint)
{
    TraceSession s(1);
    std::vector<float> buf(64);
    s.run([&](ThreadCtx &ctx) { ctx.load(buf.data(), 256); });
    const auto ev = s.contexts()[0]->eventsCopy();
    // Record-time 64 B line splitting: the 256-byte load becomes 4
    // or 5 pieces (depending on alignment) that tile the original
    // range exactly, each confined to one line.
    ASSERT_GE(ev.size(), 4u);
    ASSERT_LE(ev.size(), 5u);
    uint64_t total = 0;
    uint64_t next = ev[0].addr;
    for (const auto &e : ev) {
        EXPECT_EQ(e.addr, next);
        EXPECT_LE(e.size, 64u);
        EXPECT_EQ(e.addr >> 6, (e.addr + e.size - 1) >> 6);
        EXPECT_EQ(e.isWrite, 0u);
        total += e.size;
        next = e.addr + e.size;
    }
    EXPECT_EQ(total, 256u);
    EXPECT_EQ(ev[0].addr, uint64_t(uintptr_t(buf.data())));
}
