/**
 * @file
 * Regression tests for the streaming trace representations: the
 * CPU-side delta-encoded columnar EventStream (trace/stream.hh), the
 * GPU-side LaneStream (gpusim/types.hh), record-time line splitting
 * of oversized accesses, the packPc line-overflow fold, and
 * interleaved replay order. Each compact stream must decode event
 * for event to the plain vector the test built for arbitrary inputs
 * — that equivalence is what lets the golden corpus pin paper
 * figures while traces are stored compactly.
 */

#include <gtest/gtest.h>

#include <source_location>
#include <string>
#include <vector>

#include "gpusim/types.hh"
#include "support/rng.hh"
#include "trace/stream.hh"
#include "trace/trace.hh"

using namespace rodinia;
using namespace rodinia::trace;

namespace {

std::vector<MemEvent>
randomEvents(uint64_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<MemEvent> out;
    out.reserve(size_t(n));
    uint64_t addr = 0x7f0000000000ull;
    for (uint64_t i = 0; i < n; ++i) {
        // Mix of strided walks and far jumps: exercises small
        // positive, negative, and multi-byte zigzag deltas.
        if (rng.chance(0.8))
            addr += 64 * (1 + rng.below(4));
        else
            addr = 0x7f0000000000ull + rng.below(1ull << 40);
        MemEvent e;
        e.addr = addr;
        e.size = uint16_t(1 + rng.below(64));
        e.isWrite = rng.chance(0.3) ? 1 : 0;
        out.push_back(e);
    }
    return out;
}

/** Decode @p s and compare every field with @p events. */
void
expectDecodes(const EventStream &s, const std::vector<MemEvent> &events)
{
    auto out = s.decodeAll();
    ASSERT_EQ(out.size(), events.size());
    for (size_t i = 0; i < events.size(); ++i) {
        ASSERT_EQ(out[i].addr, events[i].addr) << "event " << i;
        ASSERT_EQ(out[i].size, events[i].size) << "event " << i;
        ASSERT_EQ(out[i].isWrite, events[i].isWrite) << "event " << i;
    }
}

/**
 * A stream of @p n random events must decode to them in two
 * independent passes, and again after a transform round trip
 * re-encodes it twice.
 */
void
expectRoundTrips(uint64_t n, uint64_t seed)
{
    auto events = randomEvents(n, seed);
    EventStream s;
    for (const auto &e : events)
        s.append(e.addr, e.size, e.isWrite);
    ASSERT_EQ(s.size(), n);
    EXPECT_EQ(s.empty(), n == 0);
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE("decode pass " + std::to_string(pass));
        expectDecodes(s, events);
    }
    auto flip = [](MemEvent &e) { e.addr ^= 0xfff; };
    s.transform(flip);
    s.transform(flip);
    SCOPED_TRACE("after a transform round trip");
    ASSERT_EQ(s.size(), n);
    expectDecodes(s, events);
}

} // namespace

// ---------------------------------------------------------------
// EventStream: compact encoding vs the test-built event vector
// ---------------------------------------------------------------

TEST(EventStream, CompactDecodesIdenticalToMaterialized)
{
    // 3.5 chunks worth of events: covers sealed chunks, the open
    // tail, and the partial flag byte at a non-multiple-of-8 count.
    auto events = randomEvents(3 * EventStream::kChunkEvents + 1837,
                               0xE5E1);
    EventStream compact;
    for (const auto &e : events)
        compact.append(e.addr, e.size, e.isWrite);
    ASSERT_EQ(compact.size(), events.size());
    // The compact form must be dramatically smaller — that is the
    // point of streaming; a regression to per-event structs would
    // pass equivalence but fail this.
    EXPECT_LT(compact.encodedBytes(),
              events.size() * sizeof(MemEvent) / 3);

    expectDecodes(compact, events);
}

TEST(EventStream, IndependentCursorsDoNotInterfere)
{
    auto events = randomEvents(EventStream::kChunkEvents + 100, 7);
    EventStream s;
    for (const auto &e : events)
        s.append(e.addr, e.size, e.isWrite);
    EventStream::Cursor a(s), b(s);
    MemEvent ea, eb;
    // Advance a half way, then run b to completion, then finish a.
    for (size_t i = 0; i < events.size() / 2; ++i)
        ASSERT_TRUE(a.next(ea));
    size_t nb = 0;
    while (b.next(eb)) {
        EXPECT_EQ(eb.addr, events[nb].addr);
        ++nb;
    }
    EXPECT_EQ(nb, events.size());
    size_t na = events.size() / 2;
    while (a.next(ea)) {
        EXPECT_EQ(ea.addr, events[na].addr);
        ++na;
    }
    EXPECT_EQ(na, events.size());
}

TEST(EventStream, TransformRewritesAndStaysDecodable)
{
    auto events = randomEvents(2 * EventStream::kChunkEvents + 5, 11);
    EventStream s;
    for (const auto &e : events)
        s.append(e.addr, e.size, e.isWrite);
    s.transform([](MemEvent &e) { e.addr ^= 0xfff; });
    auto out = s.decodeAll();
    ASSERT_EQ(out.size(), events.size());
    for (size_t i = 0; i < events.size(); ++i)
        ASSERT_EQ(out[i].addr, events[i].addr ^ 0xfff) << i;
}

// ---------------------------------------------------------------
// EventStream: streams that end on, just before and just past a
// chunk seal
// ---------------------------------------------------------------

TEST(EventStream, EmptyStreamDecodesNothing)
{
    expectRoundTrips(0, 0xE0);
    EXPECT_EQ(EventStream().encodedBytes(), 0u);
}

TEST(EventStream, OneEventShortOfASealStaysOpen)
{
    // No chunk is sealed: the whole stream is the open chunk, with a
    // partial flag byte still in the accumulator.
    expectRoundTrips(EventStream::kChunkEvents - 1, 0xE1);
}

TEST(EventStream, StreamEndingExactlyOnASealHasNoOpenChunk)
{
    // The last chunk is sealed and no open chunk follows it: a
    // cursor must read that chunk's own count, not the (empty) open
    // tail's.
    expectRoundTrips(5 * EventStream::kChunkEvents, 0x5B1);
}

TEST(EventStream, OneEventPastASealOpensATailChunk)
{
    expectRoundTrips(5 * EventStream::kChunkEvents + 1, 0xE2);
}

// ---------------------------------------------------------------
// Record-time line splitting (the uint16_t truncation fix)
// ---------------------------------------------------------------

TEST(ThreadCtx, OversizedAccessSplitsWithoutTruncation)
{
    // A 200000-byte access does not fit the old uint16_t event size;
    // it used to truncate silently (200000 & 0xffff = 3392 — a 98%
    // footprint loss). Record-time splitting now tiles it into
    // line-sized pieces whose sizes sum exactly.
    const size_t big = 200000;
    std::vector<uint8_t> buf(big);
    TraceSession s(1);
    s.run([&](ThreadCtx &ctx) { ctx.store(buf.data(), big); });
    uint64_t total = 0;
    uint64_t events = 0;
    uint64_t prevEnd = 0;
    s.contexts()[0]->stream().forEach([&](const MemEvent &e) {
        EXPECT_LE(e.size, 64u);
        EXPECT_EQ(e.addr >> 6, (e.addr + e.size - 1) >> 6)
            << "piece straddles a line";
        if (events) {
            EXPECT_EQ(e.addr, prevEnd) << "pieces must tile";
        }
        prevEnd = e.addr + e.size;
        total += e.size;
        ++events;
        EXPECT_EQ(e.isWrite, 1u);
    });
    EXPECT_EQ(total, big);
    EXPECT_GE(events, big / 64);
    // The footprint the figures consume sees every page of the
    // original access.
    EXPECT_GE(s.dataFootprintPages(), (big / 4096) - 1);
}

// ---------------------------------------------------------------
// packPc: line-overflow folding (the clamp-aliasing fix)
// ---------------------------------------------------------------

// #line gives these call sites source lines past the 10-bit packPc
// field, exactly like instrumentation sites deep in a large file.
// Keep the three statements textually identical so the column
// component cancels out of the comparison.
// clang-format off
#line 1500
static const uint16_t kPcLine1500 = gpusim::packPc(std::source_location::current());
#line 2500
static const uint16_t kPcLine2500 = gpusim::packPc(std::source_location::current());
#line 100
static const uint16_t kPcLine100 = gpusim::packPc(std::source_location::current());
#line 272
// clang-format on

TEST(PackPc, LinesPastFieldWidthFoldInsteadOfColliding)
{
    // The old clamp mapped every line > 1023 to 1023, so these two
    // sites shared one PC and the replayer merged their order keys.
    EXPECT_NE(kPcLine1500, kPcLine2500);
    // Folding is a no-op for in-range lines: bits 6..15 hold the
    // line verbatim, so existing recordings hash identically.
    EXPECT_EQ(uint32_t(kPcLine100) >> 6, 100u);
    EXPECT_EQ(uint32_t(kPcLine1500) >> 6,
              (1500u ^ (1500u >> 10)) & 1023u);
}

// ---------------------------------------------------------------
// LaneStream: compact encoding vs the test-built event vector
// ---------------------------------------------------------------

TEST(LaneStream, CompactDecodesIdenticalToMaterialized)
{
    Rng rng(0x6A9E);
    std::vector<gpusim::GEvent> events;
    uint64_t addr = 0x10000000;
    for (int i = 0; i < 20000; ++i) {
        gpusim::GEvent e;
        // Keys move in the high bits (PC at 48-63) like real
        // recordings, plus occasional full-width jumps.
        e.key.hi = (uint64_t(1 + rng.below(1023)) << 48) |
                   (rng.chance(0.1) ? rng.below(1ull << 48) : 0);
        e.key.lo = rng.chance(0.2) ? rng.below(~0ull) : 0;
        e.op = gpusim::GOp(rng.below(6));
        if (e.op == gpusim::GOp::Load ||
            e.op == gpusim::GOp::Store) {
            e.space = gpusim::Space(1 + rng.below(6));
            addr += rng.chance(0.5) ? 4 : (0ull - 64);
            e.addr = addr;
            e.size = uint32_t(1 + rng.below(16));
        }
        if (rng.chance(0.1))
            e.count = uint32_t(1 + rng.below(1000));
        events.push_back(e);
    }

    gpusim::LaneStream compact;
    for (const auto &e : events)
        compact.append(e);
    EXPECT_EQ(compact.size(), events.size());
    EXPECT_LT(compact.encodedBytes(),
              events.size() * sizeof(gpusim::GEvent) / 3);

    auto dc = compact.decodeAll();
    ASSERT_EQ(dc.size(), events.size());
    for (size_t i = 0; i < events.size(); ++i) {
        ASSERT_TRUE(dc[i].key == events[i].key) << "event " << i;
        ASSERT_EQ(dc[i].addr, events[i].addr) << "event " << i;
        ASSERT_EQ(dc[i].size, events[i].size) << "event " << i;
        ASSERT_EQ(dc[i].count, events[i].count) << "event " << i;
        ASSERT_EQ(int(dc[i].op), int(events[i].op)) << "event " << i;
        ASSERT_EQ(int(dc[i].space), int(events[i].space))
            << "event " << i;
    }
}

TEST(LaneStream, ZeroAddrSizeEventRoundTrips)
{
    // addr == 0 && size == 0 drops the address column (hasAddr bit);
    // a Load with a real zero address but nonzero size must still
    // carry it.
    gpusim::LaneStream s;
    gpusim::GEvent a;
    a.op = gpusim::GOp::Load;
    a.space = gpusim::Space::Global;
    a.addr = 0;
    a.size = 4;
    s.append(a);
    gpusim::GEvent b; // pure ALU: no address
    s.append(b);
    auto out = s.decodeAll();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].addr, 0u);
    EXPECT_EQ(out[0].size, 4u);
    EXPECT_EQ(out[1].addr, 0u);
    EXPECT_EQ(out[1].size, 0u);
}

// ---------------------------------------------------------------
// SealedBlock: a finished block's lanes in one buffer
// ---------------------------------------------------------------

namespace {

/** Every field of every event, one lane at a time. */
void
expectSameEvents(const std::vector<gpusim::GEvent> &want,
                 gpusim::LaneStream::Cursor got, int lane)
{
    gpusim::GEvent e;
    for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(got.next(e)) << "lane " << lane << " ends at " << i;
        EXPECT_TRUE(e.key == want[i].key) << "lane " << lane << " #" << i;
        EXPECT_EQ(e.addr, want[i].addr) << "lane " << lane << " #" << i;
        EXPECT_EQ(e.size, want[i].size) << "lane " << lane << " #" << i;
        EXPECT_EQ(e.count, want[i].count) << "lane " << lane << " #" << i;
        EXPECT_EQ(int(e.op), int(want[i].op)) << "lane " << lane;
        EXPECT_EQ(int(e.space), int(want[i].space)) << "lane " << lane;
    }
    EXPECT_FALSE(got.next(e)) << "lane " << lane << " runs long";
}

/** Seal @p lanes and check every lane, the sizes and the index. */
void
expectSealsExactly(const std::vector<std::vector<gpusim::GEvent>> &lanes)
{
    std::vector<gpusim::LaneStream> builders(lanes.size());
    uint64_t encoded = 0;
    for (size_t l = 0; l < lanes.size(); ++l) {
        for (const auto &e : lanes[l])
            builders[l].append(e);
        encoded += builders[l].encodedBytes();
    }
    gpusim::BlockRecord block(builders, 96);
    ASSERT_EQ(block.blockDim, int(lanes.size()));
    EXPECT_EQ(block.sharedBytes, 96u);
    EXPECT_EQ(block.encodedBytes(), encoded);
    // Exactly sized: the 8-byte lane index plus the payload padded to
    // a whole 32-bit word.
    EXPECT_EQ(block.allocatedBytes(),
              8 * lanes.size() + (encoded + 3) / 4 * 4);
    for (size_t l = 0; l < lanes.size(); ++l) {
        EXPECT_EQ(block.laneEvents(int(l)), lanes[l].size());
        expectSameEvents(lanes[l], block.lane(int(l)), int(l));
    }
    // Sealing copies: the builders can be reused without touching
    // the sealed bytes.
    for (auto &b : builders)
        b.clear();
    for (size_t l = 0; l < lanes.size(); ++l)
        expectSameEvents(lanes[l], block.lane(int(l)), int(l));
}

gpusim::GEvent
alu(uint16_t pc, uint32_t count = 1)
{
    gpusim::GEvent e;
    e.key.hi = uint64_t(pc) << 48;
    e.op = gpusim::GOp::FpAlu;
    e.count = count;
    return e;
}

gpusim::GEvent
load(uint16_t pc, uint64_t addr, uint32_t size)
{
    gpusim::GEvent e;
    e.key.hi = uint64_t(pc) << 48;
    e.op = gpusim::GOp::Load;
    e.space = gpusim::Space::Global;
    e.addr = addr;
    e.size = size;
    return e;
}

} // namespace

TEST(SealedBlock, EveryLaneDecodesExactlyWhatItsBuilderGot)
{
    // Empty lanes first, between and last; lanes with and without
    // addresses and repeat counts; a zero address with a size; a
    // backwards address delta; a wide order-key jump.
    gpusim::GEvent jump = alu(7);
    jump.key.lo = 0x0123456789abcdefull;
    std::vector<std::vector<gpusim::GEvent>> lanes = {
        {},
        {alu(1), alu(2, 1000), load(3, 0x1000, 4), load(3, 0x800, 8)},
        {},
        {load(4, 0, 4), alu(5)},
        {alu(6, 0xffffffffu), jump},
        {},
    };
    expectSealsExactly(lanes);

    // A random lane mix, as a workload's block would record it.
    Rng rng(0x5EA1);
    std::vector<std::vector<gpusim::GEvent>> mixed(37);
    for (auto &lane : mixed) {
        size_t n = rng.chance(0.2) ? 0 : size_t(rng.below(300));
        uint64_t addr = 0x40000000 + rng.below(1 << 20);
        for (size_t i = 0; i < n; ++i) {
            uint16_t pc = uint16_t(1 + rng.below(500));
            if (rng.chance(0.5)) {
                addr += rng.chance(0.7) ? 4 : 0ull - 256;
                lane.push_back(load(pc, addr, uint32_t(1 + rng.below(16))));
            } else {
                lane.push_back(alu(pc, rng.chance(0.2)
                                           ? uint32_t(2 + rng.below(99))
                                           : 1));
            }
        }
    }
    expectSealsExactly(mixed);
}

TEST(SealedBlock, OneThreadAndAllEmptyBlocks)
{
    expectSealsExactly({{load(1, 0x2000, 4), alu(2, 3), alu(3)}});
    expectSealsExactly({{}});
    expectSealsExactly({{}, {}, {}});

    gpusim::BlockRecord none;
    EXPECT_EQ(none.blockDim, 0);
    EXPECT_EQ(none.encodedBytes(), 0u);
    EXPECT_EQ(none.allocatedBytes(), 0u);
}

// ---------------------------------------------------------------
// Interleaved replay order (the live-cursor compaction rewrite)
// ---------------------------------------------------------------

TEST(TraceSession, InterleaveMatchesRoundRobinReference)
{
    // Ragged thread lengths with one thread crossing a chunk
    // boundary: the compacted live-set walk must still produce the
    // exact round-robin-with-dropout order of the reference.
    const int nt = 5;
    std::vector<size_t> lens = {3, 0, EventStream::kChunkEvents + 7,
                                1, 250};
    TraceSession s(nt);
    std::vector<uint8_t> buf(1 << 16);
    s.run([&](ThreadCtx &ctx) {
        for (size_t i = 0; i < lens[size_t(ctx.tid())]; ++i)
            ctx.load(&buf[(size_t(ctx.tid()) * 8191 + i * 7) %
                          (buf.size() - 8)],
                     4);
    });

    // Reference: per-thread copies walked round-robin.
    std::vector<std::vector<MemEvent>> per;
    for (int t = 0; t < nt; ++t)
        per.push_back(s.contexts()[size_t(t)]->eventsCopy());
    std::vector<std::pair<int, uint64_t>> expected;
    std::vector<size_t> idx(nt, 0);
    bool any = true;
    while (any) {
        any = false;
        for (int t = 0; t < nt; ++t) {
            if (idx[size_t(t)] < per[size_t(t)].size()) {
                expected.emplace_back(
                    t, per[size_t(t)][idx[size_t(t)]++].addr);
                any = true;
            }
        }
    }

    std::vector<std::pair<int, uint64_t>> got;
    s.forEachInterleaved([&](int tid, const MemEvent &e) {
        got.emplace_back(tid, e.addr);
    });
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].first, expected[i].first) << "slot " << i;
        ASSERT_EQ(got[i].second, expected[i].second) << "slot " << i;
    }
}
