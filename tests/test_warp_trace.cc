/**
 * @file
 * WarpTrace: the warp-instruction streams every timing simulation
 * and trace analysis reads. Each warp's decoded stream must equal the
 * WarpReplayer merge it was built from (op, space, mask, count, size
 * and the active lanes' addresses) for every registered GPU workload
 * at Tiny scale and for synthetic divergent and barrier kernels, at
 * warp sizes 32, 16, 7 and 1; the tallied TraceStats must equal
 * analyzeTrace; empty blocks, empty warps and partial last warps
 * round-trip.
 *
 * The decoder walks raw varint bytes, so the suite runs in the
 * asan-smoke lane.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/workload.hh"
#include "gpusim/kernel.hh"
#include "gpusim/recorder.hh"
#include "gpusim/replay.hh"
#include "gpusim/warptrace.hh"

using namespace rodinia;
using namespace rodinia::gpusim;

namespace {

constexpr int kWarpSizes[] = {32, 16, 7, 1};

LaunchConfig
launchOf(int grid, int block)
{
    LaunchConfig l;
    l.gridDim = grid;
    l.blockDim = block;
    return l;
}

/**
 * Every warp of @p trace decodes to exactly what a fresh WarpReplayer
 * merge of @p rec yields, and the trace's geometry is the recording's.
 */
::testing::AssertionResult
decodesAsReplayed(const KernelRecording &rec, const WarpTrace &trace)
{
    auto fail = [&](size_t b, int w, uint64_t i) {
        return ::testing::AssertionFailure()
               << "warp size " << trace.warpSize << ", block " << b
               << ", warp " << w << ", instruction " << i << ": ";
    };
    if (trace.blocks.size() != rec.blocks.size())
        return ::testing::AssertionFailure()
               << trace.blocks.size() << " blocks, recorded "
               << rec.blocks.size();
    for (size_t b = 0; b < rec.blocks.size(); ++b) {
        const BlockRecord &rb = rec.blocks[b];
        const WarpTrace::Block &tb = trace.blocks[b];
        if (tb.blockDim != rb.blockDim ||
            tb.sharedBytes != rb.sharedBytes ||
            tb.warps() != warpsPerBlock(rb.blockDim, trace.warpSize))
            return fail(b, -1, 0) << "geometry differs";
        for (int w = 0; w < tb.warps(); ++w) {
            WarpReplayer rep(rb, w * trace.warpSize, trace.warpSize);
            WarpTrace::Cursor cur = tb.warp(w);
            WarpInst want, got;
            uint64_t i = 0;
            for (; rep.next(want); ++i) {
                if (!cur.next(got))
                    return fail(b, w, i) << "stream ends early";
                if (got.op != want.op || got.space != want.space)
                    return fail(b, w, i) << "op/space differ";
                if (got.activeMask != want.activeMask)
                    return fail(b, w, i)
                           << "mask " << got.activeMask << ", replayed "
                           << want.activeMask;
                if (got.count != want.count || got.size != want.size)
                    return fail(b, w, i) << "count/size differ";
                // Only memory instructions carry addresses; the
                // recorder gives every other event address 0.
                bool mem = want.op == GOp::Load || want.op == GOp::Store;
                for (uint32_t m = want.activeMask; m; m &= m - 1) {
                    size_t l = size_t(__builtin_ctz(m));
                    uint64_t a = mem ? got.addrs[l] : 0;
                    if (a != want.addrs[l])
                        return fail(b, w, i)
                               << "lane " << l << " address " << a
                               << ", replayed " << want.addrs[l];
                }
            }
            if (!cur.done() || cur.next(got))
                return fail(b, w, i) << "stream runs past the replay";
        }
    }
    return ::testing::AssertionSuccess();
}

/** Build @p rec at every kWarpSizes entry and check each trace. */
void
expectRoundTrips(const KernelRecording &rec, const std::string &what)
{
    for (int ws : kWarpSizes) {
        WarpTrace trace(rec, ws);
        EXPECT_TRUE(decodesAsReplayed(rec, trace)) << what;
        EXPECT_EQ(trace.stats, analyzeTrace(rec, ws))
            << what << ", warp size " << ws;
    }
}

/**
 * Trip-count divergence under LoopIter keys, data-dependent branches
 * and scattered global, texture and constant loads over a partial
 * last warp.
 */
KernelRecording
divergentKernel()
{
    static std::vector<float> data(1 << 14, 1.0f);
    return recordKernel(launchOf(6, 45), [&](KernelCtx &ctx) {
        std::minstd_rand rng(unsigned(ctx.globalId()) * 7919u + 3u);
        int trips = 1 + ctx.globalId() % 5;
        float acc = 0.0f;
        for (int i = 0; i < trips; ++i) {
            LoopIter li(ctx, uint32_t(i));
            if (ctx.branch(rng() % 3 == 0)) {
                acc += ctx.ldg(&data[rng() % data.size()]);
                ctx.fp(3);
            } else {
                acc += ctx.ldt(&data[(size_t(ctx.globalId()) * 4 +
                                      size_t(i)) %
                                     data.size()]);
                ctx.alu(2);
            }
            acc += ctx.ldc(&data[size_t(i) % 64]);
        }
        ctx.stg(&data[size_t(ctx.globalId()) % data.size()], acc);
    });
}

/** Shared-memory producer/consumer phases between barriers, with a
 *  strided global prologue, over a partial last warp. */
KernelRecording
barrierKernel()
{
    static std::vector<int> data(1 << 12, 1);
    return recordKernel(launchOf(5, 72), [&](KernelCtx &ctx) {
        auto sh = ctx.shared<int>(size_t(ctx.blockDim()));
        int v = ctx.ldg(&data[size_t(ctx.globalId()) * 3 % data.size()]);
        for (int phase = 0; phase < 3; ++phase) {
            sh.put(ctx, size_t(ctx.tid()), v + phase);
            ctx.sync();
            v += sh.get(ctx, size_t((ctx.tid() * 5 + phase) %
                                    ctx.blockDim()));
            ctx.alu(1);
            ctx.sync();
        }
        ctx.stg(&data[size_t(ctx.globalId()) % data.size()], v);
    });
}

} // namespace

TEST(WarpTrace, EveryTinyWorkloadDecodesAsReplayed)
{
    core::registerAllWorkloads();
    int checked = 0;
    for (const auto &info : core::Registry::instance().all()) {
        auto wl = core::Registry::instance().create(info.name);
        for (int v = 1; v <= wl->gpuVersions(); ++v) {
            LaunchSequence seq = wl->runGpu(core::Scale::Tiny, v);
            std::string what = info.name + " v" + std::to_string(v);
            for (size_t l = 0; l < seq.launches.size(); ++l)
                for (int ws : kWarpSizes)
                    ASSERT_TRUE(decodesAsReplayed(
                        seq.launches[l],
                        WarpTrace(seq.launches[l], ws)))
                        << what << ", launch " << l;
            for (int ws : kWarpSizes)
                EXPECT_EQ(SequenceTrace(seq, ws).stats,
                          analyzeTrace(seq, ws))
                    << what << ", warp size " << ws;
            ++checked;
        }
    }
    EXPECT_GE(checked, 10) << "registry lost its GPU workloads";
}

TEST(WarpTrace, DivergentKernelDecodesAsReplayed)
{
    KernelRecording rec = divergentKernel();
    expectRoundTrips(rec, "divergent");
    // Divergence really happened: some instruction ran on part of a
    // full warp, so the mask changed mid-stream.
    TraceStats st = analyzeTrace(rec);
    EXPECT_LT(st.avgWarpOccupancy(), 28.0);
}

TEST(WarpTrace, BarrierKernelDecodesAsReplayed)
{
    KernelRecording rec = barrierKernel();
    ASSERT_GT(rec.blocks[0].sharedBytes, 0u);
    expectRoundTrips(rec, "barrier");
    EXPECT_GT(analyzeTrace(rec).memOps[size_t(Space::Shared)], 0u);
}

TEST(WarpTrace, EmptyBlocksEmptyWarpsAndPartialWarpsRoundTrip)
{
    // Odd blocks record nothing; in even blocks only threads 0-39 of
    // 45 work, so at warp size 7 the last warp (lanes 42-44) is empty
    // and at 32 the second warp is partial twice over: 13 lanes, 8 of
    // them with events.
    static std::vector<float> data(1024, 1.0f);
    KernelRecording rec =
        recordKernel(launchOf(4, 45), [&](KernelCtx &ctx) {
            if (ctx.blockIdx() % 2 || ctx.tid() >= 40)
                return;
            float v = ctx.ldg(&data[size_t(ctx.globalId()) % data.size()]);
            ctx.fp(2);
            ctx.stg(&data[size_t(ctx.tid())], v);
        });
    expectRoundTrips(rec, "empty blocks");
    for (int ws : kWarpSizes) {
        WarpTrace trace(rec, ws);
        const WarpTrace::Block &empty = trace.blocks[1];
        EXPECT_EQ(empty.warps(), warpsPerBlock(45, ws));
        EXPECT_EQ(empty.encodedBytes(), 0u);
        EXPECT_EQ(empty.allocatedBytes(), 4u * uint64_t(empty.warps()));
        for (int w = 0; w < empty.warps(); ++w)
            EXPECT_TRUE(empty.warp(w).done()) << "warp size " << ws;
        const WarpTrace::Block &busy = trace.blocks[0];
        EXPECT_GT(busy.encodedBytes(), 0u);
        EXPECT_FALSE(busy.warp(0).done());
        // The last warp holds lanes (warps - 1) * ws onwards: empty
        // exactly when all of them are past thread 39.
        bool lastIdle = (busy.warps() - 1) * ws >= 40;
        EXPECT_EQ(busy.warp(busy.warps() - 1).done(), lastIdle)
            << "warp size " << ws;
    }
}

TEST(WarpTrace, IsSmallerThanTheLanes)
{
    // One warp instruction replaces 32 lane events and their order
    // keys: the Tiny workloads' warp-32 traces come to well under a
    // quarter of the lanes' encoded bytes, and the exact allocation
    // holds the payload plus a word per warp.
    core::registerAllWorkloads();
    uint64_t laneBytes = 0, traceBytes = 0, traceAllocated = 0;
    for (const char *name : {"backprop", "hotspot", "kmeans", "srad"}) {
        LaunchSequence seq =
            core::Registry::instance().create(name)->runGpu(
                core::Scale::Tiny, 1);
        SequenceTrace trace(seq, 32);
        laneBytes += seq.encodedBytes();
        traceBytes += trace.encodedBytes();
        traceAllocated += trace.allocatedBytes();
    }
    EXPECT_LT(traceBytes * 4, laneBytes);
    EXPECT_LE(traceAllocated, traceBytes + traceBytes / 4 + 65536);
}
