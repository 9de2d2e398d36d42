/**
 * @file
 * Unit and property tests for the SIMT GPU simulator: recorder,
 * warp replay (divergence/reconvergence), and the timing model.
 */

#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/recorder.hh"
#include "gpusim/replay.hh"
#include "gpusim/simplecache.hh"
#include "gpusim/timing.hh"

using namespace rodinia;
using namespace rodinia::gpusim;

namespace {

LaunchConfig
launchOf(int grid, int block)
{
    LaunchConfig l;
    l.gridDim = grid;
    l.blockDim = block;
    return l;
}

} // namespace

TEST(SimpleCache, HitAfterMiss)
{
    SimpleCache c(1024, 4, 64);
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x104));
}

TEST(SimpleCache, EvictsLeastRecentlyUsed)
{
    SimpleCache c(256, 4, 64); // one set of 4 ways
    for (uint64_t i = 0; i < 4; ++i)
        c.access(i * 64);
    c.access(0);      // refresh line 0
    c.access(4 * 64); // evict line 1
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(64));
}

TEST(Recorder, RecordsPerLaneEvents)
{
    std::vector<float> data(64, 1.0f);
    auto rec = recordKernel(launchOf(1, 32), [&](KernelCtx &ctx) {
        ctx.ldg(&data[ctx.tid()]);
        ctx.fp(2);
        ctx.stg(&data[ctx.tid()], 0.0f);
    });
    ASSERT_EQ(rec.blocks.size(), 1u);
    ASSERT_EQ(rec.blocks[0].blockDim, 32);
    for (int l = 0; l < 32; ++l)
        EXPECT_EQ(rec.blocks[0].laneEvents(l), 3u);
    EXPECT_EQ(rec.threadInstructions(), 32u * 4); // fp(2) counts as 2
}

TEST(Recorder, SharedMemoryCommunicatesAcrossBarrier)
{
    // Classic reverse-through-shared: thread t writes slot t, reads
    // slot (n-1-t) after the barrier. Fails unless barriers really
    // order the phases.
    const int n = 64;
    std::vector<int> out(n, -1);
    recordKernel(launchOf(1, n), [&](KernelCtx &ctx) {
        auto sh = ctx.shared<int>(n);
        sh.put(ctx, ctx.tid(), ctx.tid() * 10);
        ctx.sync();
        out[ctx.tid()] = sh.get(ctx, n - 1 - ctx.tid());
    });
    for (int t = 0; t < n; ++t)
        EXPECT_EQ(out[t], (n - 1 - t) * 10);
}

TEST(Recorder, MultiPhaseProducerConsumer)
{
    // Iterated neighbor passing: value must travel one slot per
    // barrier phase.
    const int n = 16;
    std::vector<int> out(n, 0);
    recordKernel(launchOf(1, n), [&](KernelCtx &ctx) {
        auto sh = ctx.shared<int>(n);
        sh.put(ctx, ctx.tid(), ctx.tid());
        ctx.sync();
        for (int step = 0; step < 3; ++step) {
            gpusim::LoopIter li(ctx, step);
            int v = sh.get(ctx, (ctx.tid() + 1) % n);
            ctx.sync();
            sh.put(ctx, ctx.tid(), v);
            ctx.sync();
        }
        out[ctx.tid()] = sh.get(ctx, ctx.tid());
    });
    for (int t = 0; t < n; ++t)
        EXPECT_EQ(out[t], (t + 3) % n);
}

TEST(Recorder, SharedBytesTracked)
{
    auto rec = recordKernel(launchOf(2, 8), [&](KernelCtx &ctx) {
        auto a = ctx.shared<float>(128);
        auto b = ctx.shared<double>(16);
        a.put(ctx, 0, 1.0f);
        (void)b;
    });
    EXPECT_GE(rec.blocks[0].sharedBytes, 128 * 4 + 16 * 8);
}

TEST(Recorder, AluEventsMerge)
{
    auto rec = recordKernel(launchOf(1, 1), [&](KernelCtx &ctx) {
        for (int i = 0; i < 100; ++i)
            ctx.fp(1); // same site, same key: must merge
    });
    ASSERT_EQ(rec.blocks[0].laneEvents(0), 1u);
    GEvent e;
    ASSERT_TRUE(rec.blocks[0].lane(0).next(e));
    EXPECT_EQ(e.count, 100u);
}

namespace {

/**
 * 12 integer and 12 double recurrences over @p syncs barriers, each
 * seeded and stepped by thread id @p g so that no value (not even
 * the loop counter) is the same in two threads, and none folds into
 * a closed form: all of them are live across every barrier. Returns
 * a digest of the final values.
 */
template <typename Sync>
uint64_t
barrierRecurrences(uint64_t g, int syncs, Sync &&sync)
{
    uint64_t i0 = g, i1 = g + 1, i2 = g * 2, i3 = g * 3, i4 = g ^ 5,
             i5 = g + 77, i6 = ~g, i7 = g * g, i8 = g << 4, i9 = g - 9,
             i10 = g * 11, i11 = g | 64;
    double d0 = double(g) * 0.5, d1 = double(g) + 0.25,
           d2 = double(g) * 2.0, d3 = -double(g), d4 = 1e6 + double(g),
           d5 = double(g) / 4.0, d6 = double(g) * double(g),
           d7 = double(g) - 0.75, d8 = double(g) * 8.0,
           d9 = 3.0 - double(g), d10 = double(g) + 1e-3,
           d11 = double(g) * 0.125;
    for (uint64_t k = g * 1000; k < g * 1000 + uint64_t(syncs); ++k) {
        sync();
        i0 = i0 * 3 + k, i1 = (i1 ^ k) * 5, i2 = i2 * 7 + i0;
        i3 = (i3 ^ i1) * 9, i4 = i4 * 11 + k, i5 = (i5 ^ i2) * 13;
        i6 = i6 * 15 + i3, i7 = (i7 ^ k) * 17, i8 = i8 * 19 + i4;
        i9 = (i9 ^ i5) * 21, i10 = i10 * 23 + i6, i11 = (i11 ^ i7) * 25;
        d0 = d0 * 0.5 + double(k), d1 = d1 * 0.75 + d0;
        d2 = d2 * 0.25 - double(k), d3 = d3 * 0.5 + d1;
        d4 = d4 * 0.125 + double(i0 & 255), d5 = d5 * 0.5 - d2;
        d6 = d6 * 0.75 + d3, d7 = d7 * 0.5 + double(k & 7);
        d8 = d8 * 0.25 + d4, d9 = d9 * 0.5 - d5, d10 = d10 * 0.75 + d6;
        d11 = d11 * 0.5 + d7;
    }
    const uint64_t ints[] = {i0, i1, i2, i3, i4,  i5,
                             i6, i7, i8, i9, i10, i11};
    const double dbls[] = {d0, d1, d2, d3, d4,  d5,
                           d6, d7, d8, d9, d10, d11};
    uint64_t h = 0;
    for (uint64_t v : ints)
        h = (h ^ v) * 0x100000001b3ull;
    for (double v : dbls) {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        h = (h ^ bits) * 0x100000001b3ull;
    }
    return h;
}

} // namespace

TEST(Recorder, LocalsSurviveManyBarriers)
{
    // More live values than the callee-saved registers hold, so some
    // sit in registers and the rest in the fiber's stack frame, and
    // the block's other threads run between every pair of barriers:
    // each thread must get exactly its own values back.
    const int grid = 2, block = 8, syncs = 64;
    std::vector<uint64_t> got(grid * block, 0);
    recordKernel(launchOf(grid, block), [&](KernelCtx &ctx) {
        const uint64_t g = uint64_t(ctx.globalId());
        got[g] = barrierRecurrences(g, syncs, [&] { ctx.sync(); });
    });
    for (int g = 0; g < grid * block; ++g)
        EXPECT_EQ(got[g], barrierRecurrences(uint64_t(g), syncs, [] {}))
            << "thread " << g;
}

TEST(Recorder, RoundingModeIsPerThread)
{
    // Thread 1 rounds upward across a barrier; the rest keep the
    // default. The x87 control word (fegetround) and MXCSR (an SSE
    // division) both belong to the fiber, and neither leaks into the
    // caller.
    const int n = 4;
    std::vector<int> before(n), after(n);
    std::vector<double> third(n);
    volatile double one = 1.0, three = 3.0;
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    recordKernel(launchOf(1, n), [&](KernelCtx &ctx) {
        const int t = ctx.tid();
        if (t == 1)
            std::fesetround(FE_UPWARD);
        before[t] = std::fegetround();
        ctx.sync();
        after[t] = std::fegetround();
        third[t] = one / three;
    });
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    for (int t = 0; t < n; ++t) {
        int want = t == 1 ? FE_UPWARD : FE_TONEAREST;
        EXPECT_EQ(before[t], want) << "thread " << t;
        EXPECT_EQ(after[t], want) << "thread " << t;
    }
    // 1/3 rounds down to nearest, so upward gives the next double.
    EXPECT_EQ(third[0], 1.0 / 3.0);
    EXPECT_EQ(third[1], std::nextafter(third[0], 1.0));
    EXPECT_EQ(third[2], third[0]);
    EXPECT_EQ(third[3], third[0]);
}

TEST(Recorder, SwitchesTwicePerThreadAndBarrierWait)
{
    // Block b waits at 1 + b barriers; the recorder switches into and
    // out of every thread once, and out and back in at every wait.
    const int grid = 3, block = 24;
    uint64_t before = fiberSwitches();
    auto rec = recordKernel(launchOf(grid, block), [&](KernelCtx &ctx) {
        for (int k = 0; k <= ctx.blockIdx(); ++k) {
            ctx.alu(1);
            ctx.sync();
        }
    });
    uint64_t switches = fiberSwitches() - before;
    uint64_t syncs = 0;
    GEvent e;
    for (const auto &b : rec.blocks)
        for (int l = 0; l < b.blockDim; ++l)
            for (LaneStream::Cursor c = b.lane(l); c.next(e);)
                syncs += e.op == GOp::Sync;
    EXPECT_EQ(syncs, uint64_t(block) * (1 + 2 + 3));
    EXPECT_EQ(switches, 2 * (uint64_t(grid) * block + syncs));
}

namespace {

/** Per-thread counts of RAII locals made and destroyed in a launch
 *  where block 1's thread 3 throws after @p syncsBeforeThrow barriers. */
struct ThrowRun
{
    std::vector<int> made, destroyed;
    std::string error;
};

ThrowRun
recordWithThrow(int grid, int block, int syncsBeforeThrow)
{
    struct Local
    {
        int &count;
        ~Local() { ++count; }
    };
    ThrowRun r;
    r.made.assign(grid * block, 0);
    r.destroyed.assign(grid * block, 0);
    try {
        recordKernel(launchOf(grid, block), [&](KernelCtx &ctx) {
            const int g = ctx.globalId();
            ++r.made[g];
            Local local{r.destroyed[g]};
            for (int k = 0; k < syncsBeforeThrow; ++k)
                ctx.sync();
            if (ctx.blockIdx() == 1 && ctx.tid() == 3)
                throw std::runtime_error("thread 3 failed");
            ctx.sync();
        });
    } catch (const std::runtime_error &e) {
        r.error = e.what();
    }
    return r;
}

} // namespace

TEST(Recorder, ThrowingThreadUnwindsTheBlock)
{
    // Block 0 completes; in block 1, thread 3 throws after the first
    // barrier. By then threads 0-2 of block 1 wait at the second
    // barrier and threads 4-7 still at the first: all of them are
    // unwound, so every thread's RAII local is destroyed exactly
    // once, block 2 never starts, and the error reaches the caller.
    const int grid = 3, n = 8;
    ThrowRun r = recordWithThrow(grid, n, 1);
    EXPECT_EQ(r.error, "thread 3 failed");
    for (int g = 0; g < grid * n; ++g) {
        int want = g < 2 * n ? 1 : 0;
        EXPECT_EQ(r.made[g], want) << "thread " << g;
        EXPECT_EQ(r.destroyed[g], want) << "thread " << g;
    }

    // Thrown before any barrier: threads 4-7 of block 1 never start
    // (their fibers stay parked from block 0) and are not run.
    r = recordWithThrow(grid, n, 0);
    EXPECT_EQ(r.error, "thread 3 failed");
    for (int g = 0; g < grid * n; ++g) {
        int want = g < n + 4 ? 1 : 0;
        EXPECT_EQ(r.made[g], want) << "thread " << g;
        EXPECT_EQ(r.destroyed[g], want) << "thread " << g;
    }

    // The recorder is usable again on the same thread.
    auto rec = recordKernel(launchOf(1, n), [&](KernelCtx &ctx) {
        ctx.sync();
        ctx.fp(1);
    });
    EXPECT_EQ(rec.threadInstructions(), uint64_t(n) * 2);
}

TEST(Replay, UniformKernelFullyOccupied)
{
    std::vector<float> data(32, 0.0f);
    auto rec = recordKernel(launchOf(1, 32), [&](KernelCtx &ctx) {
        ctx.ldg(&data[ctx.tid()]);
        ctx.fp(3);
        ctx.stg(&data[ctx.tid()], 1.0f);
    });
    auto stats = analyzeTrace(rec);
    auto frac = stats.occupancyFractions();
    EXPECT_DOUBLE_EQ(frac[3], 1.0); // all warp insts 25-32 active
    EXPECT_DOUBLE_EQ(stats.avgWarpOccupancy(), 32.0);
}

TEST(Replay, BranchDivergenceSplitsWarp)
{
    auto rec = recordKernel(launchOf(1, 32), [&](KernelCtx &ctx) {
        if (ctx.branch(ctx.tid() < 8))
            ctx.fp(10);
        else
            ctx.alu(10);
        ctx.fp(1); // reconverged
    });
    ASSERT_EQ(rec.blocks.size(), 1u);
    WarpReplayer rep(rec.blocks[0], 0, 32);
    WarpInst inst;
    // 1: branch, full warp.
    ASSERT_TRUE(rep.next(inst));
    EXPECT_EQ(inst.op, GOp::Branch);
    EXPECT_EQ(inst.activeLanes(), 32);
    // 2: then-path, 8 lanes.
    ASSERT_TRUE(rep.next(inst));
    EXPECT_EQ(inst.activeLanes(), 8);
    EXPECT_EQ(inst.op, GOp::FpAlu);
    // 3: else-path, 24 lanes.
    ASSERT_TRUE(rep.next(inst));
    EXPECT_EQ(inst.activeLanes(), 24);
    EXPECT_EQ(inst.op, GOp::IntAlu);
    // 4: reconverged, 32 lanes.
    ASSERT_TRUE(rep.next(inst));
    EXPECT_EQ(inst.activeLanes(), 32);
    EXPECT_FALSE(rep.next(inst));
}

TEST(Replay, LoopTripCountDivergence)
{
    // Lane t iterates t+1 times; with LoopIter the replayer must not
    // merge different iterations, so occupancy decays.
    auto rec = recordKernel(launchOf(1, 32), [&](KernelCtx &ctx) {
        for (int i = 0; i <= ctx.tid(); ++i) {
            LoopIter li(ctx, i);
            ctx.fp(1);
        }
    });
    WarpReplayer rep(rec.blocks[0], 0, 32);
    WarpInst inst;
    int step = 0;
    while (rep.next(inst)) {
        // Iteration i has 32 - i active lanes.
        EXPECT_EQ(inst.activeLanes(), 32 - step);
        ++step;
    }
    EXPECT_EQ(step, 32);
}

TEST(Replay, PartialLastWarp)
{
    auto rec = recordKernel(launchOf(1, 40), [&](KernelCtx &ctx) {
        ctx.fp(1);
    });
    auto stats = analyzeTrace(rec);
    // Warp 0 fully occupied; warp 1 has 8 lanes.
    EXPECT_EQ(stats.occupancyBuckets[3], 1u);
    EXPECT_EQ(stats.occupancyBuckets[0], 1u);
}

TEST(Replay, MemOpsBrokenDownBySpace)
{
    std::vector<float> g(32), t(32);
    float c = 1.0f;
    auto rec = recordKernel(launchOf(1, 32), [&](KernelCtx &ctx) {
        auto sh = ctx.shared<float>(32);
        ctx.ldg(&g[ctx.tid()]);
        ctx.ldt(&t[ctx.tid()]);
        ctx.ldc(&c);
        ctx.ldp(&c);
        sh.put(ctx, ctx.tid(), 0.0f);
    });
    auto stats = analyzeTrace(rec);
    EXPECT_EQ(stats.memOps[size_t(Space::Global)], 32u);
    EXPECT_EQ(stats.memOps[size_t(Space::Tex)], 32u);
    EXPECT_EQ(stats.memOps[size_t(Space::Const)], 32u);
    EXPECT_EQ(stats.memOps[size_t(Space::Param)], 32u);
    EXPECT_EQ(stats.memOps[size_t(Space::Shared)], 32u);
}

namespace {

/** A compute-heavy kernel: every thread does `n` FP instructions. */
KernelRecording
computeKernel(int grid, int block, int n)
{
    return recordKernel(launchOf(grid, block), [&](KernelCtx &ctx) {
        for (int i = 0; i < n; ++i)
            ctx.fp(1);
    });
}

/** A streaming kernel reading one float per thread per rep. */
KernelRecording
streamKernel(std::vector<float> &data, int grid, int block, int reps)
{
    return recordKernel(launchOf(grid, block), [&](KernelCtx &ctx) {
        for (int r = 0; r < reps; ++r) {
            LoopIter li(ctx, r);
            int i = (r * grid * block + ctx.globalId()) %
                    int(data.size());
            ctx.ldg(&data[i]);
            ctx.fp(1);
        }
    });
}

} // namespace

TEST(Timing, IpcBoundedByMachineWidth)
{
    auto rec = computeKernel(64, 256, 64);
    SimConfig cfg = SimConfig::gpgpusimDefault();
    TimingSim sim(cfg);
    auto st = sim.simulate(rec);
    EXPECT_GT(st.ipc(), 0.0);
    EXPECT_LE(st.ipc(), double(cfg.numSms) * cfg.warpSize + 1e-9);
    EXPECT_EQ(st.threadInstructions, rec.threadInstructions());
}

TEST(Timing, ComputeKernelScalesWithShaders)
{
    auto rec = computeKernel(112, 256, 128);
    auto st28 = TimingSim(SimConfig::shaders(28)).simulate(rec);
    auto st8 = TimingSim(SimConfig::shaders(8)).simulate(rec);
    // Abundant parallelism: 28 shaders should be ~3.5x faster.
    double speedup = double(st8.cycles) / double(st28.cycles);
    EXPECT_GT(speedup, 2.5);
    EXPECT_LT(speedup, 4.0);
}

TEST(Timing, BandwidthBoundKernelGainsFromChannels)
{
    std::vector<float> data(1 << 20);
    auto rec = streamKernel(data, 64, 256, 16);
    SimConfig c4 = SimConfig::gpgpusimDefault();
    c4.numChannels = 4;
    SimConfig c8 = SimConfig::gpgpusimDefault();
    c8.numChannels = 8;
    auto s4 = TimingSim(c4).simulate(rec);
    auto s8 = TimingSim(c8).simulate(rec);
    EXPECT_LT(s8.cycles, s4.cycles);
    // High utilization on the starved configuration.
    EXPECT_GT(s4.bwUtilization(), 0.5);
}

TEST(Timing, ComputeKernelInsensitiveToChannels)
{
    auto rec = computeKernel(64, 256, 128);
    SimConfig c4 = SimConfig::gpgpusimDefault();
    c4.numChannels = 4;
    SimConfig c8 = SimConfig::gpgpusimDefault();
    c8.numChannels = 8;
    auto s4 = TimingSim(c4).simulate(rec);
    auto s8 = TimingSim(c8).simulate(rec);
    EXPECT_NEAR(double(s8.cycles) / double(s4.cycles), 1.0, 0.05);
}

TEST(Timing, CoalescedBeatsScattered)
{
    std::vector<float> data(1 << 20);
    // Coalesced: lane l reads consecutive addresses.
    auto coalesced =
        recordKernel(launchOf(64, 256), [&](KernelCtx &ctx) {
            for (int r = 0; r < 8; ++r) {
                LoopIter li(ctx, r);
                ctx.ldg(&data[(r * 16384 + ctx.globalId()) %
                              int(data.size())]);
            }
        });
    // Scattered: lane l reads stride-64 addresses (one transaction
    // per lane).
    auto scattered =
        recordKernel(launchOf(64, 256), [&](KernelCtx &ctx) {
            for (int r = 0; r < 8; ++r) {
                LoopIter li(ctx, r);
                ctx.ldg(&data[(size_t(ctx.globalId()) * 64 + r * 7) %
                              data.size()]);
            }
        });
    TimingSim sim(SimConfig::gpgpusimDefault());
    auto sc = sim.simulate(coalesced);
    auto ss = sim.simulate(scattered);
    EXPECT_LT(sc.dramTransactions, ss.dramTransactions);
    EXPECT_LT(sc.cycles, ss.cycles);
}

TEST(Timing, BankConflictsSerializeSharedAccess)
{
    auto conflictKernel = recordKernel(
        launchOf(28, 256), [&](KernelCtx &ctx) {
            auto sh = ctx.shared<float>(256 * 16);
            for (int r = 0; r < 32; ++r) {
                LoopIter li(ctx, r);
                // Stride-16 words: every lane hits the same bank.
                sh.put(ctx, size_t(ctx.tid()) * 16, float(r));
            }
        });
    SimConfig on = SimConfig::gpgpusimDefault();
    on.bankConflictsEnabled = true;
    SimConfig off = on;
    off.bankConflictsEnabled = false;
    auto son = TimingSim(on).simulate(conflictKernel);
    auto soff = TimingSim(off).simulate(conflictKernel);
    EXPECT_GT(son.bankConflictExtraCycles, 0u);
    EXPECT_GT(son.cycles, soff.cycles);
}

TEST(Timing, FermiL1HelpsRereadKernels)
{
    // Each thread re-reads a small per-block working set many times:
    // cacheable in L1, thrashing DRAM without it.
    std::vector<float> data(1 << 18);
    auto rec = recordKernel(launchOf(30, 128), [&](KernelCtx &ctx) {
        for (int r = 0; r < 16; ++r) {
            LoopIter li(ctx, r);
            int base = ctx.blockIdx() * 1024;
            ctx.ldg(&data[(base + (ctx.tid() * 7 + r * 13) % 1024) %
                          int(data.size())]);
        }
    });
    auto l1bias = TimingSim(SimConfig::gtx480(true)).simulate(rec);
    auto nocache = TimingSim(SimConfig::gtx280()).simulate(rec);
    EXPECT_GT(l1bias.l1Hits, 0u);
    EXPECT_LT(l1bias.dramTransactions, nocache.dramTransactions);
}

TEST(Timing, BarrierKernelCompletes)
{
    // Many barriers with uneven work: must terminate (no deadlock)
    // and produce correct data.
    const int n = 128;
    std::vector<int> out(n, 0);
    auto rec = recordKernel(launchOf(4, n), [&](KernelCtx &ctx) {
        auto sh = ctx.shared<int>(n);
        sh.put(ctx, ctx.tid(), ctx.tid());
        ctx.sync();
        for (int step = 1; step < n; step *= 2) {
            LoopIter li(ctx, uint32_t(step));
            int v = 0;
            if (ctx.branch(ctx.tid() + step < n))
                v = sh.get(ctx, ctx.tid() + step);
            ctx.sync();
            if (ctx.branch(ctx.tid() + step < n)) {
                int mine = sh.get(ctx, ctx.tid());
                sh.put(ctx, ctx.tid(), mine + v);
            }
            ctx.sync();
        }
        if (ctx.branch(ctx.tid() == 0))
            out[ctx.blockIdx()] = sh.get(ctx, 0);
    });
    // Block-level sum of 0..n-1.
    for (int b = 0; b < 4; ++b)
        EXPECT_EQ(out[b], n * (n - 1) / 2);

    auto st = TimingSim(SimConfig::gpgpusimDefault()).simulate(rec);
    EXPECT_GT(st.cycles, 0u);
    // Committed instructions include the implicit address
    // arithmetic around memory operations.
    EXPECT_GE(st.threadInstructions, rec.threadInstructions());
}

TEST(Timing, DeterministicAcrossRuns)
{
    std::vector<float> data(1 << 16);
    auto rec = streamKernel(data, 16, 128, 8);
    TimingSim sim(SimConfig::gpgpusimDefault());
    auto a = sim.simulate(rec);
    auto b = sim.simulate(rec);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramTransactions, b.dramTransactions);
}

TEST(Timing, LaunchSequenceAddsOverhead)
{
    auto r1 = computeKernel(8, 64, 16);
    LaunchSequence seq;
    seq.add(computeKernel(8, 64, 16));
    seq.add(computeKernel(8, 64, 16));
    TimingSim sim(SimConfig::gpgpusimDefault());
    auto single = sim.simulate(r1);
    auto both = sim.simulate(seq);
    EXPECT_GT(both.cycles, 2 * single.cycles);
    EXPECT_EQ(both.threadInstructions, 2 * single.threadInstructions);
}

TEST(Timing, SimdWidthMattersForCompute)
{
    auto rec = computeKernel(56, 256, 64);
    SimConfig wide = SimConfig::gpgpusimDefault();
    wide.simdWidth = 32;
    SimConfig narrow = SimConfig::gpgpusimDefault();
    narrow.simdWidth = 16;
    auto sw = TimingSim(wide).simulate(rec);
    auto sn = TimingSim(narrow).simulate(rec);
    // Half the SIMD width => roughly double the cycles.
    double ratio = double(sn.cycles) / double(sw.cycles);
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 2.4);
}

TEST(Timing, CtaLimitsReduceLatencyHiding)
{
    // A latency-bound kernel: few dependent scattered loads per
    // thread, light bandwidth demand. With 28 kB of shared memory
    // per block only one CTA fits per SM (2 warps), so load latency
    // cannot be hidden and execution must slow down clearly compared
    // to the 256-float variant (8 CTAs, 16 warps).
    std::vector<float> data(1 << 22);
    auto makeRec = [&](size_t sharedFloats) {
        return recordKernel(launchOf(32, 64), [&](KernelCtx &ctx) {
            auto sh = ctx.shared<float>(sharedFloats);
            sh.put(ctx, ctx.tid() % sharedFloats, 1.0f);
            for (int r = 0; r < 16; ++r) {
                LoopIter li(ctx, r);
                size_t idx = (size_t(ctx.globalId()) * 4099 +
                              size_t(r) * 65537) %
                             data.size();
                ctx.ldg(&data[idx]);
                ctx.fp(4);
            }
        });
    };
    auto small = makeRec(256);
    auto big = makeRec(7000); // ~28 kB: one CTA per SM
    SimConfig cfg = SimConfig::shaders(4);
    auto ssmall = TimingSim(cfg).simulate(small);
    auto sbig = TimingSim(cfg).simulate(big);
    EXPECT_GT(double(sbig.cycles), 1.2 * double(ssmall.cycles));
}

// ---------------------------------------------------------------
// SimConfig validation and fingerprinting
// ---------------------------------------------------------------

TEST(SimConfigDeath, RejectsDegenerateGeometry)
{
    SimConfig zero_sms;
    zero_sms.numSms = 0;
    EXPECT_DEATH(zero_sms.validate(), "numSms");

    SimConfig zero_channels;
    zero_channels.numChannels = 0;
    EXPECT_DEATH(zero_channels.validate(), "numChannels");

    SimConfig zero_warp;
    zero_warp.warpSize = 0;
    EXPECT_DEATH(zero_warp.validate(), "warpSize");

    SimConfig ragged_issue;
    ragged_issue.simdWidth = 24; // 32 % 24 != 0
    EXPECT_DEATH(ragged_issue.validate(), "multiple of simdWidth");

    SimConfig odd_coalesce;
    odd_coalesce.coalesceBytes = 48;
    EXPECT_DEATH(odd_coalesce.validate(), "coalesceBytes");

    SimConfig odd_l1_line = SimConfig::gtx480(true);
    odd_l1_line.l1LineBytes = 96;
    EXPECT_DEATH(odd_l1_line.validate(), "l1LineBytes");

    SimConfig odd_l2_line = SimConfig::gtx480(false);
    odd_l2_line.l2LineBytes = 200;
    EXPECT_DEATH(odd_l2_line.validate(), "l2LineBytes");

    SimConfig bad_split = SimConfig::gtx480(true);
    bad_split.sharedMemPerSm = 32 * 1024; // 48 + 32 != 64 kB
    EXPECT_DEATH(bad_split.validate(), "Fermi split");

    SimConfig zero_clock;
    zero_clock.memClockGhz = 0.0;
    EXPECT_DEATH(zero_clock.validate(), "clocks");
}

TEST(SimConfig, EveryPresetValidates)
{
    SimConfig::gpgpusimDefault().validate();
    SimConfig::shaders(8).validate();
    SimConfig::gtx280().validate();
    SimConfig::gtx480(true).validate();
    SimConfig::gtx480(false).validate();
}

TEST(SimConfig, FingerprintCoversEveryField)
{
    // Equal configs fingerprint equally...
    EXPECT_EQ(SimConfig().fingerprint(),
              SimConfig::gpgpusimDefault().fingerprint());

    // ...and flipping any single architectural parameter changes the
    // fingerprint (the store key must never alias two different
    // machines). One mutation per SimConfig field.
    const std::vector<std::function<void(SimConfig &)>> mutations = {
        [](SimConfig &c) { c.numSms = 29; },
        [](SimConfig &c) { c.warpSize = 16; },
        [](SimConfig &c) { c.simdWidth = 8; },
        [](SimConfig &c) { c.maxThreadsPerSm = 768; },
        [](SimConfig &c) { c.maxCtasPerSm = 4; },
        [](SimConfig &c) { c.regFileSize = 32768; },
        [](SimConfig &c) { c.regsPerThread = 20; },
        [](SimConfig &c) { c.sharedMemPerSm = 48 * 1024; },
        [](SimConfig &c) { c.bankConflictsEnabled = false; },
        [](SimConfig &c) { c.sharedBanks = 32; },
        [](SimConfig &c) { c.coreClockGhz = 1.5; },
        [](SimConfig &c) { c.memClockGhz = 2.4; },
        [](SimConfig &c) { c.addressAluPerMem = 2; },
        [](SimConfig &c) { c.numChannels = 6; },
        [](SimConfig &c) { c.dramBusBytes = 8; },
        [](SimConfig &c) { c.coalesceBytes = 128; },
        [](SimConfig &c) { c.gmemLatencyCycles = 400; },
        [](SimConfig &c) { c.launchOverheadCycles = 700; },
        [](SimConfig &c) { c.texCacheBytes = 32 * 1024; },
        [](SimConfig &c) { c.constCacheBytes = 16 * 1024; },
        [](SimConfig &c) { c.texHitLatency = 20; },
        [](SimConfig &c) { c.constHitLatency = 6; },
        [](SimConfig &c) { c.l1Enabled = true; },
        [](SimConfig &c) { c.l1Bytes = 48 * 1024; },
        [](SimConfig &c) { c.l1LineBytes = 64; },
        [](SimConfig &c) { c.l1HitLatency = 30; },
        [](SimConfig &c) { c.l2Enabled = true; },
        [](SimConfig &c) { c.l2Bytes = 512 * 1024; },
        [](SimConfig &c) { c.l2LineBytes = 64; },
        [](SimConfig &c) { c.l2HitLatency = 120; },
    };
    std::set<std::string> prints;
    prints.insert(SimConfig().fingerprint());
    for (size_t i = 0; i < mutations.size(); ++i) {
        SimConfig c;
        mutations[i](c);
        EXPECT_TRUE(prints.insert(c.fingerprint()).second)
            << "mutation " << i << " did not change the fingerprint";
    }
}

// ---------------------------------------------------------------
// KernelStats serialization and merging
// ---------------------------------------------------------------

TEST(KernelStats, SerializeParseRoundTrip)
{
    KernelStats s;
    s.cycles = 0x123456789abcdefull; // > 2^32: payload must be 64-bit
    s.threadInstructions = 987654321098ull;
    s.warpInstructions = 30864197534ull;
    s.occupancyBuckets = {1, 2, 3, 4};
    s.memOps = {5, 6, 7, 8, 9, 10, 11};
    s.dramTransactions = 12;
    s.dramBytes = 13;
    s.channelBusyCycles = 14;
    s.bankConflictExtraCycles = 15;
    s.l1Hits = 16;
    s.l1Misses = 17;
    s.l2Hits = 18;
    s.l2Misses = 19;
    s.texHits = 20;
    s.texMisses = 21;
    s.constHits = 22;
    s.constMisses = 23;
    s.numChannels = 6;
    s.coreClockGhz = 1.4; // not exactly representable: needs
                          // max_digits10 to round-trip

    KernelStats out;
    ASSERT_TRUE(parseKernelStats(serializeKernelStats(s), out));
    EXPECT_TRUE(s == out);
    EXPECT_EQ(serializeKernelStats(out), serializeKernelStats(s));
}

TEST(KernelStats, ParseRejectsMalformedPayloads)
{
    KernelStats out;
    EXPECT_FALSE(parseKernelStats("", out));
    EXPECT_FALSE(parseKernelStats("cpuchar 1\n", out));
    EXPECT_FALSE(parseKernelStats("gpustats 2\n", out)); // bad version
    EXPECT_FALSE(parseKernelStats("gpustats 1\n1 2\n", out)); // truncated
}

TEST(KernelStats, SimulatedStatsRoundTripThroughPayload)
{
    auto rec = computeKernel(8, 64, 32);
    KernelStats s = TimingSim(SimConfig::shaders(4)).simulate(rec);
    KernelStats out;
    ASSERT_TRUE(parseKernelStats(serializeKernelStats(s), out));
    EXPECT_TRUE(s == out);
}

TEST(KernelStats, MergeIsAssociative)
{
    // Launch-sequence aggregation folds left; result assembly in the
    // parallel driver may fold in slot order. Both must agree, so
    // add() has to be associative — including the "last launch wins"
    // config fields (numChannels, coreClockGhz).
    std::vector<float> data(1 << 12);
    KernelStats a = TimingSim(SimConfig::shaders(4))
                        .simulate(computeKernel(8, 64, 32));
    KernelStats b = TimingSim(SimConfig::gtx280())
                        .simulate(streamKernel(data, 4, 64, 4));
    KernelStats c = TimingSim(SimConfig::gtx480(true))
                        .simulate(computeKernel(2, 32, 8));

    KernelStats ab = a;
    ab.add(b);
    KernelStats ab_c = ab;
    ab_c.add(c);

    KernelStats bc = b;
    bc.add(c);
    KernelStats a_bc = a;
    a_bc.add(bc);

    EXPECT_TRUE(ab_c == a_bc);
    EXPECT_EQ(serializeKernelStats(ab_c), serializeKernelStats(a_bc));
}
