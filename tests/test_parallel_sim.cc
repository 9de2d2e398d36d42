/**
 * @file
 * Determinism tests for the epoch timing engine: bit-identity with
 * the serial reference model (tests/reference/) at 1, 2, 4 and 8
 * lane runners on synthetic kernels, on launches with empty blocks,
 * one block or one SM, and on every registered GPU workload, at
 * 32- and 16-lane warps;
 * epoch-length invariance; the lane-runner count a config asks for;
 * the oversubscribed-CTA metric; and the deadlock-diagnostic
 * formatter.
 *
 * The EpochEngine suite is cheap (synthetic kernels) and runs in the
 * tsan-smoke and asan-smoke lanes; the SerialParallelWorkloads matrix
 * replays the whole registry and stays in the default lane.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/characterize.hh"
#include "core/workload.hh"
#include "driver/executor.hh"
#include "driver/job.hh"
#include "gpusim/kernel.hh"
#include "gpusim/recorder.hh"
#include "gpusim/replay.hh"
#include "gpusim/simconfig.hh"
#include "gpusim/timing.hh"
#include "reference/timing_reference.hh"
#include "support/metrics.hh"

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

/** RAII epoch-length override; always restores the automatic value. */
struct EpochCap
{
    explicit EpochCap(uint64_t cycles) { setSimEpochForTest(cycles); }
    ~EpochCap() { setSimEpochForTest(0); }
};

/**
 * A seeded synthetic kernel that exercises every shared-state path
 * the epoch engine defers: strided and random global loads/stores
 * (coalescing, L1/L2, channels), texture and constant reads,
 * shared-memory traffic with bank conflicts, divergent branches,
 * and barriers.
 */
KernelRecording
syntheticKernel(unsigned seed, int grid, int block)
{
    static std::vector<float> data(1 << 16, 1.0f);
    return recordKernel(launchOf(grid, block), [&](KernelCtx &ctx) {
        std::minstd_rand rng(seed * 7919u + unsigned(ctx.globalId()));
        auto sh = ctx.shared<int>(size_t(ctx.blockDim()));
        int acc = 0;
        for (int i = 0; i < 4; ++i) {
            size_t idx =
                (size_t(ctx.globalId()) * 4 + size_t(i) * 96 +
                 rng() % 64) %
                data.size();
            ctx.ldg(&data[idx]);
            ctx.alu(2);
            if (ctx.tid() % (2 + i) == 0) {
                ctx.branch(true);
                ctx.ldt(&data[(idx * 3) % data.size()]);
            } else {
                ctx.branch(false);
                ctx.ldc(&data[idx % 256]);
            }
            sh.put(ctx, ctx.tid(), int(idx));
            ctx.sync();
            acc += sh.get(ctx, (ctx.tid() + i + 1) % ctx.blockDim());
            ctx.fp(3);
        }
        ctx.stg(&data[size_t(ctx.globalId()) % data.size()],
                float(acc));
    });
}

/** The default config at 16-lane warps (two issue cycles each). The
 *  engine reads a warp-16 trace; the reference merges lanes itself. */
SimConfig
warp16Config()
{
    SimConfig cfg = SimConfig::gpgpusimDefault();
    cfg.warpSize = 16;
    cfg.simdWidth = 8;
    return cfg;
}

std::vector<SimConfig>
testConfigs()
{
    // No-L2 default, Fermi (L1 + unified L2), a small shader count
    // that forces many CTAs per SM and short idle jumps, and 16-lane
    // warps.
    return {SimConfig::gpgpusimDefault(), SimConfig::gtx480(false),
            SimConfig::shaders(4), warp16Config()};
}

/** Lane-runner counts every reference comparison runs the engine at. */
constexpr int kLaneCounts[] = {1, 2, 4, 8};

KernelStats
simulateWith(const SimConfig &base, int threads,
             const KernelRecording &rec)
{
    SimConfig cfg = base;
    cfg.simThreads = threads;
    return TimingSim(cfg).simulate(rec);
}

/**
 * The engine at every kLaneCounts entry must reproduce the reference
 * model's stats field for field and byte for byte in the store
 * payload.
 */
void
expectMatchesReference(const SimConfig &cfg, const KernelRecording &rec,
                       const std::string &what)
{
    KernelStats ref = reference::simulate(cfg, rec);
    for (int lanes : kLaneCounts) {
        KernelStats got = simulateWith(cfg, lanes, rec);
        EXPECT_EQ(ref, got) << what << ", " << lanes << " lane runners";
        EXPECT_EQ(serializeKernelStats(ref), serializeKernelStats(got))
            << what << ", " << lanes << " lane runners";
    }
}

uint64_t
metricValue(const char *name)
{
    return support::metrics::Registry::global().snapshot().value(name);
}

} // namespace

TEST(EpochEngine, BitIdenticalToSerialOnSyntheticKernels)
{
    for (unsigned seed : {1u, 2u, 3u}) {
        KernelRecording rec = syntheticKernel(seed, 24, 96);
        for (const SimConfig &cfg : testConfigs())
            expectMatchesReference(cfg, rec,
                                   "seed " + std::to_string(seed));
    }
}

TEST(EpochEngine, EpochLengthNeverChangesResults)
{
    // Any epoch shorter than the automatic bound is sound; sweeping
    // lengths (including the degenerate E=1 lockstep) must leave the
    // stats bit-identical. This is the core soundness property: the
    // barrier placement only affects scheduling, never arbitration
    // order.
    KernelRecording rec = syntheticKernel(7, 16, 64);
    for (const SimConfig &cfg : testConfigs()) {
        ASSERT_GE(epochCyclesFor(cfg), 1u);
        KernelStats ref = reference::simulate(cfg, rec);
        for (uint64_t epoch : {uint64_t(1), uint64_t(7), uint64_t(63),
                               uint64_t(100000)}) {
            EpochCap cap(epoch);
            for (int lanes : kLaneCounts)
                EXPECT_EQ(ref, simulateWith(cfg, lanes, rec))
                    << "epoch cap " << epoch << ", " << lanes
                    << " lane runners";
        }
    }
}

TEST(EpochEngine, MoreThreadsThanSmsOrBlocksStillExact)
{
    // 2 blocks on a 4-SM config with 16 requested threads: the
    // engine must clamp its lane/worker structure, not wedge or
    // diverge.
    KernelRecording rec = syntheticKernel(11, 2, 32);
    SimConfig cfg = SimConfig::shaders(4);
    KernelStats ref = reference::simulate(cfg, rec);
    EXPECT_EQ(ref, simulateWith(cfg, 16, rec));
    EXPECT_EQ(ref, simulateWith(cfg, 0, rec));
}

TEST(EpochEngine, SingleBlockLaunchMatchesReference)
{
    KernelRecording one = syntheticKernel(12, 1, 32);
    for (const SimConfig &cfg : testConfigs())
        expectMatchesReference(cfg, one, "1-block launch");
}

TEST(EpochEngine, SingleSmConfigMatchesReference)
{
    // One SM means one lane: every request collapses to the calling
    // thread, and all CTA placement runs through pauses on lane 0.
    KernelRecording rec = syntheticKernel(13, 12, 64);
    expectMatchesReference(SimConfig::shaders(1), rec, "1 SM");
}

TEST(EpochEngine, EmptyOddBlocksMatchReference)
{
    // Odd blocks return at once and record no events: they complete
    // at placement without occupying their SM.
    static std::vector<float> data(4096, 1.0f);
    KernelRecording rec =
        recordKernel(launchOf(12, 64), [&](KernelCtx &ctx) {
            if (ctx.blockIdx() % 2)
                return;
            size_t i = size_t(ctx.globalId()) % data.size();
            float v = ctx.ldg(&data[i]);
            ctx.fp(2);
            ctx.sync();
            ctx.stg(&data[(i * 7) % data.size()], v + 1.0f);
        });
    ASSERT_EQ(rec.blocks.size(), 12u);
    for (int l = 0; l < rec.blocks[1].blockDim; ++l)
        ASSERT_EQ(rec.blocks[1].laneEvents(l), 0u);
    for (const SimConfig &cfg : testConfigs())
        expectMatchesReference(cfg, rec, "odd blocks empty");
}

TEST(EpochEngine, EmptyTrailingBlocksMatchReference)
{
    // Blocks 4.. record nothing. With one CTA slot machine-wide they
    // cannot be placed while a working block is resident, so the
    // last completion drains them all (resolvePauses' tail path);
    // on the wider configs they drain at placement instead.
    static std::vector<float> data(4096, 1.0f);
    KernelRecording rec =
        recordKernel(launchOf(10, 64), [&](KernelCtx &ctx) {
            if (ctx.blockIdx() >= 4)
                return;
            size_t i = size_t(ctx.globalId()) % data.size();
            float v = ctx.ldg(&data[i]);
            ctx.alu(3);
            ctx.stg(&data[i], v * 2.0f);
        });
    for (int l = 0; l < rec.blocks.back().blockDim; ++l)
        ASSERT_EQ(rec.blocks.back().laneEvents(l), 0u);
    SimConfig one_slot = SimConfig::shaders(1);
    one_slot.maxCtasPerSm = 1;
    expectMatchesReference(one_slot, rec, "one CTA slot");
    for (const SimConfig &cfg : testConfigs())
        expectMatchesReference(cfg, rec, "trailing blocks empty");
}

TEST(EpochEngine, RunsOnTheLaneRunnersItsConfigNames)
{
    // A sim runs on clamp(simThreads, 1, numSms) lane runners and
    // nothing else sizes it: the default runs on the calling thread
    // alone, also inside an executor job whose pool sits idle.
    KernelRecording rec = syntheticKernel(41, 8, 64);
    SimConfig eight = SimConfig::shaders(8);
    auto runnersOf = [&](int threads) {
        // A private sink: gauges keep their maximum, so the global
        // one would still hold earlier tests' wider sims.
        support::metrics::Registry sims;
        support::metrics::SinkScope scope(&sims);
        simulateWith(eight, threads, rec);
        return sims.snapshot().value("gpusim.epoch.threads");
    };
    EXPECT_EQ(runnersOf(0), 1u);
    EXPECT_EQ(runnersOf(3), 3u);
    EXPECT_EQ(runnersOf(64), 8u);

    driver::Executor pool(4);
    driver::JobGraph graph;
    uint64_t inJob = 0;
    graph.add("lone-sim", [&] { inJob = runnersOf(0); });
    ASSERT_TRUE(pool.run(graph));
    EXPECT_EQ(inJob, 1u);
}

TEST(EpochEngine, LaunchSequenceAccumulatesIdentically)
{
    LaunchSequence seq;
    seq.launches.push_back(syntheticKernel(21, 8, 64));
    seq.launches.push_back(syntheticKernel(22, 12, 32));
    for (const SimConfig &base : testConfigs()) {
        KernelStats ref = reference::simulate(base, seq);
        for (int lanes : kLaneCounts) {
            SimConfig cfg = base;
            cfg.simThreads = lanes;
            EXPECT_EQ(ref, TimingSim(cfg).simulate(seq))
                << lanes << " lane runners";
        }
    }
}

TEST(EpochEngine, EmitsEpochTelemetry)
{
    uint64_t runs_before = metricValue("gpusim.epoch.runs");
    uint64_t epochs_before = metricValue("gpusim.epoch.count");
    KernelRecording rec = syntheticKernel(31, 8, 64);
    simulateWith(SimConfig::gpgpusimDefault(), 4, rec);
    EXPECT_EQ(metricValue("gpusim.epoch.runs"), runs_before + 1);
    EXPECT_GT(metricValue("gpusim.epoch.count"), epochs_before);
    EXPECT_GE(metricValue("gpusim.epoch.threads"), 1u);
}

TEST(EpochEngine, OversubscribedCtaCountsMetric)
{
    // A CTA demanding 64 kB of shared memory can never fit the
    // 32 kB SM, but the placement hatch admits it so the sim makes
    // progress. The guard must count each such admission, at one
    // lane runner and at four.
    uint64_t before = metricValue("gpusim.oversubscribed_cta");
    std::vector<float> data(64, 0.0f);
    KernelRecording rec =
        recordKernel(launchOf(3, 32), [&](KernelCtx &ctx) {
            auto sh = ctx.shared<double>(8192); // 64 kB > 32 kB SM
            sh.put(ctx, ctx.tid(), 1.0);
            ctx.sync();
            ctx.stg(&data[ctx.tid()],
                    float(sh.get(ctx, ctx.tid())));
        });
    KernelStats one =
        simulateWith(SimConfig::gpgpusimDefault(), 1, rec);
    EXPECT_EQ(metricValue("gpusim.oversubscribed_cta"), before + 3);
    EXPECT_GT(one.cycles, 0u);
    EXPECT_EQ(one, reference::simulate(SimConfig::gpgpusimDefault(), rec));
    EXPECT_EQ(simulateWith(SimConfig::gpgpusimDefault(), 4, rec), one);
    EXPECT_EQ(metricValue("gpusim.oversubscribed_cta"), before + 6);
}

TEST(EpochEngine, DeadlockDiagnosticsNameEverySm)
{
    std::vector<SmSnapshot> sms(2);
    sms[0].readyWarps = 3;
    sms[0].waitingWarps = 1;
    sms[0].residentCtas = 2;
    sms[0].freeCycle = 120;
    sms[0].nextBound = 130;
    sms[1].nextBound = ~uint64_t(0); // idle sentinel
    std::string msg = formatDeadlockDiagnostics(1000, 5, 12, 7, sms);
    EXPECT_NE(msg.find("cycle 1000"), std::string::npos);
    EXPECT_NE(msg.find("7 of 12 blocks"), std::string::npos);
    EXPECT_NE(msg.find("next block to place: 5"), std::string::npos);
    EXPECT_NE(msg.find("sm0:"), std::string::npos);
    EXPECT_NE(msg.find("ready=3"), std::string::npos);
    EXPECT_NE(msg.find("sm1:"), std::string::npos);
    EXPECT_NE(msg.find("idle"), std::string::npos);
}

TEST(EpochEngine, EpochLengthTracksSharedPathLatency)
{
    SimConfig no_l2 = SimConfig::gpgpusimDefault();
    EXPECT_EQ(epochCyclesFor(no_l2),
              uint64_t(no_l2.channelServiceCycles() +
                       no_l2.gmemLatencyCycles));
    SimConfig fermi = SimConfig::gtx480(false);
    EXPECT_EQ(epochCyclesFor(fermi),
              std::min(uint64_t(fermi.l2HitLatency),
                       uint64_t(fermi.channelServiceCycles() +
                                fermi.gmemLatencyCycles)));
}

TEST(SerialParallelWorkloads, AllGpuWorkloadsBitIdentical)
{
    // The acceptance matrix: every registered GPU workload and
    // version at Small scale, the reference model vs the engine at
    // 1/2/4/8 lane runners, on the paper's default config. Stats
    // must match field for field and byte for byte in the store
    // payload.
    core::registerAllWorkloads();
    SimConfig cfg = SimConfig::gpgpusimDefault();
    int checked = 0;
    for (const auto &info : core::Registry::instance().all()) {
        auto wl = core::Registry::instance().create(info.name);
        for (int v = 1; v <= wl->gpuVersions(); ++v) {
            LaunchSequence seq = wl->runGpu(core::Scale::Small, v);
            KernelStats ref = reference::simulate(cfg, seq);
            for (int lanes : kLaneCounts) {
                SimConfig lane_cfg = cfg;
                lane_cfg.simThreads = lanes;
                KernelStats got = TimingSim(lane_cfg).simulate(seq);
                EXPECT_EQ(ref, got)
                    << info.name << " v" << v << ", " << lanes
                    << " lane runners";
                EXPECT_EQ(serializeKernelStats(ref),
                          serializeKernelStats(got))
                    << info.name << " v" << v;
            }
            ++checked;
        }
    }
    EXPECT_GE(checked, 10) << "registry lost its GPU workloads";
}

TEST(SerialParallelWorkloads, FermiConfigBitIdentical)
{
    // The L1+L2 path has the most shared state; sweep a few
    // workloads under the GTX 480 preset too.
    core::registerAllWorkloads();
    SimConfig cfg = SimConfig::gtx480(false);
    for (const char *name : {"kmeans", "srad", "hotspot"}) {
        if (!core::Registry::instance().has(name))
            continue;
        auto wl = core::Registry::instance().create(name);
        if (wl->gpuVersions() < 1)
            continue;
        LaunchSequence seq = wl->runGpu(core::Scale::Small, 1);
        KernelStats ref = reference::simulate(cfg, seq);
        for (int lanes : kLaneCounts) {
            SimConfig lane_cfg = cfg;
            lane_cfg.simThreads = lanes;
            EXPECT_EQ(ref, TimingSim(lane_cfg).simulate(seq))
                << name << ", " << lanes << " lane runners";
        }
    }
}

TEST(SerialParallelWorkloads, Warp16ConfigBitIdentical)
{
    // Half-width warps split every block into twice the streams and
    // change what diverges; the engine must still match the
    // reference, which merges the lanes at 16 itself.
    core::registerAllWorkloads();
    SimConfig cfg = warp16Config();
    for (const char *name : {"bfs", "hotspot", "kmeans", "nw", "srad"}) {
        auto wl = core::Registry::instance().create(name);
        LaunchSequence seq = wl->runGpu(core::Scale::Small, 1);
        KernelStats ref = reference::simulate(cfg, seq);
        for (int lanes : kLaneCounts) {
            SimConfig lane_cfg = cfg;
            lane_cfg.simThreads = lanes;
            EXPECT_EQ(ref, TimingSim(lane_cfg).simulate(seq))
                << name << ", " << lanes << " lane runners";
        }
    }
}
