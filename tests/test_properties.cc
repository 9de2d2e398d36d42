/**
 * @file
 * Property-based and parameterized sweeps across the library:
 * invariants that must hold for every workload, scale, and
 * configuration, plus a reference-model equivalence check for the
 * cache simulator.
 */

#include <gtest/gtest.h>

#include <list>
#include <tuple>

#include "cachesim/cache.hh"
#include "core/characterize.hh"
#include "core/workload.hh"
#include "gpusim/replay.hh"
#include "gpusim/timing.hh"
#include "reference/shared_cache.hh"
#include "support/rng.hh"
#include "trace/trace.hh"

using namespace rodinia;
using namespace rodinia::core;

// ---------------------------------------------------------------------
// Cache simulator vs an obviously correct reference model.
// ---------------------------------------------------------------------

namespace {

/** Reference set-associative LRU cache built on std::list. */
class RefCache
{
  public:
    RefCache(uint64_t size, int assoc, int line)
        : assoc(assoc), line(line), numSets(size / (uint64_t(assoc) *
                                                    line))
    {
        while (numSets & (numSets - 1))
            numSets &= numSets - 1;
        sets.resize(numSets);
    }

    bool
    access(uint64_t addr)
    {
        uint64_t la = addr / line;
        uint64_t set = (la ^ (la / numSets) * 0x9e3779b9) &
                       (numSets - 1);
        uint64_t tag = la / numSets;
        auto &s = sets[set];
        for (auto it = s.begin(); it != s.end(); ++it) {
            if (*it == tag) {
                s.erase(it);
                s.push_front(tag);
                return true;
            }
        }
        s.push_front(tag);
        if (int(s.size()) > assoc)
            s.pop_back();
        return false;
    }

  private:
    int assoc;
    int line;
    uint64_t numSets;
    std::vector<std::list<uint64_t>> sets;
};

} // namespace

class CacheEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>>
{
};

TEST_P(CacheEquivalence, MatchesReferenceLru)
{
    auto [size, assoc] = GetParam();
    cachesim::CacheConfig cfg;
    cfg.sizeBytes = size;
    cfg.assoc = assoc;
    cfg.lineBytes = 64;
    cachesim::SharedCache dut(cfg);
    RefCache ref(size, assoc, 64);

    Rng rng(uint64_t(size) * 31 + uint64_t(assoc));
    uint64_t refMisses = 0;
    for (int i = 0; i < 50000; ++i) {
        // Mix of hot and cold regions to exercise reuse + eviction.
        // 4-byte aligned so a 4-byte access never splits lines (the
        // reference model has no splitting).
        uint64_t addr = (rng.chance(0.7) ? rng.below(size * 2)
                                         : rng.below(size * 64)) &
                        ~uint64_t(3);
        dut.access(0, addr, 4, rng.chance(0.3));
        if (!ref.access(addr))
            ++refMisses;
    }
    EXPECT_EQ(dut.stats().misses, refMisses);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheEquivalence,
    ::testing::Values(std::make_tuple(uint64_t(4096), 1),
                      std::make_tuple(uint64_t(8192), 2),
                      std::make_tuple(uint64_t(64 * 1024), 4),
                      std::make_tuple(uint64_t(128 * 1024), 8),
                      std::make_tuple(uint64_t(1024 * 1024), 4)));

// ---------------------------------------------------------------------
// Per-workload invariants, parameterized over the whole registry.
// ---------------------------------------------------------------------

class WorkloadProperties : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        registerAllWorkloads();
    }
};

TEST_P(WorkloadProperties, WorkGrowsWithScale)
{
    auto tiny = Registry::instance().create(GetParam());
    auto small = Registry::instance().create(GetParam());
    trace::TraceSession st(4, false), ss(4, false);
    tiny->runCpu(st, Scale::Tiny);
    small->runCpu(ss, Scale::Small);
    EXPECT_LT(st.totalMix().total(), ss.totalMix().total());
}

TEST_P(WorkloadProperties, MixIsConsistent)
{
    auto w = Registry::instance().create(GetParam());
    trace::TraceSession s(4, true);
    w->runCpu(s, Scale::Tiny);
    auto mix = s.totalMix();
    // Recorded memory events cover every counted reference; an
    // access that straddles a 64 B line is split into multiple
    // events at record time, so events can exceed references.
    EXPECT_GE(s.totalEvents(), mix.memRefs());
    EXPECT_GT(mix.branches + mix.intOps + mix.fpOps, 0u);
}

TEST_P(WorkloadProperties, FootprintWithinAllocationBounds)
{
    auto w = Registry::instance().create(GetParam());
    trace::TraceSession s(4, true);
    w->runCpu(s, Scale::Tiny);
    // No workload at Tiny scale touches more than 64 MB of pages.
    EXPECT_LT(s.dataFootprintPages(), 16384u);
    EXPECT_GE(s.dataFootprintPages(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadProperties,
    ::testing::Values("kmeans", "nw", "hotspot", "backprop", "srad",
                      "leukocyte", "bfs", "streamcluster", "mummer",
                      "cfd", "lud", "heartwall", "blackscholes",
                      "bodytrack", "canneal", "dedup", "facesim",
                      "ferret", "fluidanimate", "freqmine", "raytrace",
                      "swaptions", "vips", "x264"),
    [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// GPU timing invariants, parameterized over configurations.
// ---------------------------------------------------------------------

namespace {

gpusim::KernelRecording
mixedKernel()
{
    static std::vector<float> data(1 << 16, 1.0f);
    gpusim::LaunchConfig launch;
    launch.gridDim = 24;
    launch.blockDim = 128;
    return gpusim::recordKernel(launch, [&](gpusim::KernelCtx &ctx) {
        auto sh = ctx.shared<float>(128);
        float acc = 0.0f;
        for (int r = 0; r < 8; ++r) {
            gpusim::LoopIter li(ctx, r);
            acc += ctx.ldg(&data[(ctx.globalId() * 17 + r * 4099) %
                                 int(data.size())]);
            ctx.fp(3);
        }
        sh.put(ctx, ctx.tid(), acc);
        ctx.sync();
        if (ctx.branch(ctx.tid() == 0))
            ctx.stg(&data[ctx.blockIdx()], sh.get(ctx, 0));
    });
}

} // namespace

class TimingInvariants : public ::testing::TestWithParam<int>
{
};

TEST_P(TimingInvariants, StatsAreSelfConsistent)
{
    auto rec = mixedKernel();
    gpusim::SimConfig cfg = gpusim::SimConfig::gpgpusimDefault();
    cfg.numSms = GetParam();
    auto st = gpusim::TimingSim(cfg).simulate(rec);

    EXPECT_GT(st.cycles, 0u);
    EXPECT_GE(st.threadInstructions, rec.threadInstructions());
    EXPECT_LE(st.ipc(), double(cfg.numSms) * cfg.warpSize + 1e-9);
    uint64_t bucketSum = 0;
    for (auto b : st.occupancyBuckets)
        bucketSum += b;
    EXPECT_EQ(bucketSum, st.warpInstructions);
    EXPECT_LE(st.bwUtilization(), 1.0 + 1e-9);
    EXPECT_EQ(st.dramBytes,
              st.dramTransactions * uint64_t(cfg.coalesceBytes));
    // Caches: hits + misses equals lookups that reached them.
    EXPECT_EQ(st.l1Hits + st.l1Misses, 0u); // L1 disabled by default
}

TEST_P(TimingInvariants, MoreSmsNeverSlower)
{
    auto rec = mixedKernel();
    gpusim::SimConfig a = gpusim::SimConfig::gpgpusimDefault();
    a.numSms = GetParam();
    gpusim::SimConfig b = a;
    b.numSms = GetParam() * 2;
    auto sa = gpusim::TimingSim(a).simulate(rec);
    auto sb = gpusim::TimingSim(b).simulate(rec);
    EXPECT_LE(sb.cycles, sa.cycles + sa.cycles / 10);
}

INSTANTIATE_TEST_SUITE_P(SmCounts, TimingInvariants,
                         ::testing::Values(1, 2, 4, 8, 14));

// ---------------------------------------------------------------------
// Feature-extraction invariants across scales.
// ---------------------------------------------------------------------

class FeatureScaleSweep
    : public ::testing::TestWithParam<std::tuple<std::string, Scale>>
{
};

TEST_P(FeatureScaleSweep, FeaturesAreFiniteAndBounded)
{
    registerAllWorkloads();
    auto [name, scale] = GetParam();
    auto w = Registry::instance().create(name);
    auto c = characterizeCpu(*w, scale, 4);
    for (double f : c.allFeatures()) {
        EXPECT_TRUE(std::isfinite(f));
        EXPECT_GE(f, -1e-9);
        EXPECT_LE(f, 1.0 + 1e-9); // all features are fractions
    }
}

INSTANTIATE_TEST_SUITE_P(
    ScaleGrid, FeatureScaleSweep,
    ::testing::Combine(::testing::Values("kmeans", "mummer", "dedup",
                                         "vips"),
                       ::testing::Values(Scale::Tiny, Scale::Small)));
