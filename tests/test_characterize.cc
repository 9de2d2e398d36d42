/**
 * @file
 * Integration tests: the full characterization pipeline from
 * workloads through feature vectors, PCA, and clustering — the
 * paper's Section IV/V methodology end to end.
 */

#include <gtest/gtest.h>

#include "core/characterize.hh"
#include "core/workload.hh"
#include "driver/result_store.hh"
#include "gpusim/simconfig.hh"
#include "stats/cluster.hh"
#include "stats/pca.hh"

using namespace rodinia;
using namespace rodinia::core;

namespace {

CpuCharacterization
charOf(const std::string &name, Scale scale = Scale::Tiny)
{
    registerAllWorkloads();
    auto w = Registry::instance().create(name);
    return characterizeCpu(*w, scale, 4);
}

} // namespace

TEST(Characterize, FeatureVectorShapes)
{
    auto c = charOf("hotspot");
    EXPECT_EQ(c.instrMixFeatures().size(), 5u);
    EXPECT_EQ(c.workingSetFeatures().size(), 8u);
    EXPECT_EQ(c.sharingFeatures().size(), 16u);
    EXPECT_EQ(c.allFeatures().size(), 29u);
    EXPECT_EQ(CpuCharacterization::instrMixFeatureNames().size(), 5u);
    EXPECT_EQ(CpuCharacterization::workingSetFeatureNames(c.cacheSizes)
                  .size(),
              8u);
    EXPECT_EQ(
        CpuCharacterization::sharingFeatureNames(c.cacheSizes).size(),
        16u);
}

TEST(Characterize, InstrMixFractionsSumToOne)
{
    for (const char *name : {"kmeans", "bfs", "dedup", "raytrace"}) {
        auto f = charOf(name).instrMixFeatures();
        double sum = 0.0;
        for (double v : f) {
            EXPECT_GE(v, 0.0);
            sum += v;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9) << name;
    }
}

TEST(Characterize, MissRatesMonotoneForEveryWorkload)
{
    registerAllWorkloads();
    for (const auto &name : Registry::instance().names(Suite::Rodinia)) {
        auto c = charOf(name);
        for (size_t i = 1; i < c.sweep.size(); ++i)
            EXPECT_LE(c.sweep[i].missRate(),
                      c.sweep[i - 1].missRate() + 1e-9)
                << name << " @ size index " << i;
    }
}

TEST(Characterize, SharingBoundsHold)
{
    for (const char *name : {"facesim", "canneal", "streamcluster"}) {
        auto c = charOf(name);
        for (const auto &s : c.sweep) {
            EXPECT_GE(s.sharedLineFraction(), 0.0);
            EXPECT_LE(s.sharedLineFraction(), 1.0);
            EXPECT_GE(s.sharedAccessFraction(), 0.0);
            EXPECT_LE(s.sharedAccessFraction(), 1.0);
        }
    }
}

TEST(Characterize, DeterministicUpToAddressLayout)
{
    // Heap addresses do not reach the result: the workload allocates
    // through the scoped aligned allocator (support/alloc_align) and
    // the trace is canonicalized (TraceSession::normalizeAddresses)
    // before the cache sweep and the page count read it. So two
    // characterizations agree byte for byte, cache statistics and
    // data footprint included, as the golden fig8-fig12 require.
    // streamcluster traces an array of one double per thread, under
    // the 64 bytes the allocator page-aligns at these 4 threads.
    for (const char *name : {"srad", "streamcluster"}) {
        auto a = charOf(name);
        auto b = charOf(name);
        EXPECT_GT(a.dataPages, 0u) << name;
        EXPECT_EQ(driver::serializeCpuChar(a),
                  driver::serializeCpuChar(b))
            << name;
    }
}

TEST(Characterize, GpuPipelineEndToEnd)
{
    registerAllWorkloads();
    auto w = Registry::instance().create("hotspot");
    auto g = characterizeGpu(*w, Scale::Tiny,
                             gpusim::SimConfig::gpgpusimDefault());
    EXPECT_GT(g.timing.cycles, 0u);
    EXPECT_GT(g.timing.ipc(), 0.0);
    EXPECT_LE(g.timing.ipc(), 28.0 * 32.0);
    EXPECT_GT(g.trace.threadInstructions, 0u);
    EXPECT_GE(g.timing.bwUtilization(), 0.0);
    EXPECT_LE(g.timing.bwUtilization(), 1.0);
}

TEST(Characterize, SharedMemoryWorkloadsShowSharedOps)
{
    registerAllWorkloads();
    for (const char *name : {"hotspot", "nw", "backprop"}) {
        auto w = Registry::instance().create(name);
        auto seq = w->runGpu(Scale::Tiny, w->gpuVersions());
        auto f = gpusim::analyzeTrace(seq).memOpFractions();
        EXPECT_GT(f[size_t(gpusim::Space::Shared)], 0.2) << name;
    }
}

TEST(Characterize, TextureWorkloadsShowTextureOps)
{
    registerAllWorkloads();
    for (const char *name : {"kmeans", "mummer", "leukocyte"}) {
        auto w = Registry::instance().create(name);
        // Small scale: Leukocyte v2's persistent blocks are mostly
        // idle at Tiny scale, skewing its memory mix.
        auto seq = w->runGpu(Scale::Small, w->gpuVersions());
        auto f = gpusim::analyzeTrace(seq).memOpFractions();
        EXPECT_GT(f[size_t(gpusim::Space::Tex)], 0.15) << name;
    }
    // Leukocyte's hallmark (Table III) is its constant-memory use.
    auto lc = Registry::instance().create("leukocyte");
    auto f = gpusim::analyzeTrace(lc->runGpu(Scale::Small, 2))
                 .memOpFractions();
    EXPECT_GT(f[size_t(gpusim::Space::Const)], 0.4);
}

TEST(Characterize, DivergentWorkloadsUnderfillWarps)
{
    registerAllWorkloads();
    // BFS and MUMmer must show many low-occupancy warps; dense
    // kernels must not.
    auto occ = [&](const char *name) {
        auto w = Registry::instance().create(name);
        auto seq = w->runGpu(Scale::Small, 1);
        return gpusim::analyzeTrace(seq).occupancyFractions()[0];
    };
    EXPECT_GT(occ("bfs"), 0.3);
    EXPECT_GT(occ("mummer"), 0.3);
    EXPECT_LT(occ("kmeans"), 0.05);
    EXPECT_LT(occ("cfd"), 0.05);
}

TEST(PipelineIntegration, PcaAndClusterOverSixWorkloads)
{
    registerAllWorkloads();
    const std::vector<std::string> names = {
        "kmeans", "bfs", "hotspot", "blackscholes", "canneal", "vips",
    };
    std::vector<std::vector<double>> rows;
    for (const auto &n : names)
        rows.push_back(charOf(n).allFeatures());

    auto pca = stats::runPca(stats::Matrix::fromRows(rows));
    EXPECT_GT(pca.explained[0], 0.0);
    auto lk = stats::hierarchicalCluster(stats::pcaProject(pca, 3));
    EXPECT_EQ(lk.merges.size(), names.size() - 1);
    auto cut = lk.cut(3);
    // Exactly three distinct labels.
    std::vector<int> seen;
    for (int l : cut)
        if (std::find(seen.begin(), seen.end(), l) == seen.end())
            seen.push_back(l);
    EXPECT_EQ(seen.size(), 3u);
    // Rendering works for the full pipeline output.
    std::vector<std::string> labels = names;
    EXPECT_FALSE(stats::renderDendrogram(lk, labels).empty());
}

TEST(PipelineIntegration, SuiteChecksumsAllDistinct)
{
    registerAllWorkloads();
    std::vector<uint64_t> sums;
    for (const auto &info : Registry::instance().all()) {
        auto w = Registry::instance().create(info.name);
        trace::TraceSession session(4, false);
        w->runCpu(session, Scale::Tiny);
        sums.push_back(w->checksum());
    }
    std::sort(sums.begin(), sums.end());
    EXPECT_EQ(std::adjacent_find(sums.begin(), sums.end()), sums.end());
}
