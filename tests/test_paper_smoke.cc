/**
 * @file
 * Paper-scale smoke lane: one representative workload per Berkeley
 * dwarf actually runs at Scale::Paper (the paper's Table I problem
 * sizes) under a peak-RSS guard. The point is not output checking —
 * the golden corpus does that at Scale::Full — but proving the
 * streaming trace representation keeps paper-scale recording inside
 * a bounded memory envelope, end to end through the real workload
 * code. A regression to materialized per-event structs (24 B/event
 * at hundreds of millions of events) blows the guard immediately;
 * the compact chunks (~2-4 B/event) stay far inside it.
 *
 * Representatives are the cheapest member of each dwarf so the lane
 * stays tier-1-affordable; the full `experiments --scale paper` run
 * covers the rest.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include "core/characterize.hh"
#include "core/workload.hh"
#include "gpusim/simconfig.hh"
#include "gpusim/timing.hh"
#include "reference/timing_reference.hh"
#include "trace/trace.hh"

using namespace rodinia;
using namespace rodinia::core;

namespace {

/** Process peak RSS in MiB (Linux ru_maxrss is in KiB). */
long
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024;
}

/**
 * Whole-binary peak-RSS budget. ru_maxrss is a high-water mark, so
 * every test in this binary shares one monotone counter; the budget
 * covers the cumulative worst case across all representatives. The
 * largest paper-scale recording here is tens of millions of events:
 * materialized that alone is multiple GiB, streamed it is tens of
 * MiB, so 2 GiB cleanly separates the two while absorbing allocator
 * retention across tests.
 */
constexpr long kRssBudgetMiB = 2048;

} // namespace

/** One representative per dwarf (see the file comment). */
class PaperSmoke : public ::testing::TestWithParam<const char *>
{
  protected:
    void
    SetUp() override
    {
        registerAllWorkloads();
    }
};

TEST_P(PaperSmoke, RunsAtPaperScaleWithinMemoryBudget)
{
    auto w = Registry::instance().create(GetParam());
    ASSERT_NE(w, nullptr);
    EXPECT_FALSE(w->info().paperSize.empty())
        << "every workload must document its Table I problem size";

    trace::TraceSession paper(8, true);
    w->runCpu(paper, Scale::Paper);
    EXPECT_GT(paper.totalMix().total(), 0u);
    EXPECT_GT(paper.totalEvents(), 0u);
    EXPECT_LE(peakRssMiB(), kRssBudgetMiB)
        << "paper-scale recording of '" << GetParam()
        << "' exceeded the streaming memory envelope";

    // Paper sizes must actually be larger than the figure-pipeline
    // default work at Small scale — a mis-wired switch that falls
    // through to a smaller tier would pass the RSS guard trivially.
    auto w2 = Registry::instance().create(GetParam());
    trace::TraceSession small(8, false);
    w2->runCpu(small, Scale::Small);
    EXPECT_GT(paper.totalMix().total(), small.totalMix().total());
}

INSTANTIATE_TEST_SUITE_P(
    OnePerDwarf, PaperSmoke,
    ::testing::Values("srad",      // Structured Grid
                      "lud",       // Dense Linear Algebra
                      "nw",        // Dynamic Programming
                      "bfs",       // Graph Traversal
                      "backprop",  // Unstructured Grid
                      "dedup",     // Combinational Logic
                      "swaptions"  // MapReduce
                      ),
    [](const auto &info) { return std::string(info.param); });

/**
 * One full CPU characterization — recording plus the Mattson cache
 * sweep consuming the stream — end to end at paper scale.
 */
TEST(PaperSmokeDeep, LudCharacterizesAtPaperScale)
{
    registerAllWorkloads();
    auto w = Registry::instance().create("lud");
    auto c = characterizeCpu(*w, Scale::Paper, 8);
    EXPECT_GT(c.mix.total(), 0u);
    EXPECT_GT(c.sweep.size(), 0u);
    // Miss rates are fractions and the sweep is monotone non-
    // increasing in cache size.
    for (size_t i = 1; i < c.sweep.size(); ++i)
        EXPECT_LE(c.sweep[i].missRate(), c.sweep[i - 1].missRate() +
                                             1e-12);
    EXPECT_LE(peakRssMiB(), kRssBudgetMiB);
}

/** One GPU recording + timing simulation at paper scale. */
TEST(PaperSmokeDeep, LudGpuSimulatesAtPaperScale)
{
    registerAllWorkloads();
    auto w = Registry::instance().create("lud");
    auto g = characterizeGpu(*w, Scale::Paper,
                             gpusim::SimConfig::gpgpusimDefault());
    EXPECT_GT(g.timing.cycles, 0u);
    EXPECT_GT(g.trace.threadInstructions, 0u);
    EXPECT_LE(peakRssMiB(), kRssBudgetMiB);
}

/**
 * The timing engine at paper scale: record one dwarf representative
 * once, simulate it on the serial reference model and on the engine
 * at 1, 2, 4 and 8 lane runners, and require bit-identical stats —
 * all inside the same streaming RSS envelope. This is where a race
 * or an epoch-boundary bug that survives small inputs would surface:
 * paper-scale traces cross tens of thousands of epoch barriers.
 */
TEST(PaperSmokeDeep, SradParallelSimMatchesSerialAtPaperScale)
{
    registerAllWorkloads();
    auto w = Registry::instance().create("srad");
    gpusim::LaunchSequence seq = w->runGpu(Scale::Paper);
    ASSERT_FALSE(seq.launches.empty());
    // Sealed blocks hold little beyond the encoded events: an 8-byte
    // index entry per lane and word padding per block.
    EXPECT_LE(double(seq.allocatedBytes()), 1.1 * double(seq.encodedBytes()))
        << seq.allocatedBytes() << " bytes allocated for "
        << seq.encodedBytes() << " encoded";

    const gpusim::SimConfig base = gpusim::SimConfig::gpgpusimDefault();
    gpusim::KernelStats ref = gpusim::reference::simulate(base, seq);
    EXPECT_GT(ref.cycles, 0u);
    for (int lanes : {1, 2, 4, 8}) {
        gpusim::SimConfig cfg = base;
        cfg.simThreads = lanes;
        gpusim::KernelStats got = gpusim::TimingSim(cfg).simulate(seq);
        EXPECT_EQ(ref, got) << lanes << " lane runners";
        EXPECT_EQ(gpusim::serializeKernelStats(ref),
                  gpusim::serializeKernelStats(got));
    }
    EXPECT_LE(peakRssMiB(), kRssBudgetMiB);
}
