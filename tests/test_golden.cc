/**
 * @file
 * Golden-figure regression corpus: every figure/table the repo
 * reproduces is pinned byte-for-byte against a checked-in reference
 * under tests/golden/. Any change to a workload, the cache or GPU
 * timing simulators, or a figure builder that alters reproduced
 * output must come with a deliberate regeneration of the corpus
 * (run the DISABLED_RegenerateCorpus test below), turning silent
 * output drift into an explicit, reviewable diff.
 *
 * The figures are built through driver::buildFigure on a Context
 * with no result store, so the corpus pins pure computation —
 * store contents can never mask a regression here.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/context.hh"
#include "driver/executor.hh"
#include "driver/figures.hh"
#include "support/threadbudget.hh"

using namespace rodinia;

namespace {

std::filesystem::path
goldenDir()
{
    return std::filesystem::path(RODINIA_GOLDEN_DIR);
}

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

TEST(Golden, CorpusIsCompleteAndHasNoStrays)
{
    std::set<std::string> expected;
    for (const auto &def : driver::allFigures())
        expected.insert(def.id + ".txt");
    ASSERT_FALSE(expected.empty());

    std::set<std::string> present;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(
             goldenDir(), ec))
        present.insert(entry.path().filename().string());
    ASSERT_FALSE(ec) << "missing corpus directory " << goldenDir();

    EXPECT_EQ(present, expected)
        << "tests/golden/ must hold exactly one <figure-id>.txt per "
           "figure (regenerate with --gtest_also_run_disabled_tests "
           "--gtest_filter=Golden.DISABLED_RegenerateCorpus)";
}

TEST(Golden, FiguresMatchCorpusByteForByte)
{
    driver::Executor pool(0);
    driver::Context ctx(nullptr, &pool);
    for (const auto &def : driver::allFigures()) {
        SCOPED_TRACE(def.id);
        std::filesystem::path ref = goldenDir() / (def.id + ".txt");
        ASSERT_TRUE(std::filesystem::exists(ref)) << ref;
        std::string got = driver::buildFigure(def, ctx);
        EXPECT_EQ(got, slurp(ref))
            << "figure '" << def.id << "' drifted from its golden "
            << "reference; if the change is intended, regenerate the "
            << "corpus and review the diff";
    }
}

/**
 * The timing engine's determinism check at figure scale: rebuild
 * every figure with lane-runner helpers forced on and pin it against
 * the same corpus. Every sim asks for one lane runner per SM; a
 * budget capacity three above the pool's worker count leaves helpers
 * to grant even while every worker is busy (an odd count, to dodge
 * any accidentally-even partitioning symmetry). Lane runners must
 * never shift a single byte of reproduced output.
 *
 * It settles the inputs the way the experiments CLI does: one settle
 * per distinct kernel over the union of every figure's points, so
 * each kernel is recorded once and a point two figures share (Fig.
 * 1's 28-SM config is Fig. 4's 8-channel one) is simulated once. The
 * renders then find every result memoized. FiguresMatchCorpus
 * above keeps the daemon's figure-by-figure path.
 */
TEST(Golden, ParallelSimThreadsMatchCorpusByteForByte)
{
    int prev_cap = support::ThreadBudget::instance().capacity();
    {
        driver::Executor pool(0);
        support::ThreadBudget::instance().setCapacity(
            pool.threadCount() + 3);
        driver::Context ctx(nullptr, &pool);
        std::vector<const driver::FigureDef *> figures;
        for (const auto &def : driver::allFigures())
            figures.push_back(&def);
        auto kernels = driver::kernelWork(figures);
        ctx.parallelFor(kernels.size(),
                        [&](size_t i) { ctx.settle(kernels[i]); });
        for (const auto &def : driver::allFigures()) {
            SCOPED_TRACE(def.id);
            std::filesystem::path ref = goldenDir() / (def.id + ".txt");
            ASSERT_TRUE(std::filesystem::exists(ref)) << ref;
            std::string got = driver::buildFigure(def, ctx);
            EXPECT_EQ(got, slurp(ref))
                << "figure '" << def.id << "' differs between sims "
                << "with lane-runner helpers and the golden corpus";
        }
    }
    support::ThreadBudget::instance().setCapacity(prev_cap);
}

/**
 * Corpus writer, excluded from normal runs. Regenerate after an
 * intended output change:
 *
 *   ./tests/test_golden --gtest_also_run_disabled_tests \
 *       --gtest_filter=Golden.DISABLED_RegenerateCorpus
 */
TEST(Golden, DISABLED_RegenerateCorpus)
{
    std::filesystem::create_directories(goldenDir());
    driver::Executor pool(0);
    driver::Context ctx(nullptr, &pool);
    for (const auto &def : driver::allFigures()) {
        std::ofstream out(goldenDir() / (def.id + ".txt"),
                          std::ios::binary);
        out << driver::buildFigure(def, ctx);
        ASSERT_TRUE(out.good()) << def.id;
    }
}
