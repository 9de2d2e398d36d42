/**
 * @file
 * Driver subsystem tests: job-graph execution order, dependency
 * failure propagation, executor determinism across thread counts,
 * ResultStore hit/miss/version-invalidation behavior, and the
 * FlightMemo single-flight contract behind driver::Context.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "driver/context.hh"
#include "driver/executor.hh"
#include "driver/figures.hh"
#include "driver/flight_memo.hh"
#include "driver/job.hh"
#include "driver/result_store.hh"
#include "support/cancel.hh"
#include "support/faultinject.hh"
#include "support/metrics.hh"

using namespace rodinia;
using driver::Executor;
using driver::JobGraph;
using driver::JobStatus;
using driver::ResultStore;

namespace {

/** Fresh scratch directory under the build tree. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path(std::filesystem::temp_directory_path() /
               ("rodinia_driver_test_" + tag))
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    const std::filesystem::path &dir() const { return path; }

  private:
    std::filesystem::path path;
};

/** A registry counter's current value; tests assert deltas. */
uint64_t
counter(const char *name, const char *label = "")
{
    return support::metrics::Registry::global().snapshot().value(name,
                                                                 label);
}

/** Poll @p pred (max ~10 s); returns its final value. */
template <typename Pred>
bool
eventually(Pred pred)
{
    for (int i = 0; i < 1000; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
}

} // namespace

// ---------------------------------------------------------------
// JobGraph
// ---------------------------------------------------------------

TEST(JobGraph, ExecutesDependenciesFirst)
{
    // Diamond with a tail: a -> {b, c} -> d -> e.
    JobGraph g;
    std::mutex mu;
    std::vector<std::string> order;
    auto record = [&](const char *tag) {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(tag);
    };
    size_t a = g.add("a", [&] { record("a"); });
    size_t b = g.add("b", [&] { record("b"); }, {a});
    size_t c = g.add("c", [&] { record("c"); }, {a});
    size_t d = g.add("d", [&] { record("d"); }, {b, c});
    g.add("e", [&] { record("e"); }, {d});

    for (int threads : {1, 4}) {
        order.clear();
        JobGraph run = g; // statuses are per-run
        Executor ex(threads);
        ASSERT_TRUE(ex.run(run));
        EXPECT_TRUE(run.allDone());
        ASSERT_EQ(order.size(), 5u);
        auto pos = [&](const std::string &tag) {
            for (size_t i = 0; i < order.size(); ++i)
                if (order[i] == tag)
                    return i;
            return size_t(-1);
        };
        EXPECT_LT(pos("a"), pos("b"));
        EXPECT_LT(pos("a"), pos("c"));
        EXPECT_LT(pos("b"), pos("d"));
        EXPECT_LT(pos("c"), pos("d"));
        EXPECT_LT(pos("d"), pos("e"));
    }
}

TEST(JobGraph, RejectsForwardDependencies)
{
    JobGraph g;
    size_t a = g.add("a", [] {});
    EXPECT_DEATH(g.add("b", [] {}, {a + 1}), "depends on job");
}

TEST(JobGraph, FailurePropagatesToTransitiveDependents)
{
    JobGraph g;
    std::atomic<int> ran{0};
    size_t a = g.add("a", [&] { ++ran; });
    size_t boom = g.add(
        "boom", [&] { throw std::runtime_error("kaput"); }, {a});
    size_t child = g.add("child", [&] { ++ran; }, {boom});
    size_t grandchild = g.add("grandchild", [&] { ++ran; }, {child});
    size_t bystander = g.add("bystander", [&] { ++ran; }, {a});

    Executor ex(2);
    EXPECT_FALSE(ex.run(g));
    EXPECT_EQ(g.job(a).status, JobStatus::Done);
    EXPECT_EQ(g.job(boom).status, JobStatus::Failed);
    EXPECT_EQ(g.job(boom).error, "kaput");
    EXPECT_EQ(g.job(child).status, JobStatus::Skipped);
    EXPECT_EQ(g.job(grandchild).status, JobStatus::Skipped);
    EXPECT_EQ(g.job(bystander).status, JobStatus::Done);
    EXPECT_EQ(ran.load(), 2); // a and bystander only
}

// ---------------------------------------------------------------
// Executor
// ---------------------------------------------------------------

TEST(Executor, ParallelForCoversEveryIndexExactlyOnce)
{
    Executor ex(4);
    std::vector<std::atomic<int>> hits(1000);
    ex.parallelFor(hits.size(),
                   [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Executor, ParallelForRethrowsFirstError)
{
    Executor ex(4);
    EXPECT_THROW(ex.parallelFor(64,
                                [&](size_t i) {
                                    if (i == 7)
                                        throw std::runtime_error("x");
                                }),
                 std::runtime_error);
}

TEST(Executor, NestedParallelForDoesNotDeadlock)
{
    Executor ex(2);
    JobGraph g;
    std::atomic<int> total{0};
    for (int j = 0; j < 4; ++j) {
        g.add("outer" + std::to_string(j), [&] {
            ex.parallelFor(8, [&](size_t) { total.fetch_add(1); });
        });
    }
    ASSERT_TRUE(ex.run(g));
    EXPECT_EQ(total.load(), 32);
}

TEST(Executor, DeterministicAcrossThreadCounts)
{
    // Slot-ordered assembly: the result must not depend on the
    // worker count or the interleaving.
    auto compute = [](int threads) {
        Executor ex(threads);
        JobGraph g;
        std::vector<double> slots(64, 0.0);
        for (size_t j = 0; j < slots.size(); ++j) {
            g.add("slot" + std::to_string(j), [&slots, j, &ex] {
                double acc = double(j) + 1.0;
                std::vector<double> parts(16, 0.0);
                ex.parallelFor(16, [&](size_t i) {
                    // independent per-iteration contribution
                    parts[i] += 0.0; // no cross-iteration state
                });
                for (int i = 0; i < 1000; ++i)
                    acc = acc * 1.0000001 + double(j % 7);
                slots[j] = acc;
            });
        }
        bool ok = ex.run(g);
        EXPECT_TRUE(ok);
        return slots;
    };
    auto serial = compute(1);
    auto wide = compute(8);
    EXPECT_EQ(serial, wide);
}

TEST(Executor, DependentsRunExactlyOnceUnderContention)
{
    // An instantly-finishing root fanning out to many dependents,
    // with independent tail work racing the wakeup: every job must
    // run exactly once regardless of which worker claims it.
    constexpr int kFan = 24;
    for (int iter = 0; iter < 10; ++iter) {
        JobGraph g;
        std::array<std::atomic<int>, 2 * kFan> counts{};
        size_t root = g.add("root", [] {});
        for (int i = 0; i < kFan; ++i)
            g.add("dep" + std::to_string(i),
                  [&counts, i] { ++counts[size_t(i)]; }, {root});
        for (int i = 0; i < kFan; ++i)
            g.add("free" + std::to_string(i),
                  [&counts, i] { ++counts[size_t(kFan + i)]; });
        Executor ex(4);
        ASSERT_TRUE(ex.run(g));
        EXPECT_TRUE(g.allDone());
        for (int i = 0; i < 2 * kFan; ++i)
            EXPECT_EQ(counts[size_t(i)].load(), 1) << "job " << i;
    }
}

TEST(Executor, RootsStartInGraphOrder)
{
    // One worker runs the roots one at a time, so the order they run
    // in is the order the pool starts them in: graph order, every
    // time (callers add the jobs that gate the most work first).
    constexpr size_t kRoots = 16;
    std::vector<size_t> expected;
    for (size_t i = 0; i < kRoots; ++i)
        expected.push_back(i);
    for (int run = 0; run < 20; ++run) {
        Executor ex(1);
        JobGraph g;
        std::vector<size_t> order;
        for (size_t i = 0; i < kRoots; ++i)
            g.add("root" + std::to_string(i),
                  [&order, i] { order.push_back(i); });
        ASSERT_TRUE(ex.run(g));
        EXPECT_EQ(order, expected) << "run " << run;
    }
}

TEST(Executor, WallClockAccountingIsRecorded)
{
    Executor ex(2);
    JobGraph g;
    g.add("sleepless", [] {
        volatile double x = 0;
        for (int i = 0; i < 100000; ++i)
            x = x + double(i);
    });
    ASSERT_TRUE(ex.run(g));
    EXPECT_EQ(g.job(0).status, JobStatus::Done);
    EXPECT_GE(g.job(0).wallMs, 0.0);
    EXPECT_GE(g.totalWorkMs(), g.job(0).wallMs);
}

// ---------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------

TEST(ResultStore, MissThenHit)
{
    ScratchDir scratch("store");
    ResultStore store(scratch.dir());
    auto key = driver::cpuCharKey("kmeans", core::Scale::Full, 8);

    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_EQ(store.misses(), 1u);

    store.store(key, "payload-bytes");
    auto back = store.load(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "payload-bytes");
    EXPECT_EQ(store.hits(), 1u);
}

TEST(ResultStore, KeyFieldsChangeThePath)
{
    ScratchDir scratch("keys");
    ResultStore store(scratch.dir());
    auto base = driver::cpuCharKey("kmeans", core::Scale::Full, 8);

    auto otherScale = driver::cpuCharKey("kmeans", core::Scale::Small, 8);
    auto otherThreads = driver::cpuCharKey("kmeans", core::Scale::Full, 4);
    auto otherName = driver::cpuCharKey("bfs", core::Scale::Full, 8);
    EXPECT_NE(store.pathFor(base), store.pathFor(otherScale));
    EXPECT_NE(store.pathFor(base), store.pathFor(otherThreads));
    EXPECT_NE(store.pathFor(base), store.pathFor(otherName));

    auto config = base;
    config.config = "simd=16";
    EXPECT_NE(store.pathFor(base), store.pathFor(config));

    store.store(base, "one");
    EXPECT_FALSE(store.load(otherScale).has_value());
    EXPECT_FALSE(store.load(otherThreads).has_value());
}

TEST(ResultStore, VersionBumpInvalidates)
{
    ScratchDir scratch("version");
    auto key = driver::cpuCharKey("kmeans", core::Scale::Full, 8);

    ResultStore v5(scratch.dir(), true, 5);
    v5.store(key, "v5-payload");
    ASSERT_TRUE(v5.load(key).has_value());

    ResultStore v6(scratch.dir(), true, 6);
    EXPECT_FALSE(v6.load(key).has_value());
}

TEST(ResultStore, DisabledStoreNeverHits)
{
    ScratchDir scratch("disabled");
    ResultStore store(scratch.dir(), false);
    auto key = driver::cpuCharKey("kmeans", core::Scale::Full, 8);
    store.store(key, "ignored");
    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_FALSE(std::filesystem::exists(store.pathFor(key)));
}

TEST(ResultStore, PublishesAtomicallyWithoutTempDroppings)
{
    ScratchDir scratch("atomic");
    ResultStore store(scratch.dir());
    auto key = driver::cpuCharKey("srad", core::Scale::Full, 8);
    store.store(key, "payload");
    // Exactly the final file, no *.tmp left behind.
    size_t files = 0;
    for (const auto &ent :
         std::filesystem::directory_iterator(scratch.dir())) {
        ++files;
        EXPECT_EQ(ent.path(), store.pathFor(key));
    }
    EXPECT_EQ(files, 1u);
}

TEST(ResultStore, ConcurrentWritersStayConsistent)
{
    ScratchDir scratch("concurrent");
    ResultStore store(scratch.dir());
    auto key = driver::cpuCharKey("lud", core::Scale::Full, 8);
    Executor ex(4);
    ex.parallelFor(32, [&](size_t) {
        store.store(key, "deterministic-payload");
    });
    auto back = store.load(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "deterministic-payload");
}

TEST(ResultStore, FailedPublishIsCountedNotTorn)
{
    ScratchDir scratch("pubfail");
    // Occupy the store's directory path with a regular file so the
    // publish path cannot create the cache directory.
    {
        std::ofstream block(scratch.dir());
        block << "in the way";
    }
    ResultStore store(scratch.dir());
    auto key = driver::cpuCharKey("bfs", core::Scale::Full, 8);
    EXPECT_FALSE(store.store(key, "payload"));
    EXPECT_EQ(store.publishFailures(), 1u);
    // The failed publish left no entry behind — absent, not torn.
    EXPECT_FALSE(store.load(key).has_value());
}

TEST(ResultStore, DiscardDropsEntryAndReclassifiesHit)
{
    ScratchDir scratch("discard");
    ResultStore store(scratch.dir());
    auto key = driver::cpuCharKey("hotspot", core::Scale::Full, 8);
    ASSERT_TRUE(store.store(key, "corrupt-but-loadable"));
    ASSERT_TRUE(store.load(key).has_value());
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 0u);

    // The caller found the payload unusable: the entry disappears
    // and the hit that surfaced it is reclassified as a miss.
    store.discard(key);
    EXPECT_FALSE(std::filesystem::exists(store.pathFor(key)));
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.misses(), 1u);

    // Self-healing: the recompute's store works and future loads hit.
    EXPECT_FALSE(store.load(key).has_value());
    ASSERT_TRUE(store.store(key, "fresh"));
    auto back = store.load(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "fresh");
}

TEST(ResultStore, CpuCharRoundTripPreservesHitDepth)
{
    core::CpuCharacterization c;
    c.name = "srad";
    c.suite = core::Suite::Rodinia;
    c.threads = 4;
    c.cacheSizes = {128 * 1024};
    c.sweep.resize(1);
    auto &s = c.sweep[0];
    s.accesses = 1000;
    s.misses = 120;
    s.hitDepth = {500, 200, 100, 80, 0, 0, 0, 0};

    core::CpuCharacterization back;
    ASSERT_TRUE(driver::parseCpuChar(driver::serializeCpuChar(c), back));
    ASSERT_EQ(back.sweep.size(), 1u);
    EXPECT_EQ(back.sweep[0].hitDepth, s.hitDepth);
    // Depth-projected miss counts survive the round trip.
    EXPECT_EQ(back.sweep[0].missesAtAssoc(1), 500u);
    EXPECT_EQ(back.sweep[0].missesAtAssoc(4), s.misses);
}

TEST(ResultStore, CpuCharRoundTrip)
{
    core::CpuCharacterization c;
    c.name = "kmeans";
    c.suite = core::Suite::Rodinia;
    c.threads = 8;
    c.mix.intOps = 10;
    c.mix.fpOps = 20;
    c.mix.branches = 5;
    c.mix.loads = 7;
    c.mix.stores = 3;
    c.memEvents = 1234;
    c.instructionSites = 44;
    c.instructionBlocks = 11;
    c.dataPages = 99;
    c.checksum = 0xdeadbeef;
    c.cacheSizes = {1024, 2048};
    c.sweep.resize(2);
    c.sweep[0].accesses = 100;
    c.sweep[0].misses = 10;
    c.sweep[1].accesses = 100;
    c.sweep[1].misses = 5;

    core::CpuCharacterization back;
    ASSERT_TRUE(driver::parseCpuChar(driver::serializeCpuChar(c), back));
    EXPECT_EQ(back.name, c.name);
    EXPECT_EQ(back.threads, c.threads);
    EXPECT_EQ(back.checksum, c.checksum);
    ASSERT_EQ(back.cacheSizes.size(), 2u);
    EXPECT_EQ(back.cacheSizes[1], 2048u);
    EXPECT_EQ(back.sweep[1].misses, 5u);

    core::CpuCharacterization bad;
    EXPECT_FALSE(driver::parseCpuChar("garbage", bad));
    EXPECT_FALSE(driver::parseCpuChar("", bad));
    // Truncated payload (as a crash mid-write would have produced
    // without atomic publication) must be rejected, not half-read.
    auto full = driver::serializeCpuChar(c);
    EXPECT_FALSE(
        driver::parseCpuChar(full.substr(0, full.size() / 2), bad));
}

// ---------------------------------------------------------------
// Context
// ---------------------------------------------------------------

TEST(Context, MemoizesAndCachesCharacterizations)
{
    ScratchDir scratch("ctx");
    ResultStore store(scratch.dir());
    std::string firstBytes;
    {
        driver::Context ctx(&store);
        const auto &first =
            ctx.cpu("kmeans", core::Scale::Tiny, 2);
        const auto &second =
            ctx.cpu("kmeans", core::Scale::Tiny, 2);
        EXPECT_EQ(&first, &second); // memoized, not recomputed
        EXPECT_EQ(first.name, "kmeans");
        EXPECT_EQ(first.threads, 2);
        firstBytes = driver::serializeCpuChar(first);
    }
    EXPECT_EQ(store.hits(), 0u);

    // A fresh context on the same store deserializes instead of
    // recomputing, and reproduces the computed characterization
    // byte for byte. (This round trip through the store is what
    // makes every consumer in a run see identical numbers.)
    driver::Context ctx2(&store);
    const auto &reloaded = ctx2.cpu("kmeans", core::Scale::Tiny, 2);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(driver::serializeCpuChar(reloaded), firstBytes);
}

TEST(Context, FigureRegistryIsComplete)
{
    // 17 figures: tables I+III, figs 1-12, PB, two ablations.
    EXPECT_EQ(driver::allFigures().size(), 17u);
    EXPECT_NE(driver::findFigure("fig4"), nullptr);
    EXPECT_NE(driver::findFigure("pb"), nullptr);
    EXPECT_EQ(driver::findFigure("nope"), nullptr);
    for (const auto &def : driver::allFigures()) {
        EXPECT_FALSE(def.id.empty());
        EXPECT_FALSE(def.title.empty());
        EXPECT_NE(def.render, nullptr);
    }
}

TEST(Context, FigureOrderIsThreadSafeUnderConcurrentFirstUse)
{
    Executor ex(4);
    std::atomic<size_t> sum{0};
    ex.parallelFor(64, [&](size_t) {
        sum.fetch_add(driver::figureOrder().size());
    });
    EXPECT_EQ(sum.load(), 64u * 12u);
}

TEST(Figures, ConcurrentFirstLookupSeesOneTable)
{
    // ctest runs each test in its own process, so this is the
    // process's first lookup: 8 threads race to build the table, as
    // the daemon's per-connection reader threads may.
    constexpr size_t kThreads = 8;
    std::atomic<bool> go{false};
    std::vector<const driver::FigureDef *> got(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            got[t] = driver::findFigure("fig1");
        });
    go.store(true);
    for (auto &th : threads)
        th.join();
    ASSERT_NE(got[0], nullptr);
    for (const auto *def : got)
        EXPECT_EQ(def, got[0]);
}

TEST(Context, ShippedVersionSharesOneRecording)
{
    // Version 0 names the shipped kernel, SRAD v2: both names record
    // the same kernel, and a Context records and hashes it once for
    // both.
    const auto tiny = core::Scale::Tiny;
    EXPECT_EQ(driver::gpuVersion("srad", 0), 2);
    EXPECT_EQ(driver::gpuVersion("srad", 1), 1);
    const uint64_t v2 =
        gpusim::contentHash(driver::recordGpuLaunch("srad", tiny, 2));
    EXPECT_EQ(gpusim::contentHash(driver::recordGpuLaunch("srad", tiny, 0)),
              v2);
    driver::Context ctx;
    uint64_t records0 = counter("gpusim.record.calls");
    uint64_t hashes0 = counter("gpusim.hash.calls");
    EXPECT_EQ(ctx.recordingHash("srad", tiny, 0), v2);
    EXPECT_EQ(ctx.recordingHash("srad", tiny, 2), v2);
    EXPECT_EQ(counter("gpusim.record.calls"), records0 + 1);
    EXPECT_EQ(counter("gpusim.hash.calls"), hashes0 + 1);
    EXPECT_NE(ctx.recordingHash("srad", tiny, 1), v2);
    EXPECT_EQ(counter("gpusim.record.calls"), records0 + 2);
}

namespace {

/** Sets the primary scale for one test and restores Full after. */
class PrimaryScaleGuard
{
  public:
    explicit PrimaryScaleGuard(core::Scale scale)
    {
        driver::setPrimaryScale(scale);
    }
    ~PrimaryScaleGuard() { driver::setPrimaryScale(core::Scale::Full); }
};

} // namespace

TEST(Context, TraceFiguresAnalyseEachRecordingOnce)
{
    // Figs. 2 and 3 read the 12 shipped recordings and Table III its
    // 8 versions, 4 of them shipped: 16 distinct trace analyses, each
    // taken once from a warp-trace build however the figures overlap
    // on the pool.
    PrimaryScaleGuard scale(core::Scale::Tiny);
    Executor ex(4);
    driver::Context ctx(nullptr, &ex);
    uint64_t replays0 = counter("gpusim.replay.analyses");
    JobGraph g;
    std::vector<std::string> text(3);
    const char *ids[3] = {"fig2", "fig3", "table3"};
    for (size_t i = 0; i < 3; ++i) {
        const auto *def = driver::findFigure(ids[i]);
        ASSERT_NE(def, nullptr);
        g.add(ids[i], [&text, &ctx, def, i] {
            text[i] = driver::buildFigure(*def, ctx);
        });
    }
    ASSERT_TRUE(ex.run(g));
    EXPECT_EQ(counter("gpusim.replay.analyses"), replays0 + 16);
    for (const auto &t : text)
        EXPECT_FALSE(t.empty());
    EXPECT_EQ(&ctx.traceStats("srad", core::Scale::Tiny, 0),
              &ctx.traceStats("srad", core::Scale::Tiny, 2));
    EXPECT_EQ(counter("gpusim.replay.analyses"), replays0 + 16);
}

TEST(Context, ParallelFigureMatchesSerialFigure)
{
    // The smallest GPU figure: ablation_coalesce records three
    // Small-scale kernels. Serial context vs pooled context must
    // render identical bytes.
    const auto *def = driver::findFigure("ablation_coalesce");
    ASSERT_NE(def, nullptr);

    driver::Context serial;
    std::string serialText = driver::buildFigure(*def, serial);

    Executor ex(4);
    driver::Context pooled(nullptr, &ex);
    std::string pooledText = driver::buildFigure(*def, pooled);

    EXPECT_FALSE(serialText.empty());
    EXPECT_EQ(serialText, pooledText);
}

// ---------------------------------------------------------------
// Context::gpuStats (memoized, store-backed timing simulation)
// ---------------------------------------------------------------

TEST(GpuStats, MemoizesWithinAProcessAndCachesAcrossProcesses)
{
    ScratchDir scratch("gpustats");
    gpusim::SimConfig cfg = gpusim::SimConfig::shaders(4);

    gpusim::KernelStats first;
    {
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        uint64_t sims0 = counter("gpusim.sims_run");
        uint64_t served0 = counter("gpusim.store_served");
        const auto &a =
            ctx.gpuStats("kmeans", core::Scale::Tiny, 0, cfg);
        const auto &b =
            ctx.gpuStats("kmeans", core::Scale::Tiny, 0, cfg);
        EXPECT_EQ(&a, &b); // memoized, not re-simulated
        EXPECT_GT(a.cycles, 0u);
        EXPECT_EQ(counter("gpusim.store_served"), served0);
        EXPECT_EQ(counter("gpusim.sims_run"), sims0 + 1);
        first = a;
    }

    // A fresh context on the same store must serve the stats from
    // disk — zero simulations — and reproduce them byte for byte.
    ResultStore store(scratch.dir());
    driver::Context ctx2(&store);
    uint64_t sims0 = counter("gpusim.sims_run");
    uint64_t served0 = counter("gpusim.store_served");
    const auto &reloaded =
        ctx2.gpuStats("kmeans", core::Scale::Tiny, 0, cfg);
    EXPECT_EQ(counter("gpusim.store_served"), served0 + 1);
    EXPECT_EQ(counter("gpusim.sims_run"), sims0);
    EXPECT_TRUE(reloaded == first);
    EXPECT_EQ(gpusim::serializeKernelStats(reloaded),
              gpusim::serializeKernelStats(first));
}

TEST(GpuStats, DistinctConfigsSimulateSeparately)
{
    driver::Context ctx; // no store: pure memoization
    uint64_t sims0 = counter("gpusim.sims_run");
    const auto &sa = ctx.gpuStats("kmeans", core::Scale::Tiny, 0,
                                  gpusim::SimConfig::shaders(4));
    const auto &sb = ctx.gpuStats("kmeans", core::Scale::Tiny, 0,
                                  gpusim::SimConfig::shaders(8));
    EXPECT_NE(&sa, &sb); // different fingerprint, different entry
    EXPECT_GT(sa.cycles, 0u);
    EXPECT_GT(sb.cycles, 0u);
    EXPECT_LE(sb.cycles, sa.cycles); // more shaders never slower
    EXPECT_EQ(counter("gpusim.sims_run"), sims0 + 2);
}

TEST(GpuStats, ShippedAndExplicitVersionShareOneStoreEntry)
{
    ScratchDir scratch("gpustats_version");
    gpusim::SimConfig cfg = gpusim::SimConfig::shaders(4);
    {
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        uint64_t sims0 = counter("gpusim.sims_run");
        EXPECT_FALSE(ctx.gpuStatsWarm("srad", core::Scale::Tiny, 2, cfg));
        const auto &shipped =
            ctx.gpuStats("srad", core::Scale::Tiny, 0, cfg);
        EXPECT_TRUE(ctx.gpuStatsWarm("srad", core::Scale::Tiny, 2, cfg));
        const auto &v2 = ctx.gpuStats("srad", core::Scale::Tiny, 2, cfg);
        EXPECT_EQ(&shipped, &v2);
        EXPECT_EQ(counter("gpusim.sims_run"), sims0 + 1);
    }

    // The store key carries no version: a fresh Context asking for
    // v2 by number finds the entry the shipped-version call wrote.
    ResultStore store(scratch.dir());
    driver::Context ctx(&store);
    ctx.recordingHash("srad", core::Scale::Tiny, 2);
    EXPECT_TRUE(ctx.gpuStatsWarm("srad", core::Scale::Tiny, 2, cfg));
    uint64_t sims0 = counter("gpusim.sims_run");
    uint64_t served0 = counter("gpusim.store_served");
    ctx.gpuStats("srad", core::Scale::Tiny, 2, cfg);
    EXPECT_EQ(counter("gpusim.sims_run"), sims0);
    EXPECT_EQ(counter("gpusim.store_served"), served0 + 1);
}

TEST(Context, GpuFigureIsByteIdenticalColdVersusWarm)
{
    ScratchDir scratch("figwarm");
    const auto *def = driver::findFigure("ablation_coalesce");
    ASSERT_NE(def, nullptr);

    std::string cold;
    {
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        uint64_t sims0 = counter("gpusim.sims_run");
        uint64_t served0 = counter("gpusim.store_served");
        cold = driver::buildFigure(*def, ctx);
        EXPECT_EQ(counter("gpusim.store_served"), served0);
        EXPECT_GT(counter("gpusim.sims_run"), sims0);
    }

    // Warm rerun in a new process-equivalent (fresh Context), with a
    // worker pool for good measure: every simulation must come from
    // the store and the rendered figure must not change by a byte.
    ResultStore store(scratch.dir());
    Executor ex(4);
    driver::Context ctx(&store, &ex);
    uint64_t sims0 = counter("gpusim.sims_run");
    uint64_t served0 = counter("gpusim.store_served");
    std::string warm = driver::buildFigure(*def, ctx);
    EXPECT_EQ(warm, cold);
    EXPECT_GT(counter("gpusim.store_served"), served0);
    EXPECT_EQ(counter("gpusim.sims_run"), sims0);
}

// ---------------------------------------------------------------
// KernelPass: one pass per kernel records once, a render never does
// ---------------------------------------------------------------

TEST(KernelPass, RenderNeverRecords)
{
    // Each GPU figure on a fresh store-less pooled Context: the build
    // settles one pass per distinct kernel it declares, recording each
    // kernel once (fig5 reads 36 sims of 12 kernels: 12 recordings),
    // and the render reads only memoized results. A second build
    // records and simulates nothing.
    PrimaryScaleGuard scale(core::Scale::Tiny);
    Executor ex(4);
    size_t gpuFigures = 0;
    for (const auto &def : driver::allFigures()) {
        if (def.gpuDeps.empty())
            continue;
        SCOPED_TRACE(def.id);
        ++gpuFigures;
        const auto kernels = driver::kernelWork({&def});
        size_t sims = 0;
        for (const auto &k : kernels)
            sims += k.sims.size();
        if (def.id == "fig5") {
            EXPECT_EQ(def.simKernels.size() * def.simConfigs.size(), 36u);
            EXPECT_EQ(kernels.size(), 12u);
        }
        driver::Context ctx(nullptr, &ex);
        uint64_t records0 = counter("gpusim.record.calls");
        uint64_t sims0 = counter("gpusim.sims_run");
        std::string text = driver::buildFigure(def, ctx);
        EXPECT_FALSE(text.empty());
        EXPECT_EQ(counter("gpusim.record.calls"),
                  records0 + kernels.size());
        EXPECT_EQ(counter("gpusim.sims_run"), sims0 + sims);

        records0 = counter("gpusim.record.calls");
        sims0 = counter("gpusim.sims_run");
        EXPECT_EQ(driver::buildFigure(def, ctx), text);
        EXPECT_EQ(counter("gpusim.record.calls"), records0);
        EXPECT_EQ(counter("gpusim.sims_run"), sims0);
    }
    // Figs. 1-5, Table III, PB and the coalescing ablation.
    EXPECT_EQ(gpuFigures, 8u);
}

TEST(KernelPass, PooledSettleSimulatesEveryConfigOnOneRecording)
{
    // One kernel, many configs and its trace analysis, settled on a
    // 4-worker pool: every sim reads the one recording while the
    // stats and trace memos settle around it. The results are the
    // ones a serial Context computes point by point.
    driver::KernelWork work{"hotspot", core::Scale::Tiny, 0, {}, true};
    for (int shaders : {1, 2, 4, 8, 14, 28})
        work.sims.push_back(gpusim::SimConfig::shaders(shaders));
    work.sims.push_back(gpusim::SimConfig::gtx280());
    work.sims.push_back(gpusim::SimConfig::gtx480(true));

    Executor ex(4);
    driver::Context ctx(nullptr, &ex);
    uint64_t records0 = counter("gpusim.record.calls");
    uint64_t sims0 = counter("gpusim.sims_run");
    uint64_t replays0 = counter("gpusim.replay.calls");
    JobGraph g;
    g.add("gpu:hotspot", [&] { ctx.settle(work); });
    ASSERT_TRUE(ex.run(g));
    EXPECT_EQ(counter("gpusim.record.calls"), records0 + 1);
    EXPECT_EQ(counter("gpusim.sims_run"), sims0 + work.sims.size());
    EXPECT_EQ(counter("gpusim.replay.calls"), replays0 + 1);

    driver::Context serial;
    for (const auto &cfg : work.sims)
        EXPECT_EQ(gpusim::serializeKernelStats(
                      ctx.gpuStats("hotspot", core::Scale::Tiny, 0, cfg)),
                  gpusim::serializeKernelStats(serial.gpuStats(
                      "hotspot", core::Scale::Tiny, 0, cfg)));
    EXPECT_EQ(gpusim::serializeTraceStats(
                  ctx.traceStats("hotspot", core::Scale::Tiny)),
              gpusim::serializeTraceStats(
                  serial.traceStats("hotspot", core::Scale::Tiny)));

    // Settled: a second pass does no work.
    records0 = counter("gpusim.record.calls");
    sims0 = counter("gpusim.sims_run");
    ctx.settle(work);
    EXPECT_EQ(counter("gpusim.record.calls"), records0);
    EXPECT_EQ(counter("gpusim.sims_run"), sims0);
}

TEST(KernelPass, SettleFreesTheLanesBeforeItsSimsRun)
{
    // A pooled settle of N configs plus the analysis records hotspot
    // once and replays it once; each sim then stalls on its trace.
    // While they stall, nw is recorded and replayed. Had hotspot's
    // lanes outlived its build, two recordings would have been alive
    // at once; its trace, which the stalled sims read, is.
    support::metrics::Registry::global().clear();
    support::FaultInjector::instance().configure(
        "stall=sim:hotspot/s0/@800");
    driver::KernelWork work{"hotspot", core::Scale::Tiny, 0, {}, true};
    for (int shaders : {1, 2, 4, 8})
        work.sims.push_back(gpusim::SimConfig::shaders(shaders));
    Executor ex(4);
    driver::Context ctx(nullptr, &ex);
    std::thread settler([&] { ctx.settle(work); });
    // The build's counter moves only once the lanes are gone.
    bool built =
        eventually([] { return counter("gpusim.replay.calls") == 1; });
    if (built)
        ctx.gpuStats("nw", core::Scale::Tiny, 0,
                     gpusim::SimConfig::shaders(2));
    settler.join();
    support::FaultInjector::instance().configure("");
    ASSERT_TRUE(built);
    EXPECT_EQ(counter("gpusim.record.calls"), 2u);
    EXPECT_EQ(counter("gpusim.replay.calls"), 2u);
    EXPECT_EQ(counter("gpusim.replay.analyses"), 1u);
    EXPECT_EQ(counter("gpusim.sims_run"), work.sims.size() + 1);
    EXPECT_EQ(counter("gpusim.record.resident_max"), 1u);
    EXPECT_EQ(counter("gpusim.replay.resident_max"), 2u);
    EXPECT_GT(counter("gpusim.replay.encoded_bytes", "hotspot/s0/v1"), 0u);
}

TEST(KernelPass, OtherWarpSizeSimulatesItsOwnReplay)
{
    // A warp-16 sim records the kernel once, replays it at 16 lanes
    // and matches a direct simulation of the recording. A warp-32 sim
    // of the same kernel then records it again, since the pass kept
    // no lanes, and reads its own trace.
    gpusim::SimConfig w16 = gpusim::SimConfig::gpgpusimDefault();
    w16.warpSize = 16;
    w16.simdWidth = 8;
    driver::Context ctx;
    uint64_t records0 = counter("gpusim.record.calls");
    const auto &got = ctx.gpuStats("backprop", core::Scale::Tiny, 0, w16);
    EXPECT_EQ(counter("gpusim.record.calls"), records0 + 1);
    EXPECT_EQ(gpusim::serializeKernelStats(got),
              gpusim::serializeKernelStats(gpusim::TimingSim(w16).simulate(
                  driver::recordGpuLaunch("backprop", core::Scale::Tiny))));
    const auto &w32 = ctx.gpuStats("backprop", core::Scale::Tiny, 0,
                                   gpusim::SimConfig::gpgpusimDefault());
    EXPECT_EQ(counter("gpusim.record.calls"), records0 + 2);
    EXPECT_NE(gpusim::serializeKernelStats(w32),
              gpusim::serializeKernelStats(got));
}

TEST(KernelPass, CancelledCallerLeavesItsJoinersTheBuild)
{
    // The first call for nw stalls inside the trace build it shares;
    // a call for another config joins that build. Cancelling the
    // first call fails only it, at its own checkpoint before its
    // sim: the build completes and the joined call simulates on it.
    support::metrics::Registry::global().clear();
    support::FaultInjector::instance().configure("stall=replay:nw/s0/@500");
    driver::Context ctx(nullptr, nullptr);
    support::CancelToken token;
    std::string leaderError, joinerError, joined;
    std::thread leader([&] {
        support::CancelScope scope(&token);
        try {
            ctx.gpuStats("nw", core::Scale::Tiny, 0,
                         gpusim::SimConfig::shaders(2));
        } catch (const std::exception &e) {
            leaderError = e.what();
        }
    });
    bool stalled = eventually([] {
        return support::FaultInjector::instance().stallsServed() == 1;
    });
    std::thread joiner([&] {
        try {
            joined = gpusim::serializeKernelStats(ctx.gpuStats(
                "nw", core::Scale::Tiny, 0, gpusim::SimConfig::shaders(4)));
        } catch (const std::exception &e) {
            joinerError = e.what();
        }
    });
    bool waiting =
        eventually([] { return counter("memo.joins", "replay") == 1; });
    token.cancel("request cancelled");
    leader.join();
    joiner.join();
    support::FaultInjector::instance().configure("");
    ASSERT_TRUE(stalled);
    ASSERT_TRUE(waiting);
    EXPECT_EQ(leaderError, "request cancelled");
    EXPECT_EQ(joinerError, "");
    EXPECT_EQ(counter("gpusim.record.calls"), 1u);
    EXPECT_EQ(counter("gpusim.replay.calls"), 1u);
    EXPECT_EQ(counter("gpusim.sims_run"), 1u);
    EXPECT_EQ(joined, gpusim::serializeKernelStats(
                          gpusim::TimingSim(gpusim::SimConfig::shaders(4))
                              .simulate(driver::recordGpuLaunch(
                                  "nw", core::Scale::Tiny))));
}

TEST(KernelPass, StoredResultsBuildNoTrace)
{
    // A new build finds hotspot's results stored under its content
    // hash but no index entry of its own, so it records to prove the
    // hash. No result is missing, so no trace is built and the lanes
    // leave with the pass; a later miss records and builds afresh.
    ScratchDir scratch("stored_no_trace");
    ResultStore store(scratch.dir());
    driver::KernelWork work{"hotspot", core::Scale::Tiny, 0, {}, true};
    for (int shaders : {2, 4})
        work.sims.push_back(gpusim::SimConfig::shaders(shaders));
    {
        driver::Context fill(&store, nullptr);
        fill.settle(work);
    }
    size_t dropped = 0;
    for (const auto &e : std::filesystem::directory_iterator(scratch.dir()))
        if (e.path().filename().string().rfind("recindex_", 0) == 0)
            dropped += std::filesystem::remove(e.path());
    ASSERT_EQ(dropped, 1u);

    support::metrics::Registry::global().clear();
    driver::Context ctx(&store, nullptr);
    ctx.settle(work);
    EXPECT_EQ(counter("gpusim.record.calls"), 1u);
    EXPECT_EQ(counter("gpusim.replay.calls"), 0u);
    EXPECT_EQ(counter("gpusim.sims_run"), 0u);
    ctx.gpuStats("hotspot", core::Scale::Tiny, 0,
                 gpusim::SimConfig::shaders(8));
    EXPECT_EQ(counter("gpusim.record.calls"), 2u);
    EXPECT_EQ(counter("gpusim.replay.calls"), 1u);
    EXPECT_EQ(counter("gpusim.sims_run"), 1u);
    EXPECT_EQ(counter("gpusim.record.resident_max"), 1u);
}

TEST(KernelPass, AllFigureBuildHoldsAtMostOneRecordingPerWorker)
{
    // The experiments CLI's graph at Tiny scale on a 4-worker pool:
    // one settle job per distinct kernel, then the figure renders. A
    // recording lives only while a call that needs it runs, so at
    // most one is alive per worker. The registry starts empty, so the
    // gauge's high-water mark is this build's alone.
    PrimaryScaleGuard scale(core::Scale::Tiny);
    support::metrics::Registry::global().clear();
    std::vector<const driver::FigureDef *> defs;
    for (const auto &def : driver::allFigures())
        defs.push_back(&def);
    const auto kernels = driver::kernelWork(defs);
    EXPECT_EQ(kernels.size(), 28u);

    Executor ex(4);
    driver::Context ctx(nullptr, &ex);
    uint64_t records0 = counter("gpusim.record.calls");
    JobGraph g;
    std::vector<size_t> settled;
    for (const auto &k : kernels)
        settled.push_back(
            g.add("gpu:" + k.workload, [&ctx, &k] { ctx.settle(k); }));
    std::vector<std::string> text(defs.size());
    for (size_t i = 0; i < defs.size(); ++i)
        g.add(
            "figure:" + defs[i]->id,
            [&ctx, &text, &defs, i] {
                text[i] = driver::buildFigure(*defs[i], ctx);
            },
            settled);
    ASSERT_TRUE(ex.run(g));
    EXPECT_EQ(counter("gpusim.record.calls"), records0 + kernels.size());
    uint64_t resident =
        support::metrics::Registry::global().snapshot().value(
            "gpusim.record.resident_max");
    EXPECT_GE(resident, 1u);
    EXPECT_LE(resident, 4u);
}

TEST(KernelPass, OverlappingCallsShareOneRecording)
{
    // Five sims of one kernel under distinct configs start together,
    // and each stalls after it has read the recording, so every call
    // overlaps the others. They share one recording instead of making
    // five. Once the last has returned the recording is freed: a
    // later miss of the same kernel records it again.
    support::FaultInjector::instance().configure("stall=sim:nw/s0/@200");
    driver::Context ctx;
    uint64_t records0 = counter("gpusim.record.calls");
    uint64_t sims0 = counter("gpusim.sims_run");
    constexpr int kCalls = 5;
    std::vector<uint64_t> cycles(kCalls, 0);
    std::vector<std::thread> threads;
    for (int i = 0; i < kCalls; ++i)
        threads.emplace_back([&, i] {
            auto cfg = gpusim::SimConfig::shaders(1 << i);
            cycles[size_t(i)] =
                ctx.gpuStats("nw", core::Scale::Tiny, 0, cfg).cycles;
        });
    for (auto &t : threads)
        t.join();
    support::FaultInjector::instance().configure("");
    EXPECT_EQ(counter("gpusim.record.calls"), records0 + 1);
    EXPECT_EQ(counter("gpusim.sims_run"), sims0 + kCalls);
    for (uint64_t c : cycles)
        EXPECT_GT(c, 0u);

    ctx.gpuStats("nw", core::Scale::Tiny, 0,
                 gpusim::SimConfig::shaders(3));
    EXPECT_EQ(counter("gpusim.record.calls"), records0 + 2);
}

TEST(KernelPass, FigureIsWarmOnlyWhenEveryDeclaredInputIs)
{
    // A CPU figure is warm once every characterization it reads is
    // memoized, not one fewer. A GPU figure is warm once its sims
    // and trace analyses are; a figure that declares no inputs
    // (table1, ablation_simt) never is, even after a build.
    PrimaryScaleGuard scale(core::Scale::Tiny);
    driver::Context ctx;
    const driver::FigureDef *fig10 = driver::findFigure("fig10");
    ASSERT_NE(fig10, nullptr);
    const auto names = driver::allCpuWorkloads();
    ASSERT_GT(names.size(), 1u);
    for (size_t i = 0; i + 1 < names.size(); ++i)
        ctx.cpu(names[i], core::Scale::Tiny);
    EXPECT_FALSE(driver::figureWarm(*fig10, ctx));
    ctx.cpu(names.back(), core::Scale::Tiny);
    EXPECT_TRUE(driver::figureWarm(*fig10, ctx));

    for (const char *id : {"fig2", "ablation_coalesce"}) {
        SCOPED_TRACE(id);
        const driver::FigureDef *def = driver::findFigure(id);
        ASSERT_NE(def, nullptr);
        EXPECT_FALSE(driver::figureWarm(*def, ctx));
        driver::buildFigure(*def, ctx);
        EXPECT_TRUE(driver::figureWarm(*def, ctx));
    }
    for (const char *id : {"table1", "ablation_simt"}) {
        SCOPED_TRACE(id);
        const driver::FigureDef *def = driver::findFigure(id);
        ASSERT_NE(def, nullptr);
        driver::buildFigure(*def, ctx);
        EXPECT_FALSE(driver::figureWarm(*def, ctx));
    }
}

// ---------------------------------------------------------------
// Memo: the FlightMemo single-flight contract
// ---------------------------------------------------------------

TEST(Memo, ConcurrentCallersOfOneKeyComputeOnce)
{
    driver::FlightMemo<int> memo("test-once");
    std::atomic<int> computes{0};
    constexpr size_t kThreads = 8;
    std::vector<const int *> got(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            got[t] = &memo.get("k", [&] {
                computes.fetch_add(1);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                return 42;
            });
        });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(computes.load(), 1);
    for (const int *p : got) {
        EXPECT_EQ(p, got[0]); // one entry, shared by every caller
        EXPECT_EQ(*p, 42);
    }
    EXPECT_EQ(memo.pending(), 0u);
}

TEST(Memo, ComputeErrorReachesEveryWaiterAndNextCallRecomputes)
{
    driver::FlightMemo<int> memo("test-throw");
    constexpr size_t kWaiters = 4;
    std::atomic<int> computes{0};
    // The first compute fails only once every waiter has joined it,
    // so each waiter is present when the error settles.
    auto failing = [&] {
        computes.fetch_add(1);
        while (counter("memo.joins", "test-throw") < kWaiters)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        throw std::runtime_error("compute failed");
        return 0;
    };
    std::string leaderError;
    std::thread leader([&] {
        try {
            memo.get("k", failing);
        } catch (const std::runtime_error &e) {
            leaderError = e.what();
        }
    });
    ASSERT_TRUE(eventually([&] { return memo.pending() == 1; }));
    std::vector<std::string> waiterErrors(kWaiters);
    std::array<bool, kWaiters> joined{};
    std::vector<std::thread> waiters;
    for (size_t w = 0; w < kWaiters; ++w)
        waiters.emplace_back([&, w] {
            bool j = false;
            try {
                memo.get("k", failing, &j);
            } catch (const std::runtime_error &e) {
                waiterErrors[w] = e.what();
            }
            joined[w] = j;
        });
    leader.join();
    for (auto &th : waiters)
        th.join();
    EXPECT_EQ(leaderError, "compute failed");
    for (size_t w = 0; w < kWaiters; ++w) {
        EXPECT_EQ(waiterErrors[w], "compute failed") << "waiter " << w;
        EXPECT_TRUE(joined[w]) << "waiter " << w;
    }
    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(memo.pending(), 0u);
    EXPECT_EQ(memo.done("k"), nullptr); // the failure was retired

    // The key is not poisoned: the next caller computes afresh.
    bool joined2 = true;
    EXPECT_EQ(memo.get(
                  "k",
                  [&] {
                      computes.fetch_add(1);
                      return 7;
                  },
                  &joined2),
              7);
    EXPECT_FALSE(joined2);
    EXPECT_EQ(computes.load(), 2);
}

TEST(Memo, CancelledWaiterLeavesTheComputeRunning)
{
    driver::FlightMemo<int> memo("test-cancel");
    std::atomic<bool> release{false};
    std::atomic<int> computes{0};
    int value = 0;
    std::thread leader([&] {
        value = memo.get("k", [&] {
            computes.fetch_add(1);
            while (!release.load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            return 7;
        });
    });
    ASSERT_TRUE(eventually([&] { return memo.pending() == 1; }));

    support::CancelToken token;
    std::string waiterError;
    std::thread waiter([&] {
        support::CancelScope scope(&token);
        try {
            memo.get("k", [&] {
                computes.fetch_add(1);
                return -1;
            });
        } catch (const support::CancelledError &e) {
            waiterError = e.what();
        }
    });
    ASSERT_TRUE(eventually(
        [&] { return counter("memo.joins", "test-cancel") == 1; }));
    token.cancel("waiter cancelled");
    waiter.join();
    EXPECT_EQ(waiterError, "waiter cancelled");
    // The waiter's cancel did not touch the compute it had joined.
    EXPECT_EQ(memo.pending(), 1u);
    EXPECT_EQ(memo.done("k"), nullptr);

    release.store(true);
    leader.join();
    EXPECT_EQ(value, 7);
    EXPECT_EQ(computes.load(), 1);
    ASSERT_NE(memo.done("k"), nullptr);
    EXPECT_EQ(*memo.done("k"), 7);
}

TEST(Memo, DoneNeverBlocks)
{
    driver::FlightMemo<int> memo("test-done");
    EXPECT_EQ(memo.done("k"), nullptr);
    std::atomic<bool> release{false};
    const int *settled = nullptr;
    std::thread leader([&] {
        settled = &memo.get("k", [&] {
            while (!release.load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            return 9;
        });
    });
    ASSERT_TRUE(eventually([&] { return memo.pending() == 1; }));
    // The compute stays blocked until released: done() must answer
    // "not settled" without waiting for it.
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(memo.done("k"), nullptr);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(2));
    release.store(true);
    leader.join();
    EXPECT_EQ(memo.done("k"), settled);
    EXPECT_EQ(*memo.done("k"), 9);
}

// ---------------------------------------------------------------
// ParallelGpuSim: concurrent timing simulations over one recording
// ---------------------------------------------------------------

namespace {

/**
 * Hand-built recording (no fiber-based recorder involved, so the
 * test is meaningful under TSan): every lane issues alternating
 * FP-ALU and strided global-load events with strictly increasing
 * order keys.
 */
gpusim::KernelRecording
syntheticRecording(int blocks, int block_dim, int events_per_lane)
{
    gpusim::KernelRecording rec;
    rec.launch.gridDim = blocks;
    rec.launch.blockDim = block_dim;
    for (int b = 0; b < blocks; ++b) {
        std::vector<gpusim::LaneStream> lanes(
            static_cast<size_t>(block_dim));
        for (int l = 0; l < block_dim; ++l) {
            auto &lane = lanes[size_t(l)];
            for (int e = 0; e < events_per_lane; ++e) {
                gpusim::GEvent ev;
                ev.key.hi = uint64_t(e + 1) << 48; // event "PC"
                if (e % 2 == 0) {
                    ev.op = gpusim::GOp::FpAlu;
                } else {
                    ev.op = gpusim::GOp::Load;
                    ev.space = gpusim::Space::Global;
                    ev.size = 4;
                    ev.addr = uint64_t(b * block_dim + l) * 4 +
                              uint64_t(e) * 8192;
                }
                lane.append(ev);
            }
        }
        rec.blocks.emplace_back(lanes, 0);
    }
    return rec;
}

} // namespace

TEST(ParallelGpuSim, ConcurrentSimulationsMatchSerial)
{
    auto rec = syntheticRecording(8, 64, 16);
    std::vector<gpusim::SimConfig> cfgs;
    for (int sms : {2, 4, 8, 16})
        cfgs.push_back(gpusim::SimConfig::shaders(sms));
    cfgs.push_back(gpusim::SimConfig::gtx280());
    cfgs.push_back(gpusim::SimConfig::gtx480(true));

    std::vector<gpusim::KernelStats> serial;
    for (const auto &c : cfgs)
        serial.push_back(gpusim::TimingSim(c).simulate(rec));

    // The same simulations fanned across a pool, all reading the one
    // shared recording, each writing its own slot — the exact shape
    // Context::gpuStats runs under figure jobs.
    Executor ex(4);
    std::vector<gpusim::KernelStats> pooled(cfgs.size());
    ex.parallelFor(cfgs.size(), [&](size_t i) {
        pooled[i] = gpusim::TimingSim(cfgs[i]).simulate(rec);
    });

    for (size_t i = 0; i < cfgs.size(); ++i)
        EXPECT_TRUE(pooled[i] == serial[i]) << "config " << i;
}
