/**
 * @file
 * Recording-index tests: the ResultStore entries that let a warm run
 * skip the recorder. Each kernel's content hash is indexed under the
 * build identity and each trace analysis is stored under that hash,
 * so a second Context (or a fresh daemon) on a filled store serves
 * hashes, analyses and stats without recording. Pinned here: every
 * Tiny kernel's indexed hash equals its recorded one; corrupt
 * entries self-heal; a wrong index hash loses to the recording;
 * failed publishes change no figure; a warm pooled run does zero
 * recorder work.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/context.hh"
#include "driver/executor.hh"
#include "driver/figures.hh"
#include "driver/job.hh"
#include "driver/result_store.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "support/faultinject.hh"
#include "support/metrics.hh"

using namespace rodinia;
using driver::Executor;
using driver::JobGraph;
using driver::ResultStore;

namespace {

/** Fresh scratch directory under the system temp dir. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path(std::filesystem::temp_directory_path() /
               ("rodinia_recindex_test_" + tag))
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
counter(const char *name)
{
    return support::metrics::Registry::global().snapshot().value(name);
}

/** Counter deltas since construction, for the recorder-work
 *  assertions. */
struct Work
{
    support::metrics::Snapshot at =
        support::metrics::Registry::global().snapshot();

    uint64_t
    since(const char *name) const
    {
        return counter(name) - at.value(name);
    }
};

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
spit(const std::filesystem::path &p, const std::string &bytes)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** Store entries of one kind ("recindex", "tracestats", ...). */
size_t
entries(const std::filesystem::path &dir, const std::string &kind)
{
    size_t n = 0;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec))
        n += e.path().filename().string().rfind(kind + "_", 0) == 0;
    return n;
}

/** Every distinct Tiny kernel: the 12 shipped ones plus the other
 *  versions of the multi-version workloads (Table III). */
std::vector<std::pair<std::string, int>>
tinyKernels()
{
    std::vector<std::pair<std::string, int>> out;
    for (const auto &[name, label] : driver::figureOrder()) {
        int shipped = driver::gpuVersion(name, 0);
        for (int v = 1; v <= shipped; ++v)
            out.emplace_back(name, v);
    }
    return out;
}

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

/** RAII injector configuration; restores "no faults" on exit. */
class FaultConfig
{
  public:
    explicit FaultConfig(const std::string &spec)
    {
        support::FaultInjector::instance().configure(spec);
    }
    ~FaultConfig() { support::FaultInjector::instance().configure(""); }
};

/**
 * Build figures the way the experiments CLI does: one job per
 * distinct kernel settling every point the figures declare for it,
 * and one job per figure depending on its kernels. Returns the
 * figure texts.
 */
std::vector<std::string>
runFigures(driver::Context &ctx, Executor &ex,
           const std::vector<std::string> &ids)
{
    JobGraph g;
    std::vector<std::string> text(ids.size());
    std::vector<const driver::FigureDef *> defs;
    for (const auto &id : ids) {
        defs.push_back(driver::findFigure(id));
        EXPECT_NE(defs.back(), nullptr) << id;
        if (!defs.back())
            return text;
    }
    const auto kernels = driver::kernelWork(defs);
    std::vector<size_t> deps;
    for (const auto &k : kernels)
        deps.push_back(g.add("gpu:" + k.workload,
                             [&ctx, &k] { ctx.settle(k); }));
    for (size_t i = 0; i < defs.size(); ++i)
        g.add(
            "figure:" + ids[i],
            [&ctx, &text, &defs, i] {
                text[i] = driver::buildFigure(*defs[i], ctx);
            },
            deps);
    EXPECT_TRUE(ex.run(g));
    return text;
}

} // namespace

TEST(RecordingIndex, PayloadsRoundTripAndRejectGarbage)
{
    uint64_t h = 0;
    ASSERT_TRUE(driver::parseRecordingHash(
        driver::serializeRecordingHash(0xfedcba9876543210ull), h));
    EXPECT_EQ(h, 0xfedcba9876543210ull);
    EXPECT_FALSE(driver::parseRecordingHash("", h));
    EXPECT_FALSE(driver::parseRecordingHash("recindex 2\nab\n", h));
    EXPECT_FALSE(driver::parseRecordingHash("recindex 1\nzz\n", h));
    EXPECT_FALSE(driver::parseRecordingHash("gpustats 1\nab\n", h));

    gpusim::TraceStats s;
    s.warpInstructions = 7;
    s.threadInstructions = 190;
    s.occupancyBuckets = {1, 2, 3, 1};
    s.memOps = {5, 0, 9, 0, 2, 0, 1};
    gpusim::TraceStats back;
    std::string payload = gpusim::serializeTraceStats(s);
    ASSERT_TRUE(gpusim::parseTraceStats(payload, back));
    EXPECT_EQ(gpusim::serializeTraceStats(back), payload);
    EXPECT_EQ(back.occupancyBuckets, s.occupancyBuckets);
    EXPECT_EQ(back.memOps, s.memOps);
    EXPECT_FALSE(gpusim::parseTraceStats("", back));
    EXPECT_FALSE(gpusim::parseTraceStats("tracestats 2\n1 2\n", back));
    EXPECT_FALSE(gpusim::parseTraceStats("tracestats 1\n1 2\n3\n", back));
}

TEST(RecordingIndex, EveryTinyKernelHashIsServedFromTheIndex)
{
    // The test binary is linked with a build-id note, so it has an
    // identity, and the walk runs once.
    ASSERT_NE(driver::buildIdentity(), 0u);
    EXPECT_EQ(driver::buildIdentity(), driver::buildIdentity());

    ScratchDir scratch("tiny");
    auto kernels = tinyKernels();
    ASSERT_EQ(kernels.size(), 16u);

    std::vector<uint64_t> recorded;
    {
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        Work work;
        for (const auto &[name, v] : kernels) {
            uint64_t h = ctx.recordingHash(name, core::Scale::Tiny, v);
            // A recording of its own, hashed again independently.
            EXPECT_EQ(h, gpusim::contentHash(driver::recordGpuLaunch(
                             name, core::Scale::Tiny, v)))
                << name << " v" << v;
            recorded.push_back(h);
        }
        EXPECT_EQ(work.since("gpusim.record.calls"), kernels.size());
        EXPECT_EQ(work.since("store.publishes"), kernels.size());
        EXPECT_EQ(entries(scratch.dir(), "recindex"), kernels.size());
    }

    ResultStore store(scratch.dir());
    driver::Context ctx(&store);
    Work work;
    for (size_t i = 0; i < kernels.size(); ++i) {
        const auto &[name, v] = kernels[i];
        EXPECT_EQ(ctx.recordingHash(name, core::Scale::Tiny, v),
                  recorded[i])
            << name << " v" << v;
    }
    EXPECT_EQ(work.since("gpusim.record.calls"), 0u);
    EXPECT_EQ(work.since("gpusim.hash.calls"), 0u);
    EXPECT_EQ(work.since("store.publishes"), 0u);
    EXPECT_EQ(work.since("gpusim.hash.index_served"),
              kernels.size());
    // Version 0 names the shipped kernel: the same index entry.
    EXPECT_EQ(ctx.recordingHash("srad", core::Scale::Tiny, 0),
              ctx.recordingHash("srad", core::Scale::Tiny, 2));
    EXPECT_EQ(work.since("gpusim.hash.index_served"),
              kernels.size());
}

TEST(RecordingIndex, UnparseableEntriesAreDiscardedAndRepublished)
{
    ScratchDir scratch("corrupt");
    const auto tiny = core::Scale::Tiny;
    uint64_t hash = 0;
    std::string analysis;
    {
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        analysis =
            gpusim::serializeTraceStats(ctx.traceStats("kmeans", tiny));
        hash = ctx.recordingHash("kmeans", tiny);
    }
    ResultStore store(scratch.dir());
    auto index = store.pathFor(driver::recordingIndexKey(
        "kmeans", tiny, 1, driver::buildIdentity()));
    auto trace = store.pathFor(driver::traceStatsKey("kmeans", tiny, hash));
    ASSERT_TRUE(std::filesystem::exists(index));
    ASSERT_TRUE(std::filesystem::exists(trace));
    spit(index, "recindex 1\nnot-hex\n");
    spit(trace, "tracestats 1\n12 oops\n");

    // Both loads hit, fail to parse, and are reclassified as misses;
    // the kernel is recorded and analysed again and both entries are
    // republished intact.
    {
        driver::Context ctx(&store);
        Work work;
        EXPECT_EQ(gpusim::serializeTraceStats(ctx.traceStats("kmeans", tiny)),
                  analysis);
        EXPECT_EQ(store.hits(), 0u);
        EXPECT_EQ(store.misses(), 2u);
        EXPECT_EQ(work.since("store.discards"), 2u);
        EXPECT_EQ(work.since("gpusim.record.calls"), 1u);
        EXPECT_EQ(work.since("gpusim.replay.calls"), 1u);
        EXPECT_EQ(work.since("store.publishes"), 2u);
    }
    uint64_t parsed = 0;
    EXPECT_TRUE(driver::parseRecordingHash(slurp(index), parsed));
    EXPECT_EQ(parsed, hash);
    EXPECT_EQ(slurp(trace), analysis);

    driver::Context ctx(&store);
    Work work;
    EXPECT_EQ(gpusim::serializeTraceStats(ctx.traceStats("kmeans", tiny)),
              analysis);
    EXPECT_EQ(work.since("gpusim.record.calls"), 0u);
    EXPECT_EQ(work.since("gpusim.replay.calls"), 0u);
    EXPECT_EQ(work.since("gpusim.replay.store_served"), 1u);
}

TEST(RecordingIndex, WrongIndexHashLosesToTheRecording)
{
    ScratchDir scratch("wrong");
    const auto tiny = core::Scale::Tiny;
    const gpusim::SimConfig cfg = gpusim::SimConfig::shaders(4);
    std::string stats;
    uint64_t hash = 0;
    {
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        stats = gpusim::serializeKernelStats(
            ctx.gpuStats("kmeans", tiny, 0, cfg));
        hash = ctx.recordingHash("kmeans", tiny);
    }

    // Plant a well-formed index entry naming a hash no recording of
    // this kernel produced; no stats entry exists under it.
    ResultStore store(scratch.dir());
    const uint64_t wrong = hash ^ 0x5a5a;
    auto indexKey = driver::recordingIndexKey("kmeans", tiny, 1,
                                              driver::buildIdentity());
    ASSERT_TRUE(store.store(indexKey, driver::serializeRecordingHash(wrong)));

    driver::Context ctx(&store);
    Work work;
    // The stats miss under the indexed hash forces a recording. Its
    // hash differs, so the recording wins: the mismatch is counted,
    // the index entry republished, and the stats are looked up again
    // under the recorded hash, where the store serves them.
    EXPECT_EQ(gpusim::serializeKernelStats(
                  ctx.gpuStats("kmeans", tiny, 0, cfg)),
              stats);
    EXPECT_EQ(work.since("gpusim.hash.index_mismatches"), 1u);
    EXPECT_EQ(work.since("gpusim.record.calls"), 1u);
    EXPECT_EQ(work.since("gpusim.sims_run"), 0u);
    EXPECT_EQ(work.since("gpusim.store_served"), 1u);
    uint64_t indexed = 0;
    ASSERT_TRUE(driver::parseRecordingHash(
        slurp(store.pathFor(indexKey)), indexed));
    EXPECT_EQ(indexed, hash);
    EXPECT_EQ(ctx.recordingHash("kmeans", tiny), hash);

    // Everything computed from here on is keyed by the recorded hash,
    // and nothing was ever published under the wrong one.
    ctx.traceStats("kmeans", tiny);
    ctx.gpuStats("kmeans", tiny, 0, gpusim::SimConfig::shaders(8));
    EXPECT_TRUE(std::filesystem::exists(
        store.pathFor(driver::traceStatsKey("kmeans", tiny, hash))));
    EXPECT_FALSE(std::filesystem::exists(
        store.pathFor(driver::traceStatsKey("kmeans", tiny, wrong))));
    EXPECT_FALSE(std::filesystem::exists(store.pathFor(
        driver::gpuStatsKey("kmeans", tiny, cfg.fingerprint(), wrong))));
    EXPECT_FALSE(std::filesystem::exists(store.pathFor(driver::gpuStatsKey(
        "kmeans", tiny, gpusim::SimConfig::shaders(8).fingerprint(),
        wrong))));
    EXPECT_EQ(work.since("gpusim.hash.index_mismatches"), 1u);
}

TEST(RecordingIndex, FailedPublishesKeepFiguresAndTheNextRunRecords)
{
    PrimaryScaleGuard scale(core::Scale::Tiny);
    const auto *def = driver::findFigure("fig2");
    ASSERT_NE(def, nullptr);
    driver::Context reference;
    const std::string expected = driver::buildFigure(*def, reference);
    ScratchDir scratch("publishfail");

    {
        // Every rename fails: each publish is counted and ignored,
        // and no entry lands in the store.
        FaultConfig faults("rename=1");
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        Work work;
        EXPECT_EQ(driver::buildFigure(*def, ctx), expected);
        EXPECT_EQ(work.since("gpusim.record.calls"), 12u);
        EXPECT_EQ(work.since("store.publishes"), 0u);
        // 12 index entries and 12 trace analyses.
        EXPECT_EQ(work.since("store.publish_failures"), 24u);
        EXPECT_EQ(store.publishFailures(), 24u);
        EXPECT_EQ(entries(scratch.dir(), "recindex"), 0u);
        EXPECT_EQ(entries(scratch.dir(), "tracestats"), 0u);
    }

    // Nothing was indexed, so the next run records again — and this
    // time publishes.
    ResultStore store(scratch.dir());
    driver::Context ctx(&store);
    Work work;
    EXPECT_EQ(driver::buildFigure(*def, ctx), expected);
    EXPECT_EQ(work.since("gpusim.record.calls"), 12u);
    EXPECT_EQ(work.since("store.publishes"), 24u);
    EXPECT_EQ(store.publishFailures(), 0u);
}

TEST(RecordingIndex, WarmContextOnAPoolRecordsNothing)
{
    // Cold, then warm on a fresh Context and pool, with the hash jobs
    // and the figure jobs running concurrently as in the CLI.
    PrimaryScaleGuard scale(core::Scale::Tiny);
    ScratchDir scratch("warm");
    const std::vector<std::string> ids = {"fig2", "fig3", "table3",
                                          "ablation_coalesce"};
    std::vector<std::string> cold;
    {
        ResultStore store(scratch.dir());
        Executor ex(4);
        driver::Context ctx(&store, &ex);
        Work work;
        cold = runFigures(ctx, ex, ids);
        // 16 Tiny kernels plus ablation_coalesce's three Small ones,
        // each replayed once; 16 of them are trace analyses.
        EXPECT_EQ(work.since("gpusim.record.calls"), 19u);
        EXPECT_EQ(work.since("gpusim.replay.calls"), 19u);
        EXPECT_EQ(work.since("gpusim.replay.analyses"), 16u);
        EXPECT_GT(work.since("gpusim.sims_run"), 0u);
    }
    for (const auto &text : cold)
        EXPECT_FALSE(text.empty());

    ResultStore store(scratch.dir());
    Executor ex(4);
    driver::Context ctx(&store, &ex);
    Work work;
    EXPECT_EQ(runFigures(ctx, ex, ids), cold);
    for (const char *name :
         {"gpusim.record.calls", "gpusim.hash.calls",
          "gpusim.replay.calls", "gpusim.sims_run", "store.publishes"})
        EXPECT_EQ(work.since(name), 0u) << name;
    EXPECT_EQ(work.since("gpusim.hash.index_served"), 19u);
    EXPECT_EQ(work.since("gpusim.replay.store_served"), 16u);
    EXPECT_EQ(store.misses(), 0u);
}

TEST(RecordingIndex, FreshServiceAnswersStoredSimOnTheWarmLane)
{
    ScratchDir scratch("service");
    std::filesystem::create_directories(scratch.dir());
    service::ServiceConfig cfg;
    cfg.socketPath = (scratch.dir() / "d.sock").string();
    cfg.cacheDir = (scratch.dir() / "cache").string();
    cfg.executorThreads = 2;

    std::string payload;
    {
        service::ExperimentService svc(cfg);
        ASSERT_TRUE(svc.start());
        service::ServiceClient c;
        ASSERT_TRUE(c.connect(cfg.socketPath));
        ASSERT_TRUE(c.sendSim("fill", "backprop", "tiny", "{}"));
        service::Outcome out = c.await("fill");
        ASSERT_TRUE(out.ok()) << out.detail;
        EXPECT_EQ(out.lane, "cold");
        payload = out.payload;
        svc.stop();
    }

    // A fresh daemon holds no recording and no memoized hash: the
    // warm probe reads the index, and the request is served from the
    // store without recording.
    service::ExperimentService svc(cfg);
    ASSERT_TRUE(svc.start());
    Work work;
    service::ServiceClient c;
    ASSERT_TRUE(c.connect(cfg.socketPath));
    ASSERT_TRUE(c.sendSim("again", "backprop", "tiny", "{}"));
    service::Outcome out = c.await("again");
    ASSERT_TRUE(out.ok()) << out.detail;
    EXPECT_EQ(out.lane, "warm");
    EXPECT_EQ(out.payload, payload);
    EXPECT_EQ(work.since("gpusim.record.calls"), 0u);
    EXPECT_EQ(work.since("gpusim.sims_run"), 0u);
    svc.stop();
}
