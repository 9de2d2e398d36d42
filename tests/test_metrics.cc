/**
 * @file
 * Property and concurrency tests for the metrics registry.
 *
 * The registry's correctness rests on two algebraic claims: the
 * per-metric merge operations (counter add, gauge max, histogram
 * bucket-merge) are associative and commutative, and merging
 * histograms equals observing the concatenation of their sample
 * streams. These tests pin both directly on HistogramData and then
 * indirectly on the whole registry by comparing a write storm
 * sharded over pool workers against a single-threaded reference run.
 */

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/executor.hh"
#include "driver/failure.hh"
#include "driver/job.hh"
#include "support/metrics.hh"

namespace sm = rodinia::support::metrics;
using rodinia::driver::Executor;
using rodinia::driver::JobGraph;
using rodinia::driver::JobStatus;
using sm::HistogramData;
using sm::Registry;
using sm::Snapshot;
using sm::Stability;

namespace {

std::vector<uint64_t>
randomSamples(uint64_t seed, size_t n)
{
    std::mt19937_64 rng(seed);
    std::vector<uint64_t> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        // Spread samples across bucket magnitudes: a uniform draw
        // over [0, 2^64) would land almost everything in the top
        // buckets.
        int shift = int(rng() % 64);
        out.push_back(rng() >> shift);
    }
    return out;
}

HistogramData
observeAll(const std::vector<uint64_t> &samples)
{
    HistogramData h;
    for (uint64_t s : samples)
        h.observe(s);
    return h;
}

} // namespace

TEST(MetricsHistogram, BucketBoundsRoundTrip)
{
    for (size_t i = 0; i < HistogramData::kBuckets; ++i) {
        uint64_t lo = HistogramData::bucketLowerBound(i);
        EXPECT_EQ(HistogramData::bucketOf(lo), i) << "bucket " << i;
        if (i + 1 < HistogramData::kBuckets) {
            uint64_t hi = HistogramData::bucketLowerBound(i + 1) - 1;
            EXPECT_EQ(HistogramData::bucketOf(hi), i)
                << "bucket " << i << " upper edge";
        }
    }
}

TEST(MetricsHistogram, MergeEqualsConcatenatedStream)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        auto a = randomSamples(seed, 257);
        auto b = randomSamples(seed + 100, 131);

        HistogramData merged = observeAll(a);
        merged.merge(observeAll(b));

        auto both = a;
        both.insert(both.end(), b.begin(), b.end());
        EXPECT_EQ(merged, observeAll(both)) << "seed " << seed;
    }
}

TEST(MetricsHistogram, MergeCommutes)
{
    auto a = observeAll(randomSamples(3, 199));
    auto b = observeAll(randomSamples(4, 211));
    HistogramData ab = a;
    ab.merge(b);
    HistogramData ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba);
}

TEST(MetricsHistogram, MergeAssociates)
{
    auto a = observeAll(randomSamples(5, 97));
    auto b = observeAll(randomSamples(6, 89));
    auto c = observeAll(randomSamples(7, 83));

    HistogramData left = a; // (a + b) + c
    left.merge(b);
    left.merge(c);

    HistogramData bc = b; // a + (b + c)
    bc.merge(c);
    HistogramData right = a;
    right.merge(bc);

    EXPECT_EQ(left, right);
}

TEST(MetricsHistogram, EmptyMergeIsIdentity)
{
    auto a = observeAll(randomSamples(8, 57));
    HistogramData merged = a;
    merged.merge(HistogramData{});
    EXPECT_EQ(merged, a);

    HistogramData other;
    other.merge(a);
    EXPECT_EQ(other, a);
}

TEST(MetricsRegistry, CountersAddGaugesMax)
{
    Registry r;
    r.countAdd("t.counter", "", 3, Stability::Stable);
    r.countAdd("t.counter", "", 4, Stability::Stable);
    r.countAdd("t.counter", "lbl", 5, Stability::Stable);
    r.gaugeMax("t.gauge", "", 10, Stability::Volatile);
    r.gaugeMax("t.gauge", "", 7, Stability::Volatile);

    Snapshot s = r.snapshot();
    EXPECT_EQ(s.value("t.counter"), 7u);
    EXPECT_EQ(s.value("t.counter", "lbl"), 5u);
    EXPECT_EQ(s.value("t.gauge"), 10u);
    EXPECT_EQ(s.value("t.absent"), 0u);
    EXPECT_EQ(s.find("t.absent"), nullptr);
}

TEST(MetricsRegistry, DrainIntoMovesEverythingOnce)
{
    Registry src, dst;
    dst.countAdd("t.c", "", 1, Stability::Stable);
    src.countAdd("t.c", "", 2, Stability::Stable);
    src.gaugeMax("t.g", "x", 9, Stability::Volatile);
    src.observe("t.h", "", 12, Stability::Volatile);

    src.drainInto(dst);
    Snapshot after = dst.snapshot();
    EXPECT_EQ(after.value("t.c"), 3u);
    EXPECT_EQ(after.value("t.g", "x"), 9u);
    ASSERT_NE(after.find("t.h"), nullptr);
    EXPECT_EQ(after.find("t.h")->histograms.at("").count, 1u);

    // The source was cleared: a second drain adds nothing.
    src.drainInto(dst);
    EXPECT_EQ(dst.snapshot().value("t.c"), 3u);
}

TEST(MetricsRegistry, JsonSeparatesStableFromVolatile)
{
    Registry r;
    r.countAdd("alpha.jobs", "", 2, Stability::Stable);
    r.countAdd("alpha.waits", "", 1, Stability::Volatile);
    r.observe("beta.lat", "k", 5, Stability::Volatile);

    std::string json = r.snapshot().renderJson();
    size_t stableAt = json.find("\"stable\"");
    size_t volatileAt = json.find("\"volatile\"");
    ASSERT_NE(stableAt, std::string::npos);
    ASSERT_NE(volatileAt, std::string::npos);
    EXPECT_LT(stableAt, volatileAt);

    // Stable section holds only the stable counter; the volatile
    // metrics appear after the "volatile" key.
    std::string stablePart = json.substr(0, volatileAt);
    EXPECT_NE(stablePart.find("\"jobs\": 2"), std::string::npos)
        << stablePart;
    EXPECT_EQ(stablePart.find("waits"), std::string::npos);
    EXPECT_EQ(stablePart.find("lat"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 1", volatileAt),
              std::string::npos);
}

TEST(MetricsRegistry, JsonIsDeterministicAcrossInsertionOrder)
{
    Registry a, b;
    a.countAdd("m.x", "p", 1, Stability::Stable);
    a.countAdd("m.x", "q", 2, Stability::Stable);
    a.countAdd("m.y", "", 3, Stability::Volatile);

    b.countAdd("m.y", "", 3, Stability::Volatile);
    b.countAdd("m.x", "q", 2, Stability::Stable);
    b.countAdd("m.x", "p", 1, Stability::Stable);

    EXPECT_EQ(a.snapshot().renderJson(), b.snapshot().renderJson());
}

TEST(MetricsConcurrency, ShardedStormMatchesSerialReference)
{
    // Hammer one registry from a parallelFor storm sharded over four
    // workers, then replay the exact same observations
    // single-threaded into a reference registry. The two snapshots
    // must be identical — including the volatile histograms, since
    // the sample multiset is the same regardless of which thread
    // observed what.
    constexpr size_t kIters = 2000;
    Registry storm;
    Executor pool(4);
    {
        sm::SinkScope scope(&storm);
        pool.parallelFor(kIters, [](size_t i) {
            std::mt19937_64 rng(i);
            uint64_t v = rng() >> (rng() % 64);
            sm::count("storm.count", i % 3 + 1);
            sm::countLabeled("storm.labeled",
                             i % 2 ? "odd" : "even", 1);
            sm::gauge("storm.gauge", v % 1000);
            sm::observe("storm.lat", v);
        });
    }

    Registry serial;
    {
        sm::SinkScope scope(&serial);
        for (size_t i = 0; i < kIters; ++i) {
            std::mt19937_64 rng(i);
            uint64_t v = rng() >> (rng() % 64);
            sm::count("storm.count", i % 3 + 1);
            sm::countLabeled("storm.labeled",
                             i % 2 ? "odd" : "even", 1);
            sm::gauge("storm.gauge", v % 1000);
            sm::observe("storm.lat", v);
        }
    }

    EXPECT_EQ(storm.snapshot().renderJson(),
              serial.snapshot().renderJson());
    EXPECT_EQ(storm.snapshot().value("storm.labeled", "even") +
                  storm.snapshot().value("storm.labeled", "odd"),
              kIters);
}

TEST(MetricsConcurrency, ParallelForPropagatesSinkOverride)
{
    // Helper threads run pool-resident workers whose thread-local
    // sink default is the global registry; parallelFor must carry
    // the caller's override to them or the storm above would leak
    // into global(). Verify by checking a unique global metric stays
    // absent.
    const std::string unique = "test.sink_leak_probe";
    Registry local;
    Executor pool(4);
    {
        sm::SinkScope scope(&local);
        pool.parallelFor(512, [&](size_t) { sm::count(unique); });
    }
    EXPECT_EQ(local.snapshot().value(unique), 512u);
    EXPECT_EQ(Registry::global().snapshot().value(unique), 0u);
}

TEST(MetricsTxn, CommittedOnJobSuccessDroppedOnFailure)
{
    // The executor buffers each job's metrics in a per-job
    // transaction and publishes it only when the job reaches Done,
    // so a failed job never surfaces partially-merged counters
    // (satellite fix for `--stats` under --keep-going).
    const std::string okName = "test.txn_ok";
    const std::string failName = "test.txn_fail";
    uint64_t okBefore = Registry::global().snapshot().value(okName);

    JobGraph g;
    g.add("txn-ok", [&] { sm::count(okName, 5); });
    g.add("txn-fail", [&] {
        sm::count(failName, 7);
        throw std::runtime_error("boom");
    });
    Executor pool(2);
    pool.run(g);
    ASSERT_EQ(g.job(0).status, JobStatus::Done);
    ASSERT_EQ(g.job(1).status, JobStatus::Failed);

    Snapshot after = Registry::global().snapshot();
    EXPECT_EQ(after.value(okName), okBefore + 5);
    EXPECT_EQ(after.value(failName), 0u);
}

TEST(MetricsTxn, RetriedJobCommitsEveryAttemptsWrites)
{
    // A transaction spans the whole job, not one attempt: work a
    // transient failure performed before throwing (e.g. sims it
    // memoized) is still part of the job's committed story once a
    // later attempt succeeds.
    const std::string name = "test.txn_retry";
    uint64_t before = Registry::global().snapshot().value(name);

    int calls = 0;
    JobGraph g;
    size_t id = g.add("txn-retry", [&] {
        ++calls;
        sm::count(name, 1);
        if (calls == 1)
            throw rodinia::driver::TransientError("transient");
    });
    Executor pool(1);
    rodinia::driver::RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.backoffBaseMs = 1;
    pool.setRetryPolicy(policy);
    pool.run(g);
    ASSERT_EQ(g.job(id).status, JobStatus::Done);
    ASSERT_EQ(calls, 2);

    // Both attempts' writes are in the committed transaction.
    EXPECT_EQ(Registry::global().snapshot().value(name), before + 2);
}
