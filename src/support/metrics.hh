/**
 * @file
 * Process-wide metrics registry: counters, gauges, and fixed-bucket
 * latency histograms, addressed by a dotted metric name plus an
 * opaque label string.
 *
 * Concurrency model: one mutex guards a registry's one map. Nearly
 * every write goes to a per-job transaction registry that a single
 * thread fills, and the global registry sees a few writes per job,
 * so there is nothing to spread over shards. Transactions commit
 * with operations that are associative and commutative (same
 * contract as gpusim::KernelStats::add) — counters add, gauges take
 * the max, histograms merge bucket-wise — so the global view is
 * independent of the order in which jobs commit.
 *
 * Determinism contract: every metric carries a Stability tag.
 * Stable metrics are pure functions of the work performed (entries
 * loaded, sims run, jobs finished) and must be byte-identical across
 * worker counts and across processes for a clean run; Volatile
 * metrics carry wall-clock or schedule-dependent readings (latency
 * histograms, queue waits, steals). The JSON dump emits the two
 * groups in separate top-level sections ("stable" before
 * "volatile"), so stripping everything from the "volatile" key
 * onward yields the deterministic remainder — that is what the
 * --trace/--metrics determinism tests compare.
 *
 * Transactional sinks: writes go through the thread's current sink —
 * the global registry by default, or a scoped override installed
 * with SinkScope (the executor installs a per-job transaction
 * registry for the duration of each attempt and propagates it to
 * parallelFor helpers, mirroring support::CancelScope). A
 * transaction is published with drainInto(global) only when its job
 * succeeds, so a failed job's metrics are dropped whole rather than
 * surfacing as partially-merged counters.
 */

#ifndef RODINIA_SUPPORT_METRICS_HH
#define RODINIA_SUPPORT_METRICS_HH

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace rodinia {
namespace support {
namespace metrics {

/** Determinism class of a metric (see file comment). */
enum class Stability { Stable, Volatile };

enum class Kind { Counter, Gauge, Histogram };

/**
 * Power-of-two-bucket histogram over uint64 samples (microseconds
 * by convention). Bucket i covers [2^(i-1), 2^i); bucket 0 holds
 * zero. merge() is associative and commutative, and merging two
 * histograms equals observing the concatenation of their sample
 * streams — the property tests pin both.
 */
struct HistogramData
{
    static constexpr size_t kBuckets = 64;

    std::array<uint64_t, kBuckets> buckets{};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0; //!< meaningful only when count > 0
    uint64_t max = 0;

    /** Bucket index for a sample: bit width of the value, capped. */
    static size_t
    bucketOf(uint64_t v)
    {
        size_t w = 0;
        while (v) {
            ++w;
            v >>= 1;
        }
        return w < kBuckets ? w : kBuckets - 1;
    }

    /** Smallest sample that lands in bucket i. */
    static uint64_t
    bucketLowerBound(size_t i)
    {
        return i == 0 ? 0 : uint64_t(1) << (i - 1);
    }

    void
    observe(uint64_t v)
    {
        buckets[bucketOf(v)] += 1;
        if (count == 0 || v < min)
            min = v;
        if (count == 0 || v > max)
            max = v;
        count += 1;
        sum += v;
    }

    void
    merge(const HistogramData &o)
    {
        if (o.count == 0)
            return;
        if (count == 0 || o.min < min)
            min = o.min;
        if (count == 0 || o.max > max)
            max = o.max;
        count += o.count;
        sum += o.sum;
        for (size_t i = 0; i < kBuckets; ++i)
            buckets[i] += o.buckets[i];
    }

    bool operator==(const HistogramData &o) const = default;
};

/** One metric: its class and its value per label. */
struct MetricSnapshot
{
    Kind kind = Kind::Counter;
    Stability stability = Stability::Stable;
    /** label -> value (counters and gauges). */
    std::map<std::string, uint64_t> values;
    /** label -> histogram (Kind::Histogram only). */
    std::map<std::string, HistogramData> histograms;
};

/** Point-in-time merged view of a whole registry. */
struct Snapshot
{
    std::map<std::string, MetricSnapshot> metrics;

    /** Metric by exact name, or nullptr. */
    const MetricSnapshot *find(std::string_view name) const;

    /** Counter/gauge value for (name, label); 0 when absent. */
    uint64_t value(std::string_view name,
                   std::string_view label = "") const;

    /**
     * Deterministic JSON dump: {"schema":1,"stable":{...},
     * "volatile":{...}} with metric names nested on '.' and labels
     * as leaf object keys, everything sorted. Truncating the text at
     * the "volatile" key leaves exactly the Stable section.
     */
    std::string renderJson() const;
};

/**
 * A metric registry. Instantiable — the executor creates one per job
 * as a transaction buffer — with one process-wide instance behind
 * global().
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    void countAdd(std::string_view name, std::string_view label,
                  uint64_t delta, Stability st);
    /** Gauges merge by max (associative, commutative); a plain
     *  last-write-wins gauge would make transaction commits order-
     *  dependent. */
    void gaugeMax(std::string_view name, std::string_view label,
                  uint64_t value, Stability st);
    void observe(std::string_view name, std::string_view label,
                 uint64_t value, Stability st);

    /** Copy of the whole registry; deterministic view. */
    Snapshot snapshot() const;

    /**
     * Merge this registry's whole content into @p dst and clear it.
     * Used to commit a per-job transaction into the global registry
     * when the job succeeds (a failed job's transaction is simply
     * destroyed, dropping its metrics whole).
     */
    void drainInto(Registry &dst);

    void clear();

    static Registry &global();

  private:
    /** The metric named @p name, created on first use; fatal when it
     *  exists with another kind or stability. Caller holds mu. */
    MetricSnapshot &slot(std::string_view name, Kind kind,
                         Stability st);

    mutable std::mutex mu;
    std::map<std::string, MetricSnapshot> metrics;
};

/** The thread's scoped sink override; nullptr = global(). */
Registry *currentSinkOverride();

/** Registry the free helpers below write to on this thread. The
 *  thread-local slot lives entirely inside metrics.cc (same pattern
 *  as CancelScope's token). */
Registry &sink();

/**
 * Install @p r as the thread's metric sink for the scope's lifetime
 * (nullptr restores the global default). Mirrors CancelScope: the
 * executor installs the job transaction per attempt, and
 * parallelFor re-installs the caller's override on helper threads.
 */
class SinkScope
{
  public:
    explicit SinkScope(Registry *r);
    ~SinkScope();
    SinkScope(const SinkScope &) = delete;
    SinkScope &operator=(const SinkScope &) = delete;

  private:
    Registry *prev;
};

// Free helpers writing through the thread's sink.

inline void
count(std::string_view name, uint64_t delta = 1,
      Stability st = Stability::Stable)
{
    sink().countAdd(name, "", delta, st);
}

inline void
countLabeled(std::string_view name, std::string_view label,
             uint64_t delta, Stability st = Stability::Stable)
{
    sink().countAdd(name, label, delta, st);
}

inline void
gauge(std::string_view name, uint64_t value,
      Stability st = Stability::Volatile)
{
    sink().gaugeMax(name, "", value, st);
}

inline void
gaugeLabeled(std::string_view name, std::string_view label,
             uint64_t value, Stability st = Stability::Volatile)
{
    sink().gaugeMax(name, label, value, st);
}

inline void
observe(std::string_view name, uint64_t value,
        Stability st = Stability::Volatile)
{
    sink().observe(name, "", value, st);
}

inline void
observeLabeled(std::string_view name, std::string_view label,
               uint64_t value, Stability st = Stability::Volatile)
{
    sink().observe(name, label, value, st);
}

/** JSON-escape a string for embedding in "..." (shared with the
 *  trace writer). */
std::string jsonEscape(std::string_view s);

} // namespace metrics
} // namespace support
} // namespace rodinia

#endif // RODINIA_SUPPORT_METRICS_HH
