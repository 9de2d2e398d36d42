/**
 * @file
 * Shared experiment context.
 *
 * Figures 6-12 all consume the same 25 CPU characterizations, and
 * Figures 1-5 replay the same recorded GPU launch sequences under
 * different timing configurations. The Context memoizes both in
 * FlightMemo tables (driver/flight_memo.hh), so any number of figure
 * jobs and daemon requests running concurrently share one
 * computation (and one ResultStore entry) per key, while each
 * waiter still honours its own cancel token. A compute that fails is
 * rethrown to the callers waiting on it and retried by the next one.
 *
 * GPU keys name a distinct kernel: version 0 resolves to the
 * shipped version (gpuVersion), so a figure asking for the shipped
 * SRAD and Table III asking for SRAD v2 share one recording, one
 * content hash, one trace analysis and one simulation per config.
 *
 * Every GPU result is keyed by its recording's content hash, and the
 * store's recording index maps each kernel to that hash under the
 * running build (buildIdentity). Against a filled store the hash,
 * the trace analyses and the stats are all store reads: a kernel is
 * recorded only when a result is missing and must be computed.
 *
 * All public methods are thread-safe and return references that
 * stay valid for the Context's lifetime (entries are never evicted).
 */

#ifndef RODINIA_DRIVER_CONTEXT_HH
#define RODINIA_DRIVER_CONTEXT_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/characterize.hh"
#include "core/workload.hh"
#include "driver/flight_memo.hh"
#include "driver/result_store.hh"
#include "gpusim/recorder.hh"
#include "gpusim/replay.hh"
#include "gpusim/timing.hh"

namespace rodinia {
namespace driver {

class Executor;

/**
 * Rodinia workloads in the paper's figure order (Figs. 1-5).
 * Thread-safe: the table is a function-local static, which C++11
 * guarantees is initialized exactly once even under concurrent
 * first calls from pool threads.
 */
const std::vector<std::pair<std::string, std::string>> &figureOrder();

/** All 25 CPU workloads: 12 Rodinia + 13 Parsec (SC shared). */
std::vector<std::string> allCpuWorkloads();

/** Record a workload's GPU launch sequence (0 = shipped version). */
gpusim::LaunchSequence recordGpuLaunch(const std::string &name,
                                       core::Scale scale,
                                       int version = 0);

/**
 * The GPU kernel version @p version names: 0 resolves to the shipped
 * (most optimized) version; any other value is returned as is. A
 * workload without a GPU implementation is fatal.
 */
int gpuVersion(const std::string &name, int version);

/**
 * A digest of the NT_GNU_BUILD_ID notes of every object loaded in
 * this process, executable first, read once on first use. 0 when
 * the executable carries no build-id note: such a build cannot name
 * itself, so it never uses the recording index.
 */
uint64_t buildIdentity();

class Context
{
  public:
    /**
     * @param store result store for CPU characterizations; nullptr
     *        disables disk caching (results are still memoized)
     * @param executor pool used by parallelFor; nullptr runs
     *        sweeps serially
     */
    explicit Context(ResultStore *store = nullptr,
                     Executor *executor = nullptr);

    /** Uninstalls the trace-spill sink if the constructor armed it. */
    ~Context();

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    /** One workload's CPU characterization (memoized + cached). */
    const core::CpuCharacterization &
    cpu(const std::string &name, core::Scale scale, int threads = 8);

    /** All 25 characterizations in allCpuWorkloads() order. */
    std::vector<core::CpuCharacterization>
    allCpu(core::Scale scale, int threads = 8);

    /** One workload's recorded launch sequence (memoized, and
     *  content-hashed in the same compute; never read from the
     *  store, so the first call records). */
    const gpusim::LaunchSequence &
    gpu(const std::string &name, core::Scale scale, int version = 0);

    /**
     * One recording's content hash (memoized): read from the store's
     * recording index when this build has recorded the kernel
     * before, else recorded, hashed and published to the index.
     * Without an enabled store or a build identity it always
     * records. Once this Context holds the recording, its own hash
     * is returned.
     */
    uint64_t recordingHash(const std::string &name, core::Scale scale,
                           int version = 0);

    /** One recording's trace analysis (memoized + store-cached,
     *  keyed by the content hash): the memory-space mix and warp
     *  occupancy Figs. 2-3 and Table III report. Records only on a
     *  store miss. */
    const gpusim::TraceStats &
    traceStats(const std::string &name, core::Scale scale,
               int version = 0);

    /**
     * Timing-simulation stats for one workload under one SimConfig
     * (memoized + store-cached). Keyed by the recording's content
     * hash plus the config fingerprint, so identical (recording,
     * config) pairs — within this process or across processes —
     * simulate exactly once; figures that share a configuration
     * (e.g. Fig. 1's 28-SM point and Fig. 4's 8-channel point)
     * share the result. Safe to call concurrently from parallelFor
     * iterations and daemon requests: each distinct key simulates
     * once, and a caller that finds the key's simulation running
     * waits for it under its own cancel token. @p joined, when
     * given, is set to whether this call waited on another caller's
     * simulation.
     */
    const gpusim::KernelStats &
    gpuStats(const std::string &name, core::Scale scale, int version,
             const gpusim::SimConfig &config, bool *joined = nullptr);

    /**
     * Would gpuStats() for this key be served without running a
     * simulation? True when the stats are already memoized in this
     * Context, or when the recording's content hash — settled in
     * this Context, else read from the recording index — names a
     * published store entry for the key. A cheap, non-blocking probe
     * (memo lookups, at most one index read and one stat(2)) — never
     * records, hashes, or simulates — used by the experiment service
     * to route requests onto the warm lane, so a fresh daemon on a
     * filled store serves stored points warm. A false negative is
     * safe: the request just takes the cold lane and still hits the
     * store.
     */
    bool gpuStatsWarm(const std::string &name, core::Scale scale,
                      int version, const gpusim::SimConfig &config);

    /**
     * Fan a sweep's iterations across the executor (serial when the
     * context has none). Iterations must write disjoint result
     * slots; assembly order is the caller's.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    Executor *executor() const { return exec; }
    ResultStore *resultStore() const { return store; }

    /** gpuStats keys whose computation is running right now (the
     *  daemon's `sim_flights` stats field). */
    size_t simFlightsInFlight() const { return statsMemo.pending(); }

  private:
    ResultStore *store;
    Executor *exec;

    /** ResultStore-backed trace-chunk spill sink (see context.cc);
     *  non-null only when RODINIA_TRACE_SPILL_CHUNKS armed it. */
    std::unique_ptr<trace::ChunkSink> spillSink;
    trace::ChunkSink *prevSpillSink = nullptr;
    uint32_t prevSpillResident = 0;

    /** A recording and its content hash, hashed right after
     *  recording so the digest runs in the recording's own job. */
    struct Recording
    {
        gpusim::LaunchSequence seq;
        uint64_t hash = 0;
    };

    /** The memoized recording of an already resolved version. */
    const Recording &recording(const std::string &name,
                               core::Scale scale, int version);

    /** recordingHash() of an already resolved version. */
    uint64_t resolvedHash(const std::string &name, core::Scale scale,
                          int version);

    /** The hash this Context has settled for a recording key, or
     *  nullptr; the recording's own hash wins over the index's. */
    const uint64_t *settledHash(const std::string &key) const;

    /** The recording-index key of a resolved kernel, or nullopt when
     *  the store is off or the build has no identity. */
    std::optional<ResultStore::Key>
    indexKey(const std::string &name, core::Scale scale,
             int version) const;

    /**
     * Serve a hash-keyed result from the store, or return the
     * recording to compute it from. @p load tries the store under
     * one content hash, taken from resolvedHash(). When a miss
     * forces a recording whose own hash differs (a wrong index
     * entry), the recording wins and the store is tried once more
     * under its hash. Returns nullptr when the store served the
     * result; @p hash is set to the hash the result is keyed by.
     */
    const Recording *
    storedOrRecording(const std::string &name, core::Scale scale,
                      int version,
                      const std::function<bool(uint64_t)> &load,
                      uint64_t &hash);

    FlightMemo<core::CpuCharacterization> cpuMemo{"cpu"};
    FlightMemo<Recording> gpuMemo{"gpu"};
    FlightMemo<uint64_t> hashMemo{"hash"};
    FlightMemo<gpusim::TraceStats> traceMemo{"trace"};
    FlightMemo<gpusim::KernelStats> statsMemo{"stats"};
};

} // namespace driver
} // namespace rodinia

#endif // RODINIA_DRIVER_CONTEXT_HH
