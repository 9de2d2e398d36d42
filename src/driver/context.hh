/**
 * @file
 * Shared experiment context.
 *
 * Figures 6-12 all consume the same 25 CPU characterizations, and
 * Figures 1-5 read timing simulations and trace analyses of the same
 * GPU kernels under different configurations. The Context memoizes
 * those results in four FlightMemo tables (driver/flight_memo.hh):
 * `cpu` (characterizations), `hash` (each kernel's content hash),
 * `trace` (trace analyses) and `stats` (timing simulations). Any
 * number of figure jobs and daemon requests running concurrently
 * share one computation (and one ResultStore entry) per key, while
 * each waiter still honours its own cancel token. A compute that
 * fails is rethrown to the callers waiting on it and retried by the
 * next one.
 *
 * GPU keys name a distinct kernel: version 0 resolves to the
 * shipped version (gpuVersion), so a figure asking for the shipped
 * SRAD and Table III asking for SRAD v2 share one content hash, one
 * trace analysis and one simulation per config.
 *
 * Every GPU result is keyed by its recording's content hash, and the
 * store's recording index maps each kernel to that hash under the
 * running build (buildIdentity). Against a filled store the hash,
 * the trace analyses and the stats are all store reads: a kernel is
 * recorded only when its hash or a result is missing. It is hashed
 * over its lane events; then, on the first result the store lacks,
 * it is replayed once into warp traces (gpusim/warptrace.hh) at the
 * warp size the caller needs. The build tallies the trace analysis,
 * and the lanes are freed before any sim reads the traces. Nothing
 * is memoized across calls: the lanes and traces live only while
 * some call that needs them runs (settle() for a kernel's whole set
 * of results, or a single gpuStats/traceStats/recordingHash miss).
 * Calls for one kernel that overlap share one recording and one
 * trace per warp size. A call that finds them being made waits under
 * its own cancel token, and their making runs under none, so one
 * caller's cancellation never fails another. The last call to leave
 * frees them. So at most one recording is alive per thread running
 * such a call.
 *
 * All public methods are thread-safe and return references that
 * stay valid for the Context's lifetime (results are never evicted).
 */

#ifndef RODINIA_DRIVER_CONTEXT_HH
#define RODINIA_DRIVER_CONTEXT_HH

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
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
 * One distinct GPU kernel and the results a set of figures reads
 * from it: timing simulations under each config, and optionally its
 * trace analysis.
 */
struct KernelWork
{
    std::string workload;
    core::Scale scale = core::Scale::Full;
    int version = 0;                     //!< 0 = shipped
    std::vector<gpusim::SimConfig> sims; //!< distinct configs
    bool trace = false;                  //!< needs traceStats()
};

/**
 * Rodinia workloads in the paper's figure order (Figs. 1-5).
 * Thread-safe: the table is a function-local static, which C++11
 * guarantees is initialized exactly once even under concurrent
 * first calls from pool threads.
 */
const std::vector<std::pair<std::string, std::string>> &figureOrder();

/**
 * The memo key of one GPU kernel: "name/s<scale>/v<version>", with
 * @p version already resolved (gpuVersion). The experiments CLI
 * names each kernel's `gpu:` job after it.
 */
std::string recordingKey(const std::string &name, core::Scale scale,
                         int version);

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
                     Executor *executor = nullptr)
        : store(store), exec(executor)
    {
    }

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    /** One workload's CPU characterization (memoized + cached). */
    const core::CpuCharacterization &
    cpu(const std::string &name, core::Scale scale, int threads = 8);

    /** All 25 characterizations in allCpuWorkloads() order. */
    std::vector<core::CpuCharacterization>
    allCpu(core::Scale scale, int threads = 8);

    /** Is this characterization memoized in this Context? */
    bool cpuMemoized(const std::string &name, core::Scale scale,
                     int threads = 8) const;

    /**
     * Settle every result @p work names in this Context's memos.
     * Results the store holds are served from it. The kernel is
     * recorded when its hash is not indexed or a result is missing,
     * and only on a miss is it replayed into warp traces, once,
     * before the missing simulations fan out across the executor
     * (parallelFor) next to the trace analysis. Each result is
     * published, and the traces are freed once settle and every call
     * sharing them have returned. The experiments
     * CLI runs one settle per distinct kernel as its `gpu:` job;
     * buildFigure runs the same pass for the figure's own kernels.
     */
    void settle(const KernelWork &work);

    /**
     * Would settle(@p work) be served without recording or
     * simulating? True when every sim passes the gpuStatsWarm test,
     * with the kernel's hash looked up once for all of them, and
     * the trace analysis, if @p work needs one, is memoized (the
     * probe reads no trace-stats entry). Never blocks on a compute.
     */
    bool settleWarm(const KernelWork &work);

    /**
     * One recording's content hash (memoized): read from the store's
     * recording index when this build has recorded the kernel
     * before, else recorded, hashed and published to the index.
     * Without an enabled store or a build identity it always
     * records. A later recording whose hash differs from an indexed
     * one wins: the memoized hash and the index entry are repaired.
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

    /** One kernel's results being settled, and the warp traces made
     *  on the first miss; shared by every call for the kernel while
     *  one of them runs (context.cc). */
    class Pass;

    /** The live pass of a kernel, made if no call holds one. */
    std::shared_ptr<Pass> pass(const std::string &name,
                               core::Scale scale, int version);

    /** The hash memo's value: a slot a disagreeing recording may
     *  overwrite (see recordingHash()). */
    using HashSlot = std::unique_ptr<std::atomic<uint64_t>>;

    /** recordingHash() of the pass's kernel. On an index miss the
     *  kernel is recorded, and the pass keeps the lanes for a trace
     *  build until it ends. */
    uint64_t resolvedHash(Pass &pass);

    /** Does the store hold an entry under @p key? One stat(), no
     *  read. */
    bool stored(const ResultStore::Key &key) const;

    /** The hash this Context has settled for a recording key, or
     *  nullopt. */
    std::optional<uint64_t> settledHash(const std::string &key) const;

    /** The recording-index key of a resolved kernel, or nullopt when
     *  the store is off or the build has no identity. */
    std::optional<ResultStore::Key>
    indexKey(const std::string &name, core::Scale scale,
             int version) const;

    /**
     * Serve a hash-keyed result from the store, or return the
     * kernel's warp traces at @p warp_size to compute it from. @p load
     * tries the store under one content hash, taken from
     * resolvedHash(). When a miss forces a recording whose own hash
     * differs (a wrong index entry), the recording wins and the store
     * is tried once more under its hash. Returns nullptr when the
     * store served the result; @p hash is set to the hash the result
     * is keyed by.
     */
    const gpusim::SequenceTrace *
    storedOrReplayed(Pass &pass, int warp_size,
                     const std::function<bool(uint64_t)> &load,
                     uint64_t &hash);

    /** gpuStats() and traceStats() of the pass's kernel. */
    const gpusim::KernelStats &stats(Pass &pass,
                                     const gpusim::SimConfig &config,
                                     bool *joined);
    const gpusim::TraceStats &trace(Pass &pass);

    /** Recording key -> the live pass of that kernel. */
    std::mutex passMu;
    std::map<std::string, std::weak_ptr<Pass>> passes;

    FlightMemo<core::CpuCharacterization> cpuMemo{"cpu"};
    FlightMemo<HashSlot> hashMemo{"hash"};
    FlightMemo<gpusim::TraceStats> traceMemo{"trace"};
    FlightMemo<gpusim::KernelStats> statsMemo{"stats"};
};

} // namespace driver
} // namespace rodinia

#endif // RODINIA_DRIVER_CONTEXT_HH
