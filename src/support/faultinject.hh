/**
 * @file
 * Deterministic, site-keyed fault injection.
 *
 * The experiment pipeline claims crash-safety, retry, and
 * graceful-degradation properties that only ever matter when
 * something fails — so failures must be manufacturable on demand,
 * and reproducibly. This harness injects faults at named sites:
 *
 *  - file-op failures (write / fsync / rename / unlink) consulted by
 *    ResultStore before each real syscall,
 *  - allocation failures, consulted by the global operator new
 *    replacement while an AllocFaultScope is armed,
 *  - job failures, thrown by the executor at the top of a job
 *    attempt (exact job-name match, optionally transient and
 *    attempt-capped, to exercise the retry path),
 *  - artificial stalls at named sites (substring match), served in
 *    small slices that poll the cancellation checkpoint so a stalled
 *    job still fails at its deadline or on a cancel.
 *
 * Every probabilistic decision is a pure function of (seed, site
 * kind, site key, per-key occurrence counter) hashed through FNV-1a
 * — no clocks, no global RNG state — so a spec reproduces the same
 * fault pattern across runs, thread counts, and unrelated code
 * changes, and the faults-smoke ctest lane is stable.
 *
 * Configuration comes from the RODINIA_FAULTS environment variable
 * (parsed on first use; a malformed spec is fatal) or from
 * configure() in tests. Spec grammar — comma-separated entries:
 *
 *   seed=N                 hash seed (default 1)
 *   write=P | fsync=P | rename=P | unlink=P | alloc=P
 *                          per-site-occurrence failure probability,
 *                          P in [0,1]
 *   fail=NAME[@transient|@permanent][@COUNT]
 *                          throw InjectedFault from job NAME on its
 *                          first COUNT attempts (default: every
 *                          attempt, permanent)
 *   stall=SUBSTR@MS        sleep MS ms (cancellably) at any stall
 *                          site whose name contains SUBSTR
 *
 * '@' separates fail/stall arguments because job and site names
 * contain ':' (e.g. "figure:fig4", "sim:cfd/s0/v1").
 */

#ifndef RODINIA_SUPPORT_FAULTINJECT_HH
#define RODINIA_SUPPORT_FAULTINJECT_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace rodinia {
namespace support {

/** Thrown by injected job faults. transient() steers the executor's
 *  retry policy. */
class InjectedFault : public std::runtime_error
{
  public:
    InjectedFault(const std::string &what, bool transient)
        : std::runtime_error(what), transient_(transient)
    {
    }

    bool transient() const { return transient_; }

  private:
    bool transient_;
};

/** File operations with injectable failures. */
enum class FaultOp { Write, Fsync, Rename, Unlink, Alloc };

const char *faultOpName(FaultOp op);

/**
 * Process-wide injector. instance() lazily parses $RODINIA_FAULTS;
 * with the variable unset every query is a cheap "no". Tests call
 * configure() directly (it also resets occurrence counters, so a
 * test's decision sequence is independent of earlier tests).
 */
class FaultInjector
{
  public:
    /** The injector configured from $RODINIA_FAULTS. */
    static FaultInjector &instance();

    /** Replace the configuration from a spec string (see file
     *  comment for the grammar; malformed specs are fatal) and
     *  reset all counters. "" disables injection. */
    void configure(const std::string &spec);

    /** True if any fault source is configured. */
    bool enabled() const;

    /**
     * Should the next @p op on @p key (store entry filename) fail?
     * Deterministic per (seed, op, key, occurrence). Increments the
     * per-op injected-failure counter when it fires.
     */
    bool failFile(FaultOp op, const std::string &key);

    /** Throw InjectedFault if a fail= rule matches @p job for this
     *  @p attempt (1-based). */
    void maybeFailJob(const std::string &job, int attempt);

    /**
     * Serve any stall= rule whose SUBSTR occurs in @p site: sleeps
     * in 10 ms slices, polling checkpointCancellation() between
     * slices, so a stalled job stops within a slice of its deadline
     * or a cancel.
     */
    void maybeStall(const std::string &site);

    // Telemetry (reset by configure()).
    uint64_t injectedFileFailures(FaultOp op) const;
    uint64_t injectedJobFailures() const;
    uint64_t stallsServed() const;

    /** Allocation-fault decision for the armed AllocFaultScope on
     *  this thread. Never allocates; called from operator new. */
    static bool shouldFailAlloc() noexcept;

  private:
    struct FailRule
    {
        std::string job;
        bool transient = false;
        int attempts = 0; //!< 0 = every attempt
    };
    struct StallRule
    {
        std::string substr;
        int ms = 0;
    };
    struct Config
    {
        uint64_t seed = 1;
        double probability[5] = {0, 0, 0, 0, 0}; //!< indexed by FaultOp
        std::vector<FailRule> fails;
        std::vector<StallRule> stalls;
    };

    FaultInjector() = default;
    explicit FaultInjector(const char *envSpec);

    static Config parseSpec(const std::string &spec);
    bool decide(FaultOp op, uint64_t keyHash, uint64_t occurrence,
                uint64_t seed, double p) const;

    mutable std::mutex mu_;
    Config cfg_;
    std::unordered_map<std::string, uint64_t> occurrences_;
    std::atomic<uint64_t> nFile_[5] = {};
    std::atomic<uint64_t> nJob_{0};
    std::atomic<uint64_t> nStall_{0};

    friend class AllocFaultScope;
};

/**
 * Arms allocation-fault injection for the current thread while
 * alive. The executor holds one around each job body, keyed by the
 * job name, so alloc=P faults land inside experiment work rather
 * than in harness bookkeeping. Scopes nest (inner wins); the
 * decision snapshot (seed, probability) is taken at construction so
 * the operator-new fast path stays allocation- and lock-free.
 */
class AllocFaultScope
{
  public:
    explicit AllocFaultScope(const std::string &site);
    ~AllocFaultScope();

    AllocFaultScope(const AllocFaultScope &) = delete;
    AllocFaultScope &operator=(const AllocFaultScope &) = delete;

  private:
    struct Arm
    {
        bool active = false;
        uint64_t seed = 0;
        uint64_t siteHash = 0;
        uint64_t counter = 0;
        double p = 0.0;
    };
    static Arm &tls();

    Arm prev_;

    friend class FaultInjector;
};

} // namespace support
} // namespace rodinia

#endif // RODINIA_SUPPORT_FAULTINJECT_HH
