/**
 * @file
 * Work-stealing executor for experiment job graphs.
 *
 * The executor owns a pool of worker threads, each with its own
 * double-ended task queue: a worker pushes and pops its own queue at
 * the back (LIFO, keeps caches warm for task trees) and steals from
 * the front of a victim's queue when its own runs dry (FIFO, takes
 * the oldest — typically largest — piece of work). Experiment jobs
 * are coarse (milliseconds to seconds), so the queues are guarded by
 * plain mutexes rather than lock-free Chase-Lev deques; the stealing
 * *discipline* is what matters for load balance here, not
 * nanosecond-scale pop latency.
 *
 * Two entry points:
 *
 *  - run(graph): execute a JobGraph respecting dependencies. The
 *    roots (jobs without dependencies) start in graph order: root k
 *    goes to worker k % n, and each worker's queue receives its
 *    share under one lock, ordered so the owner's back-pop takes it
 *    first-added first (a thief takes the share's last root).
 *    Callers therefore add the jobs that gate the most work
 *    first. When a job finishes, its dependents with no
 *    remaining dependencies are released onto the finishing
 *    worker's queue. A failed job marks every transitive dependent
 *    Skipped.
 *
 *  - parallelFor(n, fn): data-parallel helper, callable both from
 *    outside and from *inside* a running job (nested parallelism for
 *    a figure's inner config sweep). The calling thread participates
 *    in the loop, so progress never depends on pool availability and
 *    nesting cannot deadlock.
 *
 * Determinism: the executor guarantees nothing about execution
 * order, so deterministic output is the job author's contract —
 * every job/iteration writes its own result slot and the caller
 * assembles slots in a fixed order. All experiment code in this
 * repo follows that rule, which is what makes N-thread runs
 * byte-identical to serial ones.
 *
 * Failure discipline (see driver/failure.hh for the taxonomy):
 *
 *  - Isolation: a job exception fails that job (status, error
 *    message, error class, and attempt count recorded in the graph)
 *    and skips its transitive dependents; nothing is rethrown out of
 *    run() and unrelated jobs keep executing.
 *
 *  - Retries: transient classes (store IO, allocation pressure,
 *    injected-transient) are retried up to the RetryPolicy's attempt
 *    cap with capped exponential backoff; permanent classes fail on
 *    the first throw.
 *
 *  - Deadlines: each attempt runs under a fresh support::CancelToken
 *    that carries the job's softDeadlineMs, counted from the
 *    attempt's start. Cancellation is cooperative: the token is
 *    installed as the thread's CancelScope (and propagated to
 *    parallelFor helpers), and the sim/replay loops poll
 *    checkpointCancellation(), so the first checkpoint past the
 *    deadline fails the job, and a hung or runaway sim fails its own
 *    figure, not the process.
 */

#ifndef RODINIA_DRIVER_EXECUTOR_HH
#define RODINIA_DRIVER_EXECUTOR_HH

#include <functional>
#include <memory>

#include "driver/job.hh"
#include "support/progress.hh"

namespace rodinia {
namespace driver {

/** Retry policy for transient job failures. */
struct RetryPolicy
{
    int maxAttempts = 3;   //!< total attempts (1 = no retry)
    int backoffBaseMs = 10; //!< sleep before attempt 2
    int backoffCapMs = 250; //!< backoff ceiling (doubles per retry)
};

class Executor
{
  public:
    /**
     * @param threads worker thread count; <= 0 selects
     *        std::thread::hardware_concurrency()
     */
    explicit Executor(int threads = 0);
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    int threadCount() const;

    /** Replace the transient-failure retry policy. Call before
     *  run(); not synchronized against an in-flight run. */
    void setRetryPolicy(const RetryPolicy &policy);
    RetryPolicy retryPolicy() const;

    /**
     * Execute every job in the graph, respecting dependencies.
     * Statuses, wall-clock times, and error messages are written
     * back into the graph. Not reentrant: one run() at a time.
     *
     * @param progress optional lifecycle sink (thread-safe calls)
     * @return true iff every job finished Done
     */
    bool run(JobGraph &graph,
             support::ProgressReporter *progress = nullptr);

    /**
     * Run fn(0..n-1) across the pool. The caller claims iterations
     * too, so this is safe to call from inside a job. Iterations
     * must be independent. On failure, every claimed iteration
     * settles and *all* exceptions are collected (remaining
     * iterations are abandoned): a lone exception is rethrown with
     * its original type; several become one AggregateError listing
     * the failed indices in index order; a cancellation
     * (CancelledError) dominates either way, since concurrent
     * iterations of a cancelled job all trip the same token and the
     * token's reason is the deterministic root cause. The caller's
     * active CancelToken (if any) is propagated to helper threads.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace driver
} // namespace rodinia

#endif // RODINIA_DRIVER_EXECUTOR_HH
