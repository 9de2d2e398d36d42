#include "driver/executor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "driver/failure.hh"
#include "driver/tracing.hh"
#include "support/cancel.hh"
#include "support/faultinject.hh"
#include "support/metrics.hh"

namespace rodinia {
namespace driver {

struct Executor::Impl
{
    using Task = std::function<void()>;

    /** One worker's deque. Owner pops the back; thieves take the
     *  front. Coarse jobs make a plain mutex the right tradeoff. */
    struct WorkerQueue
    {
        std::mutex mu;
        std::deque<Task> q;
    };

    std::vector<std::unique_ptr<WorkerQueue>> queues;
    std::vector<std::thread> workers;
    RetryPolicy policy;
    std::atomic<bool> stop{false};
    std::atomic<size_t> pending{0}; //!< queued, not-yet-claimed tasks
    std::atomic<size_t> cursor{0};  //!< round-robin slot for outsiders
    std::mutex idleMu;
    std::condition_variable idleCv;

    explicit Impl(int n);
    ~Impl();

    void submit(Task t);
    void submitInOrder(std::vector<Task> tasks);
    bool tryRunOne(int self);
    void workerLoop(int id);

    /**
     * Shared state of one run(). Owned by shared_ptr: every pool
     * task holds a reference, so a worker finishing the final job
     * can never observe destroyed state even though run() may have
     * already returned on the waiting thread.
     */
    struct RunCtx
    {
        JobGraph *graph = nullptr;
        support::ProgressReporter *progress = nullptr;
        Impl *impl = nullptr;
        size_t total = 0;

        std::mutex mu;
        std::condition_variable cv;
        size_t finished = 0;
        std::vector<int> remaining;
        std::vector<char> depFailed;
        std::vector<size_t> skipCause; //!< failed dep behind depFailed
        std::vector<std::vector<size_t>> dependents;
        /** When each job was (re)submitted to the pool; written
         *  before submit(), whose queue mutex publishes it to the
         *  worker that later claims the task. Feeds the queue-wait
         *  span and histogram. */
        std::vector<std::chrono::steady_clock::time_point> submitted;
    };

    static void executeJob(const std::shared_ptr<RunCtx> &ctx,
                           size_t id);
    static void completeJob(const std::shared_ptr<RunCtx> &ctx,
                            size_t id, JobStatus status, double wallMs,
                            const std::string &error, ErrorClass cls,
                            int attempts);

    // Which executor (if any) owns the current thread. Lets submit()
    // push to the worker's own queue, and keeps queue indices
    // straight when several executors coexist (tests).
    static thread_local Impl *tlsOwner;
    static thread_local int tlsId;
};

thread_local Executor::Impl *Executor::Impl::tlsOwner = nullptr;
thread_local int Executor::Impl::tlsId = -1;

Executor::Impl::Impl(int n)
{
    if (n <= 0)
        n = int(std::thread::hardware_concurrency());
    if (n < 1)
        n = 1;
    queues.reserve(size_t(n));
    for (int i = 0; i < n; ++i)
        queues.push_back(std::make_unique<WorkerQueue>());
    workers.reserve(size_t(n));
    for (int i = 0; i < n; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

Executor::Impl::~Impl()
{
    stop.store(true);
    {
        std::lock_guard<std::mutex> lock(idleMu);
    }
    idleCv.notify_all();
    for (auto &t : workers)
        t.join();
}

void
Executor::Impl::submit(Task t)
{
    size_t slot;
    if (tlsOwner == this && tlsId >= 0)
        slot = size_t(tlsId); // keep spawned work local; thieves balance
    else
        slot = cursor.fetch_add(1) % queues.size();
    {
        std::lock_guard<std::mutex> lock(queues[slot]->mu);
        queues[slot]->q.push_back(std::move(t));
    }
    pending.fetch_add(1);
    {
        // Pairs with the predicate re-check in workerLoop: taking the
        // mutex here closes the missed-wakeup window between a
        // worker's predicate evaluation and its actual sleep.
        std::lock_guard<std::mutex> lock(idleMu);
    }
    idleCv.notify_one();
}

void
Executor::Impl::submitInOrder(std::vector<Task> tasks)
{
    // Task k goes to queue k % n. Each queue takes its whole share
    // under one lock, each task in front of the one before it, so
    // the owner's back-pop starts the share in order (and a thief's
    // front-steal takes its latest task): across the pool, tasks
    // start in index order.
    const size_t n = queues.size();
    for (size_t q = 0; q < n; ++q) {
        std::lock_guard<std::mutex> lock(queues[q]->mu);
        for (size_t k = q; k < tasks.size(); k += n)
            queues[q]->q.push_front(std::move(tasks[k]));
    }
    pending.fetch_add(tasks.size());
    {
        std::lock_guard<std::mutex> lock(idleMu);
    }
    idleCv.notify_all();
}

bool
Executor::Impl::tryRunOne(int self)
{
    Task task;
    if (self >= 0) {
        auto &own = *queues[size_t(self)];
        std::lock_guard<std::mutex> lock(own.mu);
        if (!own.q.empty()) {
            task = std::move(own.q.back());
            own.q.pop_back();
        }
    }
    if (!task) {
        size_t n = queues.size();
        size_t start = self >= 0 ? size_t(self) + 1 : cursor.load();
        for (size_t k = 0; k < n && !task; ++k) {
            // A worker takes its own queue only from the back, above:
            // work that landed there since that check is picked up on
            // the next call, still in order.
            if (self >= 0 && (start + k) % n == size_t(self))
                continue;
            auto &victim = *queues[(start + k) % n];
            std::lock_guard<std::mutex> lock(victim.mu);
            if (!victim.q.empty()) {
                task = std::move(victim.q.front());
                victim.q.pop_front();
                // Only workers steal; an outsider draining via the
                // cursor is load distribution, not a steal.
                if (self >= 0)
                    support::metrics::Registry::global().countAdd(
                        "executor.steals", "", 1,
                        support::metrics::Stability::Volatile);
            }
        }
    }
    if (!task)
        return false;
    pending.fetch_sub(1);
    task();
    return true;
}

void
Executor::Impl::workerLoop(int id)
{
    tlsOwner = this;
    tlsId = id;
    for (;;) {
        if (tryRunOne(id))
            continue;
        std::unique_lock<std::mutex> lock(idleMu);
        idleCv.wait(lock, [this] {
            return stop.load() || pending.load() > 0;
        });
        if (stop.load())
            return;
    }
}

Executor::Executor(int threads) : impl(std::make_unique<Impl>(threads))
{
}

Executor::~Executor() = default;

int
Executor::threadCount() const
{
    return int(impl->queues.size());
}

void
Executor::setRetryPolicy(const RetryPolicy &policy)
{
    impl->policy = policy;
}

// completeJob() records a job's outcome, releases dependents, and
// (for failure) cascades Skipped through the downstream graph.
void
Executor::Impl::completeJob(const std::shared_ptr<RunCtx> &ctx,
                            size_t id, JobStatus status, double wallMs,
                            const std::string &error, ErrorClass cls,
                            int attempts)
{
    std::vector<size_t> ready;
    std::vector<std::pair<size_t, std::string>> skips;
    bool lastJob = false;
    {
        std::lock_guard<std::mutex> lock(ctx->mu);
        Job &j = ctx->graph->job(id);
        j.status = status;
        j.wallMs = wallMs;
        j.error = error;
        j.errorClass = cls;
        j.attempts = attempts;
        for (size_t dep : ctx->dependents[id]) {
            if (status != JobStatus::Done && !ctx->depFailed[dep]) {
                ctx->depFailed[dep] = 1;
                ctx->skipCause[dep] = id; // first failed dep wins
            }
            if (--ctx->remaining[dep] == 0) {
                if (ctx->depFailed[dep])
                    skips.emplace_back(
                        dep,
                        "skipped: dependency '" +
                            ctx->graph->job(ctx->skipCause[dep]).name +
                            "' failed");
                else
                    ready.push_back(dep);
            }
        }
        ++ctx->finished;
        lastJob = ctx->finished == ctx->total;
    }
    if (ctx->progress) {
        if (status == JobStatus::Done)
            ctx->progress->jobFinished(ctx->graph->job(id).name,
                                       wallMs);
        else
            ctx->progress->jobFailed(ctx->graph->job(id).name, error,
                                     status == JobStatus::Skipped);
    }
    // Lifecycle counters go straight to the global registry, never
    // through a job transaction: a failed job must still count as
    // failed even though its work-body metrics are dropped.
    {
        auto &reg = support::metrics::Registry::global();
        const char *metric =
            status == JobStatus::Done      ? "executor.jobs_done"
            : status == JobStatus::Skipped ? "executor.jobs_skipped"
                                           : "executor.jobs_failed";
        reg.countAdd(metric, "", 1,
                     support::metrics::Stability::Stable);
    }
    for (auto &skip : skips)
        completeJob(ctx, skip.first, JobStatus::Skipped, 0.0,
                    skip.second, ErrorClass::Skipped, 0);
    for (size_t r : ready) {
        ctx->submitted[r] = std::chrono::steady_clock::now();
        ctx->impl->submit([ctx, r] { executeJob(ctx, r); });
    }
    if (lastJob) {
        // Notify under the lock so the waiter in run() cannot wake,
        // observe finished == total, and return between our predicate
        // store and the notify. The shared_ptr keeps RunCtx alive for
        // this frame even after run() returns.
        std::lock_guard<std::mutex> lock(ctx->mu);
        ctx->cv.notify_all();
    }
}

// executeJob() is the task body run on pool threads. Each attempt
// runs under a fresh CancelToken that carries the job's soft
// deadline, if any, counted from the attempt's start; transient
// failures retry with capped exponential backoff.
void
Executor::Impl::executeJob(const std::shared_ptr<RunCtx> &ctx, size_t id)
{
    std::string name;
    double deadlineMs = 0.0;
    {
        std::lock_guard<std::mutex> lock(ctx->mu);
        Job &j = ctx->graph->job(id);
        j.status = JobStatus::Running;
        name = j.name;
        deadlineMs = j.softDeadlineMs;
    }
    const RetryPolicy policy = ctx->impl->policy;
    const int maxAttempts = std::max(1, policy.maxAttempts);
    if (ctx->progress)
        ctx->progress->jobStarted(name);

    auto &injector = support::FaultInjector::instance();
    auto t0 = std::chrono::steady_clock::now();
    auto *tc = TraceCollector::active();
    auto &reg = support::metrics::Registry::global();
    constexpr auto kVolatile = support::metrics::Stability::Volatile;
    if (tc)
        tc->record("executor", "queue-wait",
                   TraceArgs().str("job", name).json(),
                   ctx->submitted[id], t0);
    reg.observe("executor.queue_wait_us", "",
                uint64_t(std::chrono::duration_cast<
                             std::chrono::microseconds>(
                             t0 - ctx->submitted[id])
                             .count()),
                kVolatile);
    // Work-body metrics accumulate in a per-job transaction that is
    // committed to the global registry only if the job eventually
    // succeeds (carried across retry attempts, since a later
    // attempt may memo-hit work a failed one finished). A job that
    // fails for good drops its transaction whole — no
    // partially-merged counters ever reach --stats/--metrics.
    support::metrics::Registry txn;
    JobStatus status = JobStatus::Done;
    std::string error;
    ErrorClass cls = ErrorClass::None;
    int attempt = 0;
    for (attempt = 1;; ++attempt) {
        auto attemptStart = std::chrono::steady_clock::now();
        // The deadline counts from the attempt's start. Its reason
        // quotes the configured budget, not the measured elapsed
        // time, so failure messages (and therefore MISSING cells and
        // resumed reruns) stay byte-deterministic.
        support::CancelToken token =
            deadlineMs > 0.0
                ? support::CancelToken(
                      attemptStart + std::chrono::microseconds(
                                         int64_t(deadlineMs * 1e3)),
                      "watchdog: job '" + name +
                          "' exceeded soft deadline of " +
                          std::to_string(int64_t(deadlineMs)) + " ms")
                : support::CancelToken();
        auto attemptSpan = [&](const char *outcome) {
            auto end = std::chrono::steady_clock::now();
            if (tc)
                tc->record("executor", "attempt",
                           TraceArgs()
                               .str("job", name)
                               .num("attempt", uint64_t(attempt))
                               .str("outcome", outcome)
                               .json(),
                           attemptStart, end);
            reg.observe("executor.attempt_wall_us", "",
                        uint64_t(std::chrono::duration_cast<
                                     std::chrono::microseconds>(
                                     end - attemptStart)
                                     .count()),
                        kVolatile);
        };
        try {
            support::CancelScope scope(&token);
            support::metrics::SinkScope msink(&txn);
            injector.maybeFailJob(name, attempt);
            injector.maybeStall("job:" + name);
            {
                // Armed inside the try so stack unwinding disarms
                // injection before the catch body allocates.
                support::AllocFaultScope allocFaults(name);
                ctx->graph->job(id).work();
            }
            attemptSpan("ok");
            break; // success
        } catch (...) {
            Classified c = classifyCurrentException();
            if (c.transient && attempt < maxAttempts) {
                attemptSpan("retry");
                reg.countAdd("executor.retries", "", 1,
                             support::metrics::Stability::Stable);
                int shift = std::min(attempt - 1, 20);
                int backoffMs =
                    std::min(policy.backoffCapMs,
                             policy.backoffBaseMs << shift);
                if (backoffMs > 0) {
                    auto b0 = std::chrono::steady_clock::now();
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(backoffMs));
                    if (tc)
                        tc->record(
                            "executor", "backoff",
                            TraceArgs()
                                .str("job", name)
                                .num("attempt", uint64_t(attempt))
                                .json(),
                            b0, std::chrono::steady_clock::now());
                }
                continue;
            }
            attemptSpan(errorClassName(c.cls));
            status = JobStatus::Failed;
            error = c.message;
            cls = c.cls;
            break;
        }
    }
    if (status == JobStatus::Done)
        txn.drainInto(reg);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    completeJob(ctx, id, status, ms, error, cls, attempt);
}

bool
Executor::run(JobGraph &graph, support::ProgressReporter *progress)
{
    const size_t total = graph.size();
    if (total == 0)
        return true;

    auto ctx = std::make_shared<Impl::RunCtx>();
    ctx->graph = &graph;
    ctx->progress = progress;
    ctx->impl = impl.get();
    ctx->total = total;
    ctx->remaining.resize(total);
    ctx->depFailed.assign(total, 0);
    ctx->skipCause.assign(total, 0);
    ctx->dependents.resize(total);
    ctx->submitted.assign(total,
                          std::chrono::steady_clock::time_point{});

    // Roots are read off the immutable graph structure before any
    // submission. The previous version seeded by scanning the mutable
    // remaining[] counters while already-submitted roots could be
    // completing concurrently and releasing dependents — a dependent
    // whose counter hit zero mid-scan was submitted twice, finished
    // over-counted, and run() returned while workers still executed
    // (then-destroyed) stack state.
    std::vector<size_t> roots;
    for (size_t i = 0; i < total; ++i) {
        ctx->remaining[i] = int(graph.job(i).deps.size());
        for (size_t dep : graph.job(i).deps)
            ctx->dependents[dep].push_back(i);
        if (graph.job(i).deps.empty())
            roots.push_back(i);
    }

    std::vector<Impl::Task> rootTasks;
    rootTasks.reserve(roots.size());
    for (size_t r : roots) {
        ctx->submitted[r] = std::chrono::steady_clock::now();
        rootTasks.push_back([ctx, r] { Impl::executeJob(ctx, r); });
    }
    impl->submitInOrder(std::move(rootTasks));

    {
        std::unique_lock<std::mutex> lock(ctx->mu);
        ctx->cv.wait(lock,
                     [&] { return ctx->finished == ctx->total; });
    }
    return graph.allDone();
}

void
Executor::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (n == 1) {
        fn(0);
        return;
    }

    struct PfState
    {
        std::atomic<size_t> next{0};
        std::atomic<size_t> active{0};
        size_t n = 0;
        const std::function<void(size_t)> *fn = nullptr;
        const support::CancelToken *token = nullptr;
        //! caller's metric-sink override (job txn), for helpers
        support::metrics::Registry *sink = nullptr;
        std::mutex mu;
        std::condition_variable cv;
        //! every failed iteration's (index, exception); guarded by mu
        std::vector<std::pair<size_t, std::exception_ptr>> errors;
    };
    auto st = std::make_shared<PfState>();
    st->n = n;
    st->fn = &fn;
    // Propagate the caller's cancel token onto helper threads so a
    // cancelled or overdue job's nested sweep iterations observe it
    // at their own checkpoints.
    st->token = support::currentCancelToken();
    // Ditto for the metric sink: helper iterations of a job's sweep
    // must charge the same per-job transaction as the caller, or a
    // failed job would leak partial helper-side counters.
    st->sink = support::metrics::currentSinkOverride();

    // Claim protocol: active is raised *before* the claim so that
    // "next >= n && active == 0" proves no iteration is running or
    // can still start — late-arriving helper tasks bump active, see
    // an exhausted range, and leave without touching fn (whose
    // lifetime ends when parallelFor returns).
    auto drain = [](PfState *s) {
        support::CancelScope scope(s->token);
        support::metrics::SinkScope msink(s->sink);
        for (;;) {
            s->active.fetch_add(1);
            size_t i = s->next.fetch_add(1);
            if (i >= s->n) {
                // Exhausted: this is each drainer's single exit, so
                // the thread whose decrement lands on zero here is
                // the globally last one out and wakes the waiter.
                if (s->active.fetch_sub(1) == 1) {
                    std::lock_guard<std::mutex> lock(s->mu);
                    s->cv.notify_all();
                }
                return;
            }
            try {
                (*s->fn)(i);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(s->mu);
                    s->errors.emplace_back(i,
                                           std::current_exception());
                }
                s->next.store(s->n); // abandon unclaimed iterations
            }
            s->active.fetch_sub(1);
        }
    };

    // If a helper submission itself throws (e.g. injected allocation
    // failure), abandon the remaining range, let everything already
    // claimed settle, and surface the submission error.
    std::exception_ptr submitError;
    size_t helpers = std::min(size_t(threadCount()), n - 1);
    try {
        for (size_t h = 0; h < helpers; ++h)
            impl->submit([st, drain] { drain(st.get()); });
    } catch (...) {
        submitError = std::current_exception();
        st->next.store(st->n);
    }

    drain(st.get());

    {
        std::unique_lock<std::mutex> lock(st->mu);
        st->cv.wait(lock, [&] {
            return st->next.load() >= st->n && st->active.load() == 0;
        });
    }

    // All drainers have settled; errors is no longer concurrently
    // mutated. Move it out so the exception objects are released on
    // this thread: a helper may drop the last reference to st, and
    // freeing an exception there would race (as TSan sees it, blind
    // to libsupc++'s refcount) with the caller's reads of it. Sort
    // by iteration index so aggregation is independent of
    // scheduling order.
    std::vector<std::pair<size_t, std::exception_ptr>> errors =
        std::move(st->errors);
    std::sort(errors.begin(), errors.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    if (errors.empty()) {
        if (submitError)
            std::rethrow_exception(submitError);
        return;
    }
    // Cancellation dominates: concurrent iterations of a cancelled
    // job all trip the same token, and the token's reason is the
    // deterministic root cause — an aggregate of "which iterations
    // happened to be in flight" would not be.
    for (auto &err : errors) {
        Classified c = classifyException(err.second);
        if (c.cls == ErrorClass::Deadline)
            std::rethrow_exception(err.second);
    }
    if (errors.size() == 1 && !submitError)
        std::rethrow_exception(errors[0].second); // keep the type
    size_t shown = 0;
    std::string what = std::to_string(errors.size()) + " of " +
                       std::to_string(n) +
                       " parallel iterations failed:";
    bool allTransient = !submitError;
    ErrorClass cls = ErrorClass::None;
    bool mixed = false;
    for (auto &err : errors) {
        Classified c = classifyException(err.second);
        allTransient = allTransient && c.transient;
        if (cls == ErrorClass::None)
            cls = c.cls;
        else if (cls != c.cls)
            mixed = true;
        if (shown < 4) {
            what += " [" + std::to_string(err.first) + "] " +
                    c.message + ";";
            ++shown;
        }
    }
    if (errors.size() > shown)
        what += " (+" + std::to_string(errors.size() - shown) +
                " more)";
    else
        what.pop_back(); // trailing ';'
    throw AggregateError(what, mixed ? ErrorClass::Workload : cls,
                         allTransient, errors.size());
}

} // namespace driver
} // namespace rodinia
