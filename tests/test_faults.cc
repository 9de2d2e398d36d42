/**
 * @file
 * Fault-tolerance tests: deterministic fault injection, store
 * durability under injected IO failures, retry/backoff attempt
 * accounting, cancel-token deadlines and the jobs they fail,
 * parallelFor error aggregation,
 * and child-process integration tests for --keep-going MISSING
 * rendering and SIGKILL crash-resume.
 *
 * Every test configures the injector explicitly, so the suite
 * passes identically with and without a RODINIA_FAULTS environment
 * (the faults-smoke ctest lane pins RODINIA_FAULTS=seed=... to
 * prove the env path is exercised end to end in the children).
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver/context.hh"
#include "driver/executor.hh"
#include "driver/failure.hh"
#include "driver/job.hh"
#include "driver/result_store.hh"
#include "gpusim/timing.hh"
#include "support/cancel.hh"
#include "support/faultinject.hh"

using namespace rodinia;
using driver::ErrorClass;
using driver::Executor;
using driver::JobGraph;
using driver::JobStatus;
using driver::ResultStore;
using support::FaultInjector;
using support::FaultOp;

namespace {

/** Fresh scratch directory under the system temp dir. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path(std::filesystem::temp_directory_path() /
               ("rodinia_fault_test_" + tag))
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    const std::filesystem::path &dir() const { return path; }

  private:
    std::filesystem::path path;
};

/** RAII injector configuration; restores "no faults" on exit so
 *  tests stay independent when run in one process. */
class FaultConfig
{
  public:
    explicit FaultConfig(const std::string &spec)
    {
        FaultInjector::instance().configure(spec);
    }
    ~FaultConfig() { FaultInjector::instance().configure(""); }
};

bool
dirHasTmpDroppings(const std::filesystem::path &dir)
{
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec))
        if (entry.path().filename().string().find(".tmp.") !=
            std::string::npos)
            return true;
    return false;
}

// ---------------------------------------------------------------
// Child-process harness for the experiments CLI
// ---------------------------------------------------------------

struct Child
{
    pid_t pid = -1;
    int outFd = -1;
};

/**
 * Spawn the experiments binary with an explicit fault spec ("" =
 * none) and cache directory. The child's stdout comes back through
 * outFd; stderr is inherited (visible on test failure).
 */
Child
spawnExperiments(const std::vector<std::string> &args,
                 const std::string &faults,
                 const std::string &cacheDir)
{
    int fds[2];
    if (pipe(fds) != 0)
        return {};
    pid_t pid = fork();
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        // The child's fault environment is always explicit: never
        // inherit the test runner's (the faults-smoke lane exports
        // RODINIA_FAULTS for the whole suite).
        unsetenv("RODINIA_FAULTS");
        if (!faults.empty())
            setenv("RODINIA_FAULTS", faults.c_str(), 1);
        std::vector<std::string> all = {RODINIA_EXPERIMENTS_BIN,
                                        "--cache-dir", cacheDir};
        all.insert(all.end(), args.begin(), args.end());
        std::vector<char *> argv;
        for (auto &a : all)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        execv(argv[0], argv.data());
        _exit(127);
    }
    close(fds[1]);
    return {pid, fds[0]};
}

std::string
readAll(int fd)
{
    std::string out;
    char buf[4096];
    for (;;) {
        ssize_t n = read(fd, buf, sizeof(buf));
        if (n > 0) {
            out.append(buf, size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    close(fd);
    return out;
}

/** @return the child's exit code, or 128+signal if killed. */
int
reapChild(pid_t pid)
{
    int st = 0;
    if (waitpid(pid, &st, 0) != pid)
        return -1;
    if (WIFEXITED(st))
        return WEXITSTATUS(st);
    if (WIFSIGNALED(st))
        return 128 + WTERMSIG(st);
    return -1;
}

struct RunResult
{
    int exit = -1;
    std::string out;
};

RunResult
runExperiments(const std::vector<std::string> &args,
               const std::string &faults, const std::string &cacheDir)
{
    Child c = spawnExperiments(args, faults, cacheDir);
    RunResult r;
    if (c.pid < 0)
        return r;
    r.out = readAll(c.outFd); // drain before reaping: no pipe stall
    r.exit = reapChild(c.pid);
    return r;
}

/** Sorted (filename, payload) list of published store entries. */
std::vector<std::pair<std::string, std::string>>
storeContents(const std::filesystem::path &dir)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        std::string name = entry.path().filename().string();
        if (name.find(".tmp.") != std::string::npos)
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        out.emplace_back(name, buf.str());
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

// ---------------------------------------------------------------
// FaultSpec — RODINIA_FAULTS grammar
// ---------------------------------------------------------------

TEST(FaultSpec, MalformedSpecsDie)
{
    auto &inj = FaultInjector::instance();
    EXPECT_DEATH(inj.configure("write=2"), "RODINIA_FAULTS");
    EXPECT_DEATH(inj.configure("write=abc"), "RODINIA_FAULTS");
    EXPECT_DEATH(inj.configure("bogus=1"), "RODINIA_FAULTS");
    EXPECT_DEATH(inj.configure("fail="), "RODINIA_FAULTS");
    EXPECT_DEATH(inj.configure("stall=x"), "RODINIA_FAULTS");
    EXPECT_DEATH(inj.configure("stall=x@0"), "RODINIA_FAULTS");
    EXPECT_DEATH(inj.configure("seed"), "RODINIA_FAULTS");
}

TEST(FaultSpec, EmptySpecDisablesEverything)
{
    auto &inj = FaultInjector::instance();
    inj.configure("write=1,fsync=1,rename=1,unlink=1");
    EXPECT_TRUE(inj.enabled());
    EXPECT_TRUE(inj.failFile(FaultOp::Write, "k"));
    inj.configure("");
    EXPECT_FALSE(inj.enabled());
    EXPECT_FALSE(inj.failFile(FaultOp::Write, "k"));
    EXPECT_EQ(inj.injectedFileFailures(FaultOp::Write), 0u);
}

// ---------------------------------------------------------------
// FaultInject — decision determinism and stalls
// ---------------------------------------------------------------

TEST(FaultInject, DecisionsAreDeterministicPerSeedAndSite)
{
    auto &inj = FaultInjector::instance();
    auto sample = [&](const std::string &spec) {
        inj.configure(spec);
        std::vector<bool> out;
        for (int i = 0; i < 64; ++i)
            out.push_back(inj.failFile(FaultOp::Fsync, "entry_a"));
        return out;
    };
    auto a1 = sample("seed=7,fsync=0.5");
    auto a2 = sample("seed=7,fsync=0.5");
    EXPECT_EQ(a1, a2);
    // Some decision in 64 draws fires and some passes.
    EXPECT_NE(std::count(a1.begin(), a1.end(), true), 0);
    EXPECT_NE(std::count(a1.begin(), a1.end(), false), 0);
    auto b = sample("seed=8,fsync=0.5");
    EXPECT_NE(a1, b) << "seed must steer the decision sequence";
    // A different site key draws an independent sequence.
    inj.configure("seed=7,fsync=0.5");
    std::vector<bool> other;
    for (int i = 0; i < 64; ++i)
        other.push_back(inj.failFile(FaultOp::Fsync, "entry_b"));
    EXPECT_NE(a1, other);
    inj.configure("");
}

TEST(FaultInject, StallsServeSlicedAndCountOnce)
{
    FaultConfig cfg("stall=site:x@40");
    auto &inj = FaultInjector::instance();
    auto t0 = std::chrono::steady_clock::now();
    inj.maybeStall("pre/site:x/post");
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    EXPECT_GE(ms, 35.0);
    EXPECT_EQ(inj.stallsServed(), 1u);
    inj.maybeStall("unrelated");
    EXPECT_EQ(inj.stallsServed(), 1u);
}

TEST(FaultInject, StallHonorsCancellation)
{
    FaultConfig cfg("stall=slow@10000");
    support::CancelToken token;
    std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        token.cancel("test cancel");
    });
    support::CancelScope scope(&token);
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(FaultInjector::instance().maybeStall("slow-site"),
                 support::CancelledError);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    EXPECT_LT(ms, 5000.0) << "stall must unwind at the cancellation "
                             "checkpoint, not sleep out the full "
                             "duration";
    canceller.join();
}

// ---------------------------------------------------------------
// ResultStore under injected IO failures
// ---------------------------------------------------------------

TEST(FaultInject, StoreSurvivesInjectedPublishFailures)
{
    ResultStore::Key key;
    key.kind = "cpuchar";
    key.workload = "kmeans";
    for (const char *spec :
         {"write=1", "fsync=1", "rename=1"}) {
        ScratchDir scratch(std::string("pub_") + spec[0]);
        FaultConfig cfg(spec);
        ResultStore store(scratch.dir());
        EXPECT_FALSE(store.store(key, "payload\n")) << spec;
        EXPECT_EQ(store.publishFailures(), 1u) << spec;
        // The failed publish left no entry and no torn bytes.
        EXPECT_FALSE(store.load(key).has_value()) << spec;
        EXPECT_FALSE(dirHasTmpDroppings(scratch.dir())) << spec;
        // With the fault cleared the same store recovers.
        FaultInjector::instance().configure("");
        EXPECT_TRUE(store.store(key, "payload\n")) << spec;
        auto loaded = store.load(key);
        ASSERT_TRUE(loaded.has_value()) << spec;
        EXPECT_EQ(*loaded, "payload\n") << spec;
    }
}

TEST(ResultStoreFaults, CollectsOrphanedTmpFilesOnOpen)
{
    ScratchDir scratch("tmpgc");
    ResultStore::Key key;
    key.kind = "cpuchar";
    key.workload = "bfs";
    {
        ResultStore writer(scratch.dir());
        ASSERT_TRUE(writer.store(key, "good\n"));
        EXPECT_EQ(writer.tmpCollected(), 0u);
    }
    // Fake the droppings of two publishes that crashed between
    // write and rename, in the older one-field name form.
    std::ofstream(scratch.dir() / "cpuchar_bfs_feed.txt.tmp.123")
        << "half";
    std::ofstream(scratch.dir() / "gpustats_cfd_beef.txt.tmp.9")
        << "torn";
    // A temp named after a pid no process can have is a crashed
    // writer's; one named after this process is a running publish
    // (another store open on the same directory) and must survive.
    std::filesystem::path dead =
        scratch.dir() / ("recindex_kmeans_f00d.txt.tmp." +
                         std::to_string(INT_MAX) + ".77");
    std::filesystem::path live =
        scratch.dir() / ("recindex_nw_cafe.txt.tmp." +
                         std::to_string(getpid()) + ".42");
    std::ofstream(dead) << "dead";
    std::ofstream(live) << "live";
    ResultStore store(scratch.dir());
    EXPECT_EQ(store.tmpCollected(), 3u);
    EXPECT_FALSE(std::filesystem::exists(dead));
    EXPECT_TRUE(std::filesystem::exists(live))
        << "GC must not collect a running writer's temp";
    std::filesystem::remove(live);
    EXPECT_FALSE(dirHasTmpDroppings(scratch.dir()));
    auto loaded = store.load(key);
    ASSERT_TRUE(loaded.has_value()) << "GC must not touch published "
                                       "entries";
    EXPECT_EQ(*loaded, "good\n");
}

TEST(ResultStoreFaults, DiscardIsIdempotentUnderInjectedUnlinkFailure)
{
    ScratchDir scratch("discard");
    ResultStore store(scratch.dir());
    ResultStore::Key key;
    key.kind = "cpuchar";
    key.workload = "lud";
    ASSERT_TRUE(store.store(key, "corrupt\n"));
    ASSERT_TRUE(store.load(key).has_value());
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 0u);

    FaultInjector::instance().configure("unlink=1");
    store.discard(key);
    // The unlink failed: the entry survives and the hit/miss
    // ledger is untouched.
    EXPECT_TRUE(std::filesystem::exists(store.pathFor(key)));
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 0u);

    FaultInjector::instance().configure("");
    store.discard(key);
    EXPECT_FALSE(std::filesystem::exists(store.pathFor(key)));
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.misses(), 1u);

    // Repeating the discard is a no-op, not a double reclassify.
    store.discard(key);
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.misses(), 1u);
}

// ---------------------------------------------------------------
// Retry — transient/permanent taxonomy and attempt accounting
// ---------------------------------------------------------------

TEST(Retry, TransientErrorRetriesUntilSuccess)
{
    Executor ex(2);
    ex.setRetryPolicy({3, 1, 2});
    JobGraph g;
    std::atomic<int> calls{0};
    size_t id = g.add("flaky", [&] {
        if (calls.fetch_add(1) < 2)
            throw driver::TransientError("publish race");
    });
    EXPECT_TRUE(ex.run(g));
    EXPECT_EQ(g.job(id).status, JobStatus::Done);
    EXPECT_EQ(g.job(id).attempts, 3);
    EXPECT_EQ(g.job(id).errorClass, ErrorClass::None);
    EXPECT_EQ(calls.load(), 3);
}

TEST(Retry, TransientExhaustionFailsWithClassAndAttempts)
{
    Executor ex(2);
    ex.setRetryPolicy({3, 1, 2});
    JobGraph g;
    std::atomic<int> calls{0};
    size_t id = g.add("doomed", [&] {
        ++calls;
        throw driver::TransientError("store io down");
    });
    EXPECT_FALSE(ex.run(g));
    EXPECT_EQ(g.job(id).status, JobStatus::Failed);
    EXPECT_EQ(g.job(id).attempts, 3);
    EXPECT_EQ(g.job(id).errorClass, ErrorClass::StoreIo);
    EXPECT_EQ(g.job(id).error, "store io down");
    EXPECT_EQ(calls.load(), 3);
}

TEST(Retry, PermanentErrorFailsOnFirstAttempt)
{
    Executor ex(2);
    ex.setRetryPolicy({5, 1, 2});
    JobGraph g;
    std::atomic<int> calls{0};
    size_t id = g.add("broken", [&] {
        ++calls;
        throw std::runtime_error("logic bug");
    });
    EXPECT_FALSE(ex.run(g));
    EXPECT_EQ(g.job(id).status, JobStatus::Failed);
    EXPECT_EQ(g.job(id).attempts, 1);
    EXPECT_EQ(g.job(id).errorClass, ErrorClass::Workload);
    EXPECT_EQ(calls.load(), 1);
}

TEST(Retry, InjectedTransientFaultRetriesThenSucceeds)
{
    FaultConfig cfg("fail=flaky@transient@2");
    Executor ex(2);
    ex.setRetryPolicy({3, 1, 2});
    JobGraph g;
    std::atomic<int> ran{0};
    size_t id = g.add("flaky", [&] { ++ran; });
    size_t other = g.add("steady", [] {});
    EXPECT_TRUE(ex.run(g));
    EXPECT_EQ(g.job(id).status, JobStatus::Done);
    EXPECT_EQ(g.job(id).attempts, 3);
    EXPECT_EQ(g.job(other).attempts, 1);
    EXPECT_EQ(ran.load(), 1) << "the body must run only on the "
                                "attempt that survives injection";
    EXPECT_EQ(FaultInjector::instance().injectedJobFailures(), 2u);
}

TEST(Retry, InjectedPermanentFaultFailsAndSkipsDependents)
{
    FaultConfig cfg("fail=figure:x@permanent");
    Executor ex(2);
    JobGraph g;
    size_t boom = g.add("figure:x", [] {});
    size_t child = g.add("child", [] {}, {boom});
    EXPECT_FALSE(ex.run(g));
    EXPECT_EQ(g.job(boom).status, JobStatus::Failed);
    EXPECT_EQ(g.job(boom).errorClass, ErrorClass::Injected);
    EXPECT_EQ(g.job(boom).attempts, 1);
    EXPECT_EQ(g.job(boom).error,
              "injected fault in job 'figure:x' (attempt 1)");
    EXPECT_EQ(g.job(child).status, JobStatus::Skipped);
    EXPECT_EQ(g.job(child).errorClass, ErrorClass::Skipped);
    EXPECT_EQ(g.job(child).error,
              "skipped: dependency 'figure:x' failed");
}

// ---------------------------------------------------------------
// CancelToken — the optional deadline a token carries
// ---------------------------------------------------------------

namespace {

using TokenClock = support::CancelToken::Clock;

/** The reason @p token's checkpoint() throws, or "" if it does not. */
std::string
checkpointReason(const support::CancelToken &token)
{
    try {
        token.checkpoint();
    } catch (const support::CancelledError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(CancelToken, PastItsDeadlineCheckpointThrowsTheConfiguredReason)
{
    support::CancelToken token(TokenClock::now() -
                                   std::chrono::milliseconds(1),
                               "deadline: budget spent");
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), "deadline: budget spent");
    EXPECT_EQ(checkpointReason(token), "deadline: budget spent");
}

TEST(CancelToken, CancelBeforeExpiryKeepsItsOwnReason)
{
    auto deadline = TokenClock::now() + std::chrono::milliseconds(200);
    support::CancelToken token(deadline, "deadline: budget spent");
    token.cancel("cancel: by its owner");
    EXPECT_EQ(checkpointReason(token), "cancel: by its owner");
    std::this_thread::sleep_until(deadline +
                                  std::chrono::milliseconds(1));
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), "cancel: by its owner");
    EXPECT_EQ(checkpointReason(token), "cancel: by its owner");
}

TEST(CancelToken, CancelAfterExpiryReportsTheDeadlinesReason)
{
    support::CancelToken token(TokenClock::now() -
                                   std::chrono::milliseconds(1),
                               "deadline: budget spent");
    token.cancel("cancel: too late");
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), "deadline: budget spent");
    EXPECT_EQ(checkpointReason(token), "deadline: budget spent");
}

TEST(CancelToken, TokenWithoutDeadlineNeverExpires)
{
    support::CancelToken token;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(token.reason(), "");
    EXPECT_EQ(checkpointReason(token), "");
    token.cancel("cancel: by its owner");
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(checkpointReason(token), "cancel: by its owner");
}

TEST(CancelToken, ReadersAgreeOnTheFirstReason)
{
    // parallelFor helpers and epoch-engine lane runners poll one
    // token while its owner may cancel it near its deadline: every
    // reader must unwind with the one reason that won.
    auto deadline = TokenClock::now() + std::chrono::milliseconds(20);
    support::CancelToken token(deadline, "deadline: budget spent");
    std::vector<std::string> seen(4);
    std::vector<std::thread> readers;
    for (size_t i = 0; i < seen.size(); ++i)
        readers.emplace_back([&token, &seen, i] {
            auto give_up = TokenClock::now() + std::chrono::seconds(10);
            while (seen[i].empty() && TokenClock::now() < give_up)
                seen[i] = checkpointReason(token);
        });
    std::this_thread::sleep_until(deadline);
    token.cancel("cancel: by its owner");
    for (auto &t : readers)
        t.join();
    std::string winner = token.reason();
    EXPECT_TRUE(winner == "deadline: budget spent" ||
                winner == "cancel: by its owner")
        << winner;
    for (const auto &r : seen)
        EXPECT_EQ(r, winner);
}

// ---------------------------------------------------------------
// Watchdog — soft deadlines and cooperative cancellation
// ---------------------------------------------------------------

TEST(Watchdog, DeadlineFiresAtTheFirstCheckpointPastIt)
{
    // The token carries the deadline, so no monitor has to notice it
    // first: a job that checkpoints once after its budget ran out
    // fails right there, however soon it would have returned.
    Executor ex(1);
    JobGraph g;
    size_t id = g.add("brief", [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        support::checkpointCancellation();
    });
    g.job(id).softDeadlineMs = 1.0;
    EXPECT_FALSE(ex.run(g));
    EXPECT_EQ(g.job(id).status, JobStatus::Failed);
    EXPECT_EQ(g.job(id).errorClass, ErrorClass::Deadline);
    EXPECT_EQ(g.job(id).attempts, 1);
    EXPECT_EQ(g.job(id).error,
              "watchdog: job 'brief' exceeded soft deadline of 1 ms");
}

TEST(Watchdog, CancelsJobExceedingSoftDeadline)
{
    Executor ex(2);
    JobGraph g;
    size_t slow = g.add("slow", [] {
        auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
        while (std::chrono::steady_clock::now() < give_up) {
            support::checkpointCancellation();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    });
    size_t fast = g.add("fast", [] {});
    g.job(slow).softDeadlineMs = 60.0;
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(ex.run(g));
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    EXPECT_EQ(g.job(slow).status, JobStatus::Failed);
    EXPECT_EQ(g.job(slow).errorClass, ErrorClass::Deadline);
    EXPECT_EQ(g.job(slow).attempts, 1) << "deadline failures must "
                                          "not retry";
    EXPECT_EQ(g.job(slow).error,
              "watchdog: job 'slow' exceeded soft deadline of 60 ms");
    EXPECT_EQ(g.job(fast).status, JobStatus::Done);
    EXPECT_LT(ms, 8000.0) << "cancellation must cut the 10 s loop "
                             "short";
}

TEST(Watchdog, CancelsDeliberatelyStalledSim)
{
    FaultConfig cfg("stall=sim:@10000");
    Executor ex(2);
    driver::Context ctx(nullptr, &ex);
    JobGraph g;
    size_t sim = g.add("gpu-sim", [&] {
        ctx.gpuStats("kmeans", core::Scale::Tiny, 0,
                     gpusim::SimConfig::shaders(4));
    });
    g.job(sim).softDeadlineMs = 150.0;
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(ex.run(g));
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    EXPECT_EQ(g.job(sim).status, JobStatus::Failed);
    EXPECT_EQ(g.job(sim).errorClass, ErrorClass::Deadline);
    EXPECT_LT(ms, 8000.0) << "the 10 s stall must be cancelled at "
                             "a checkpoint, not served";
}

TEST(Watchdog, MemoWaiterHonoursItsOwnDeadline)
{
    // Both jobs want the same timing sim. The leader takes the key
    // and stalls in it; the waiter starts 200 ms later and joins that
    // simulation. The waiter's own 600 ms deadline must end its wait,
    // long before the leader's 4 s deadline cancels the simulation.
    FaultConfig cfg("stall=sim:@10000,stall=job:waiter@200");
    Executor ex(2);
    driver::Context ctx(nullptr, &ex);
    auto simulate = [&] {
        ctx.gpuStats("kmeans", core::Scale::Tiny, 0,
                     gpusim::SimConfig::shaders(4));
    };
    JobGraph g;
    size_t leader = g.add("leader", simulate);
    size_t waiter = g.add("waiter", simulate);
    g.job(leader).softDeadlineMs = 4000.0;
    g.job(waiter).softDeadlineMs = 600.0;
    EXPECT_FALSE(ex.run(g));

    EXPECT_EQ(g.job(waiter).status, JobStatus::Failed);
    EXPECT_EQ(g.job(waiter).errorClass, ErrorClass::Deadline);
    EXPECT_EQ(g.job(waiter).error,
              "watchdog: job 'waiter' exceeded soft deadline of 600 ms");
    EXPECT_LT(g.job(waiter).wallMs, 2000.0)
        << "the waiter stayed blocked on the leader's simulation";
    EXPECT_EQ(g.job(leader).errorClass, ErrorClass::Deadline);
    EXPECT_GE(g.job(leader).wallMs, 4000.0);
}

TEST(Watchdog, DeadlineCancellationReachesNestedParallelFor)
{
    Executor ex(2);
    JobGraph g;
    size_t id = g.add("nested", [&] {
        ex.parallelFor(4, [](size_t) {
            auto give_up = std::chrono::steady_clock::now() +
                           std::chrono::seconds(10);
            while (std::chrono::steady_clock::now() < give_up) {
                support::checkpointCancellation();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
        });
    });
    g.job(id).softDeadlineMs = 60.0;
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(ex.run(g));
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    EXPECT_EQ(g.job(id).errorClass, ErrorClass::Deadline)
        << g.job(id).error;
    EXPECT_LT(ms, 8000.0);
}

// ---------------------------------------------------------------
// Aggregate — parallelFor exception collection
// ---------------------------------------------------------------

TEST(Aggregate, ParallelForCollectsEveryConcurrentError)
{
    Executor ex(4);
    // All four iterations run concurrently (one per drainer) and
    // throw only after everyone has arrived, so no iteration can be
    // abandoned before it fails — the aggregate must list all four.
    std::atomic<int> arrived{0};
    try {
        ex.parallelFor(4, [&](size_t i) {
            arrived.fetch_add(1);
            auto give_up = std::chrono::steady_clock::now() +
                           std::chrono::seconds(30);
            while (arrived.load() < 4 &&
                   std::chrono::steady_clock::now() < give_up)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            throw std::runtime_error("iter " + std::to_string(i));
        });
        FAIL() << "parallelFor must throw";
    } catch (const driver::AggregateError &e) {
        EXPECT_EQ(e.errorCount(), 4u);
        EXPECT_FALSE(e.allTransient());
        std::string what = e.what();
        EXPECT_NE(what.find("4 of 4 parallel iterations failed"),
                  std::string::npos)
            << what;
        for (int i = 0; i < 4; ++i)
            EXPECT_NE(what.find("iter " + std::to_string(i)),
                      std::string::npos)
                << what;
    }
}

TEST(Aggregate, SingleErrorKeepsItsOriginalType)
{
    Executor ex(4);
    EXPECT_THROW(ex.parallelFor(64,
                                [&](size_t i) {
                                    if (i == 3)
                                        throw std::out_of_range("x");
                                }),
                 std::out_of_range);
}

TEST(Aggregate, AllTransientComponentsMakeTheAggregateTransient)
{
    Executor ex(4);
    ex.setRetryPolicy({2, 1, 2});
    JobGraph g;
    std::atomic<int> rounds{0};
    // Every iteration fails transiently on the first job attempt;
    // the aggregate is classified transient, so the *job* retries
    // and succeeds on attempt 2.
    size_t id = g.add("sweep", [&] {
        int round = rounds.fetch_add(1);
        std::atomic<int> arrived{0};
        ex.parallelFor(4, [&](size_t) {
            arrived.fetch_add(1);
            auto give_up = std::chrono::steady_clock::now() +
                           std::chrono::seconds(30);
            while (arrived.load() < 4 &&
                   std::chrono::steady_clock::now() < give_up)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            if (round == 0)
                throw driver::TransientError("flap");
        });
    });
    EXPECT_TRUE(ex.run(g));
    EXPECT_EQ(g.job(id).status, JobStatus::Done);
    EXPECT_EQ(g.job(id).attempts, 2);
}

TEST(Aggregate, CancellationDominatesAggregation)
{
    Executor ex(4);
    support::CancelToken token;
    token.cancel("stop everything");
    support::CancelScope scope(&token);
    try {
        ex.parallelFor(8, [](size_t) {
            support::checkpointCancellation();
        });
        FAIL() << "parallelFor must throw";
    } catch (const support::CancelledError &e) {
        // Helpers inherited the caller's token, every iteration
        // threw CancelledError, and the deterministic token reason
        // — not an iteration-count-dependent aggregate — surfaced.
        EXPECT_STREQ(e.what(), "stop everything");
    }
}

// ---------------------------------------------------------------
// AllocFault — injected allocation failure
// ---------------------------------------------------------------

TEST(AllocFault, InjectedAllocationFailureFailsJobAsOom)
{
    FaultConfig cfg("alloc=1");
    Executor ex(1);
    ex.setRetryPolicy({2, 1, 2});
    JobGraph g;
    size_t id = g.add("hungry", [] {
        std::vector<int> v(4096, 1);
        if (v[0] != 1)
            throw std::runtime_error("unreachable");
    });
    EXPECT_FALSE(ex.run(g));
    EXPECT_EQ(g.job(id).status, JobStatus::Failed);
    EXPECT_EQ(g.job(id).errorClass, ErrorClass::Oom);
    EXPECT_EQ(g.job(id).attempts, 2) << "bad_alloc is transient and "
                                        "must be retried";
    EXPECT_GE(FaultInjector::instance().injectedFileFailures(
                  FaultOp::Alloc),
              2u);
}

TEST(AllocFault, FailureInsideKernelFailsTheJobNotTheProcess)
{
    // Seed 7 fails an allocation inside a recorder fiber, i.e. in
    // the body of a GPU kernel thread, where an uncaught
    // std::bad_alloc would abort the process. The gpu: job must fail
    // as a transient oom and be retried instead.
    ScratchDir scratch("allockernel");
    RunResult r = runExperiments({"--figure", "fig2", "--quiet",
                                  "--no-summary"},
                                 "seed=7,alloc=0.00001",
                                 scratch.dir().string());
    EXPECT_TRUE(r.exit == 0 || r.exit == 1)
        << "exit " << r.exit << " (128+N means killed by signal N)";
}

// ---------------------------------------------------------------
// KeepGoing — MISSING rendering (child-process integration)
// ---------------------------------------------------------------

TEST(KeepGoing, InjectedFigureFailureRendersMissingDeterministically)
{
    ScratchDir scratch("keepgoing");
    std::string dir = scratch.dir().string();
    std::vector<std::string> args = {"--figure",
                                     "table1,ablation_coalesce",
                                     "--quiet", "--no-summary"};
    // Warm the store so the faulted reruns are cheap and the clean
    // reference exists.
    RunResult clean = runExperiments(args, "", dir);
    ASSERT_EQ(clean.exit, 0) << clean.out;
    ASSERT_EQ(clean.out.find("MISSING("), std::string::npos);

    std::vector<std::string> keep = args;
    keep.push_back("--keep-going");
    const std::string faults = "fail=figure:table1@permanent";
    RunResult faulted = runExperiments(keep, faults, dir);
    EXPECT_NE(faulted.exit, 0) << "a failed figure must exit "
                                  "non-zero";
    EXPECT_NE(faulted.out.find("MISSING(injected)"),
              std::string::npos)
        << faulted.out;
    EXPECT_NE(faulted.out.find(
                  "injected fault in job 'figure:table1'"),
              std::string::npos)
        << faulted.out;

    // MISSING rendering is deterministic: a second faulted run is
    // byte-identical.
    RunResult again = runExperiments(keep, faults, dir);
    EXPECT_EQ(faulted.out, again.out);
    EXPECT_EQ(faulted.exit, again.exit);

    // The surviving figure is byte-identical to the clean run.
    size_t cleanAt = clean.out.find("===== ablation/coalesce");
    size_t faultAt = faulted.out.find("===== ablation/coalesce");
    ASSERT_NE(cleanAt, std::string::npos);
    ASSERT_NE(faultAt, std::string::npos);
    EXPECT_EQ(clean.out.substr(cleanAt), faulted.out.substr(faultAt));
}

TEST(KeepGoing, WithoutFlagSuppressesFigureOutputOnFailure)
{
    ScratchDir scratch("nokeep");
    std::string dir = scratch.dir().string();
    std::vector<std::string> args = {"--figure", "table1", "--quiet",
                                     "--no-summary"};
    RunResult faulted = runExperiments(
        args, "fail=figure:table1@permanent", dir);
    EXPECT_NE(faulted.exit, 0);
    EXPECT_EQ(faulted.out.find("====="), std::string::npos)
        << "all-or-nothing mode must not print figure sections: "
        << faulted.out;
}

// ---------------------------------------------------------------
// CrashResume — SIGKILL mid-run, rerun, byte-identical output
// ---------------------------------------------------------------

TEST(CrashResume, SigkilledRunResumesByteIdenticalFromStore)
{
    ScratchDir reference("resume_ref");
    ScratchDir resumed("resume_kill");
    std::vector<std::string> args = {"--figure", "ablation_coalesce",
                                     "--jobs", "1", "--quiet",
                                     "--no-summary"};

    // Uninterrupted reference run in its own store.
    RunResult ref = runExperiments(args, "",
                                   reference.dir().string());
    ASSERT_EQ(ref.exit, 0) << ref.out;

    // Interrupted run: stall the first cfd sim so the kmeans sims
    // publish, then SIGKILL mid-campaign (possibly mid-publish —
    // the store's tmp+rename protocol makes that safe).
    Child child = spawnExperiments(args, "stall=sim:cfd@60000",
                                   resumed.dir().string());
    ASSERT_GT(child.pid, 0);
    bool sawPublish = false;
    auto give_up = std::chrono::steady_clock::now() +
                   std::chrono::seconds(120);
    while (std::chrono::steady_clock::now() < give_up) {
        std::error_code ec;
        for (const auto &entry : std::filesystem::directory_iterator(
                 resumed.dir(), ec)) {
            std::string name = entry.path().filename().string();
            if (name.rfind("gpustats_", 0) == 0 &&
                name.find(".tmp.") == std::string::npos)
                sawPublish = true;
        }
        if (sawPublish)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    kill(child.pid, SIGKILL);
    readAll(child.outFd);
    int killedExit = reapChild(child.pid);
    ASSERT_TRUE(sawPublish) << "no sim result was published before "
                               "the timeout";
    EXPECT_EQ(killedExit, 128 + SIGKILL);

    // Resume from the surviving store: byte-identical figures.
    RunResult resume = runExperiments(args, "",
                                      resumed.dir().string());
    ASSERT_EQ(resume.exit, 0) << resume.out;
    EXPECT_EQ(resume.out, ref.out);

    // The resumed store converges to the reference store's exact
    // payload set, with no tmp droppings left behind.
    EXPECT_FALSE(dirHasTmpDroppings(resumed.dir()));
    EXPECT_EQ(storeContents(resumed.dir()),
              storeContents(reference.dir()));

    // A warm rerun re-simulates nothing: every sim is store-served.
    std::vector<std::string> statsArgs = args;
    statsArgs.push_back("--stats");
    RunResult warm = runExperiments(statsArgs, "",
                                    resumed.dir().string());
    ASSERT_EQ(warm.exit, 0);
    EXPECT_NE(warm.out.find("0 sims run / 9 store-served"),
              std::string::npos)
        << warm.out;
}
