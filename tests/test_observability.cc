/**
 * @file
 * Observability tests: TraceCollector rendering rules (content-sorted
 * events, category-derived tids, wall-clock fields last), and
 * child-process integration tests pinning the determinism contract
 * of `experiments --trace/--metrics` — after stripping the
 * wall-clock remainder, the dumps are byte-identical across worker
 * counts and across processes — plus the --keep-going regression
 * that a failed job's metrics are dropped whole, never surfaced as
 * partially-merged counters.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/tracing.hh"
#include "support/metrics.hh"

using namespace rodinia;
using driver::TraceArgs;
using driver::TraceCollector;

namespace {

/** Fresh scratch directory under the system temp dir. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path(std::filesystem::temp_directory_path() /
               ("rodinia_obs_test_" + tag))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    const std::filesystem::path &dir() const { return path; }

  private:
    std::filesystem::path path;
};

// ---------------------------------------------------------------
// Child-process harness for the experiments CLI (same shape as
// test_faults.cc: explicit fault/cache environment, stdout piped
// back, stderr inherited).
// ---------------------------------------------------------------

struct RunResult
{
    int exit = -1;
    std::string out;
};

RunResult
runExperiments(const std::vector<std::string> &args,
               const std::string &faults, const std::string &cacheDir)
{
    int fds[2];
    if (pipe(fds) != 0)
        return {};
    pid_t pid = fork();
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
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
    RunResult r;
    char buf[4096];
    for (;;) {
        ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0) {
            r.out.append(buf, size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    close(fds[0]);
    int st = 0;
    if (waitpid(pid, &st, 0) == pid) {
        if (WIFEXITED(st))
            r.exit = WEXITSTATUS(st);
        else if (WIFSIGNALED(st))
            r.exit = 128 + WTERMSIG(st);
    }
    return r;
}

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * Remove the wall-clock remainder from a rendered trace: each event
 * is one line with ts/dur rendered last, so erasing from `,"ts":` to
 * the line's closing brace leaves exactly the deterministic part.
 */
std::string
stripTraceTimestamps(const std::string &trace)
{
    std::string out;
    std::istringstream in(trace);
    std::string line;
    while (std::getline(in, line)) {
        size_t ts = line.find(",\"ts\":");
        if (ts != std::string::npos) {
            size_t close = line.rfind('}');
            EXPECT_NE(close, std::string::npos) << line;
            EXPECT_GT(close, ts) << line;
            line.erase(ts, close - ts);
        }
        out += line;
        out += '\n';
    }
    return out;
}

/** The Stable section of a metrics dump: everything before the
 *  "volatile" key (the dump orders "stable" first by contract). */
std::string
stableMetrics(const std::string &json)
{
    size_t at = json.find("\"volatile\"");
    EXPECT_NE(at, std::string::npos) << json;
    return json.substr(0, at);
}

} // namespace

// ---------------------------------------------------------------
// Tracing — collector unit tests
// ---------------------------------------------------------------

TEST(Tracing, ArgsBuilderOrdersAndEscapes)
{
    TraceArgs a;
    a.str("job", "figure:\"x\"\\y").num("attempt", 3).str("z", "");
    EXPECT_EQ(a.json(),
              "{\"job\":\"figure:\\\"x\\\"\\\\y\",\"attempt\":3,"
              "\"z\":\"\"}");
    EXPECT_EQ(TraceArgs().json(), "{}");
}

TEST(Tracing, EventsSortByContentNotRecordingOrder)
{
    TraceCollector tc;
    auto t = TraceCollector::Clock::now();
    using std::chrono::microseconds;
    // Record in an order a racy schedule could produce; the render
    // must sort by (category, name, args) regardless.
    tc.record("store", "load", "{\"entry\":\"b\"}",
              t + microseconds(300), t + microseconds(400));
    tc.record("executor", "attempt", "{\"job\":\"y\"}",
              t + microseconds(200), t + microseconds(900));
    tc.record("executor", "attempt", "{\"job\":\"x\"}",
              t + microseconds(500), t + microseconds(600));
    tc.record("store", "load", "{\"entry\":\"a\"}",
              t + microseconds(100), t + microseconds(150));
    EXPECT_EQ(tc.eventCount(), 4u);

    std::string doc = tc.render();
    size_t x = doc.find("\"job\":\"x\"");
    size_t y = doc.find("\"job\":\"y\"");
    size_t a = doc.find("\"entry\":\"a\"");
    size_t b = doc.find("\"entry\":\"b\"");
    ASSERT_NE(x, std::string::npos);
    ASSERT_NE(y, std::string::npos);
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(b, std::string::npos);
    EXPECT_LT(x, y) << doc;
    EXPECT_LT(y, a) << "executor events sort before store events: "
                    << doc;
    EXPECT_LT(a, b) << doc;
}

TEST(Tracing, TidsComeFromSortedCategoriesNotThreads)
{
    TraceCollector tc;
    auto t = TraceCollector::Clock::now();
    tc.record("store", "load", "{}", t, t);
    tc.record("executor", "attempt", "{}", t, t);
    std::string doc = tc.render();

    // One virtual thread per category, numbered in sorted order and
    // announced first with thread_name metadata.
    EXPECT_NE(doc.find("\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                       "\"name\":\"thread_name\",\"args\":{\"name\":"
                       "\"executor\"}"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"ph\":\"M\",\"pid\":1,\"tid\":2,"
                       "\"name\":\"thread_name\",\"args\":{\"name\":"
                       "\"store\"}"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"tid\":1,\"cat\":\"executor\""),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"tid\":2,\"cat\":\"store\""),
              std::string::npos)
        << doc;
}

TEST(Tracing, WallClockFieldsRenderLastAndStripClean)
{
    // Two collectors record the same spans at different wall-clock
    // offsets; the stripped renders are byte-identical.
    auto recordAll = [](TraceCollector &tc, int skewUs) {
        auto t = TraceCollector::Clock::now();
        using std::chrono::microseconds;
        tc.record("gpusim", "sim", "{\"key\":\"k1\"}",
                  t + microseconds(skewUs),
                  t + microseconds(skewUs + 70));
        tc.record("figure", "fig4", "{}", t,
                  t + microseconds(2 * skewUs + 1));
    };
    TraceCollector a, b;
    recordAll(a, 1000);
    recordAll(b, 31);
    EXPECT_NE(a.render(), b.render());
    EXPECT_EQ(stripTraceTimestamps(a.render()),
              stripTraceTimestamps(b.render()));

    // ts/dur are the line's final members.
    std::istringstream in(a.render());
    std::string line;
    int spans = 0;
    while (std::getline(in, line)) {
        size_t ts = line.find(",\"ts\":");
        if (ts == std::string::npos)
            continue;
        ++spans;
        EXPECT_NE(line.find(",\"dur\":", ts), std::string::npos)
            << line;
        EXPECT_GT(ts, line.find("\"args\":")) << line;
    }
    EXPECT_EQ(spans, 2);
}

TEST(Tracing, NegativeDurationsClampToZero)
{
    TraceCollector tc;
    auto t = TraceCollector::Clock::now();
    tc.record("executor", "attempt", "{}",
              t + std::chrono::microseconds(50), t);
    std::string doc = tc.render();
    EXPECT_NE(doc.find("\"dur\":0"), std::string::npos) << doc;
}

TEST(Tracing, WriteFileRoundTripsAndReportsFailure)
{
    ScratchDir scratch("tracewrite");
    TraceCollector tc;
    auto t = TraceCollector::Clock::now();
    tc.record("store", "gc", "{\"collected\":0}", t, t);

    auto path = scratch.dir() / "trace.json";
    ASSERT_TRUE(tc.writeFile(path));
    EXPECT_EQ(slurp(path), tc.render());

    // A directory is not a writable file.
    EXPECT_FALSE(tc.writeFile(scratch.dir()));
}

TEST(Tracing, InstallActiveRoundTrip)
{
    ASSERT_EQ(TraceCollector::active(), nullptr)
        << "tests must leave no collector installed";
    TraceCollector tc;
    TraceCollector::install(&tc);
    EXPECT_EQ(TraceCollector::active(), &tc);
    TraceCollector::install(nullptr);
    EXPECT_EQ(TraceCollector::active(), nullptr);
}

// ---------------------------------------------------------------
// Observability — end-to-end determinism of --trace/--metrics
// ---------------------------------------------------------------

TEST(Observability, SidecarsDeterministicAcrossJobsAndProcesses)
{
    ScratchDir scratch("determinism");
    std::string cache = (scratch.dir() / "cache").string();

    // fig6 consumes the 25 CPU characterizations (cachesim seam),
    // ablation_coalesce replays GPU recordings (gpusim seam).
    const std::string figs = "fig6,ablation_coalesce";
    RunResult warm = runExperiments(
        {"--figure", figs, "--quiet", "--no-summary"}, "", cache);
    ASSERT_EQ(warm.exit, 0) << warm.out;

    auto instrumented = [&](const std::string &tag,
                            const std::string &jobs) {
        std::string t = (scratch.dir() / (tag + ".trace")).string();
        std::string m = (scratch.dir() / (tag + ".metrics")).string();
        RunResult r = runExperiments(
            {"--figure", figs, "--jobs", jobs, "--quiet",
             "--no-summary", "--trace", t, "--metrics", m},
            "", cache);
        EXPECT_EQ(r.exit, 0) << r.out;
        return std::make_pair(slurp(t), slurp(m));
    };

    auto [trace1, metrics1] = instrumented("j1", "1");
    auto [trace4, metrics4] = instrumented("j4", "4");
    auto [trace1b, metrics1b] = instrumented("j1b", "1");

    // Every instrumented seam shows up in the trace.
    for (const char *cat :
         {"\"cat\":\"executor\"", "\"cat\":\"store\"",
          "\"cat\":\"gpusim\"", "\"cat\":\"cachesim\"",
          "\"cat\":\"figure\""})
        EXPECT_NE(trace1.find(cat), std::string::npos) << cat;

    // Modulo wall-clock fields, traces are byte-identical across
    // worker counts and across processes.
    std::string s1 = stripTraceTimestamps(trace1);
    EXPECT_EQ(s1, stripTraceTimestamps(trace4));
    EXPECT_EQ(s1, stripTraceTimestamps(trace1b));

    // The Stable metrics section is byte-identical; the Volatile
    // section exists but carries the wall-clock readings.
    std::string m1 = stableMetrics(metrics1);
    EXPECT_EQ(m1, stableMetrics(metrics4));
    EXPECT_EQ(m1, stableMetrics(metrics1b));
    for (const char *name :
         {"\"jobs_done\"", "\"store_served\"", "\"chars_served\"",
          "\"built\"", "\"hits\""})
        EXPECT_NE(m1.find(name), std::string::npos) << name << "\n"
                                                    << m1;
}

TEST(Observability, ColdRunCoversComputePaths)
{
    ScratchDir scratch("coldtrace");
    std::string cache = (scratch.dir() / "cache").string();
    std::string t = (scratch.dir() / "cold.trace").string();
    std::string m = (scratch.dir() / "cold.metrics").string();
    RunResult r = runExperiments(
        {"--figure", "ablation_coalesce", "--quiet", "--no-summary",
         "--trace", t, "--metrics", m},
        "", cache);
    ASSERT_EQ(r.exit, 0) << r.out;

    std::string trace = slurp(t);
    EXPECT_NE(trace.find("\"name\":\"publish\""), std::string::npos);
    EXPECT_NE(trace.find("\"source\":\"simulated\""),
              std::string::npos);
    std::string metrics = slurp(m);
    EXPECT_NE(metrics.find("\"sims_run\": 9"), std::string::npos)
        << metrics;
    // 9 sims plus one recording-index entry per recorded kernel.
    EXPECT_NE(metrics.find("\"publishes\": 12"), std::string::npos)
        << metrics;
    // Volatile latency histograms recorded real samples.
    EXPECT_NE(metrics.find("\"publish_us\""), std::string::npos);
    EXPECT_NE(metrics.find("\"sim_wall_us\""), std::string::npos);
}

// ---------------------------------------------------------------
// KeepGoing — failed jobs must not leak partial metrics (the
// --stats --keep-going regression; runs in the faults-smoke lane)
// ---------------------------------------------------------------

TEST(KeepGoing, StatsDropFailedJobsCountersWholesale)
{
    ScratchDir scratch("kgstats");
    std::string cache = (scratch.dir() / "cache").string();

    // One gpu: job per kernel settles that kernel's three sims. Stall
    // the cfd sim far past the job deadline: gpu:cfd/s1/v1 has
    // recorded cfd, published its index entry (durable side effects
    // are not transactional) and missed its first stats entry when
    // the deadline fails it, so the figure is skipped. Its metric
    // transaction must be dropped whole: --stats reports only the
    // kmeans and bfs jobs, which commit on their own (one recording,
    // one index miss, three sims and three stats misses each), and
    // none of cfd's recording, sims or store traffic.
    std::vector<std::string> args = {
        "--figure", "ablation_coalesce", "--jobs", "1",
        "--deadline", "2500", "--keep-going", "--stats",
        "--quiet", "--no-summary"};
    auto expectFound = [](const std::string &out, const char *what) {
        EXPECT_NE(out.find(what), std::string::npos) << what << "\n"
                                                     << out;
    };
    // The --stats tables, after the figure text.
    auto stats = [](const std::string &out) {
        size_t at = out.find("Cache-sweep replay throughput");
        return at == std::string::npos ? std::string() : out.substr(at);
    };
    RunResult r1 =
        runExperiments(args, "stall=sim:cfd@60000", cache);
    EXPECT_NE(r1.exit, 0);
    expectFound(r1.out, "MISSING(skipped)");
    expectFound(r1.out, "skipped: dependency 'gpu:cfd/s1/v1' failed");
    expectFound(r1.out, "6 sims run / 0 store-served");
    expectFound(r1.out, "result store: 0 hits / 8 misses / 0 publish "
                        "failures / 0 orphaned tmp collected");
    expectFound(r1.out, "2 recordings: ");
    expectFound(r1.out, "; 2 hashes (0 from the index); ");
    expectFound(r1.out, "no sweeps replayed this run");
    // No row of the recording or sim tables names the failed kernel.
    EXPECT_NE(stats(r1.out).find("kmeans/"), std::string::npos) << r1.out;
    EXPECT_EQ(stats(r1.out).find("cfd/"), std::string::npos) << r1.out;
    // Jobs completed, so the all-zero hint must not print.
    EXPECT_EQ(r1.out.find("hint: nothing was recorded"),
              std::string::npos)
        << r1.out;

    // The dropped transaction did not undo durable work: the index
    // entry the doomed job published before its deadline is there.
    bool indexed = false;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(
             cache, ec))
        indexed = indexed ||
                  entry.path().filename().string().rfind(
                      "recindex_cfd", 0) == 0;
    EXPECT_TRUE(indexed);

    // Run 2: every gpu: job reads the index run 1 published. kmeans
    // and bfs serve their sims from the store; gpu:cfd/s1/v1 misses
    // its stats, records cfd, and dies the same way, dropping its
    // index hit, its misses and the recording with its transaction.
    RunResult r2 =
        runExperiments(args, "stall=sim:cfd@60000", cache);
    EXPECT_EQ(r1.exit, r2.exit);
    expectFound(r2.out, "0 sims run / 6 store-served");
    expectFound(r2.out, "result store: 8 hits / 0 misses / 0 publish "
                        "failures / 0 orphaned tmp collected");
    expectFound(r2.out, "0 recordings: ");
    expectFound(r2.out, "; 0 hashes (2 from the index); ");
    EXPECT_EQ(stats(r2.out).find("cfd/"), std::string::npos) << r2.out;
    EXPECT_EQ(r2.out.find("hint: nothing was recorded"),
              std::string::npos)
        << r2.out;
    // Figure output (the MISSING marker included) is deterministic.
    auto figures = [](const std::string &out) {
        return out.substr(0, out.find("Cache-sweep replay throughput"));
    };
    EXPECT_EQ(figures(r1.out), figures(r2.out));

    // With the fault cleared the same store completes the figure
    // and the committed metrics appear.
    RunResult ok = runExperiments(args, "", cache);
    EXPECT_EQ(ok.exit, 0) << ok.out;
    EXPECT_EQ(ok.out.find("MISSING("), std::string::npos) << ok.out;
    expectFound(ok.out, "3 sims run / 6 store-served");
}

TEST(KeepGoing, StatsHintsWhenNothingWasRecorded)
{
    ScratchDir scratch("statshint");
    std::string cache = (scratch.dir() / "cache").string();

    // Stall every site (every stall-site name contains ':') past a
    // short deadline: every job fails, every metric transaction is
    // dropped, and --stats has nothing to show. It must say why
    // instead of printing all-zero tables that read like a free run.
    std::vector<std::string> args = {
        "--no-cache", "--deadline", "300", "--keep-going",
        "--stats",    "--quiet",    "--no-summary"};
    RunResult r = runExperiments(args, "stall=:@60000", cache);
    EXPECT_NE(r.exit, 0);
    EXPECT_NE(r.out.find("hint: nothing was recorded this run"),
              std::string::npos)
        << r.out;

    // A run that does record work must not print the hint.
    RunResult ok = runExperiments(
        {"--figure", "fig1", "--stats", "--quiet", "--no-summary"},
        "", cache);
    EXPECT_EQ(ok.exit, 0) << ok.out;
    EXPECT_EQ(ok.out.find("hint: nothing was recorded"),
              std::string::npos)
        << ok.out;
}
