/**
 * @file
 * `experiments` — run the paper's figures as one parallel job graph.
 *
 * This CLI builds a driver::JobGraph over every requested figure: one
 * job per distinct GPU kernel (shared by Figs. 1-5 / Table III / PB),
 * which settles every sim and trace analysis the selected figures
 * declare for it and frees its recording, one per CPU
 * characterization (shared by Figs. 6-12), and one per figure render,
 * wired with explicit dependencies and executed on the work-stealing
 * pool. Figure text is byte-identical to a serial build because every
 * path renders through the same driver::FigureDef functions with
 * deterministic ordered assembly.
 *
 * Usage:
 *   experiments [--figure <id>|all] [--scale S] [--jobs N] [--no-cache]
 *               [--cache-dir DIR] [--quiet] [--no-summary] [--list]
 *               [--stats] [--keep-going] [--deadline MS]
 *               [--trace FILE] [--metrics FILE]
 *
 * Failure behavior: job failures never abort the process — the
 * executor isolates them, retries transient classes, and skips
 * dependents. Without --keep-going a failed run suppresses figure
 * output entirely (all-or-nothing); with it, every completable
 * figure is emitted byte-identical to a clean run and failed ones
 * are rendered as deterministic MISSING(<error-class>) markers.
 * Either way the process exits non-zero with a per-job failure
 * summary on stderr. --deadline gives every job attempt a soft
 * deadline that its cancel token carries: the first cancellation
 * checkpoint past it fails the job as 'deadline'. RODINIA_FAULTS
 * (support/faultinject.hh) injects deterministic faults for testing.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>
#include <string>
#include <vector>

#include "driver/context.hh"
#include "driver/executor.hh"
#include "driver/failure.hh"
#include "driver/figures.hh"
#include "driver/job.hh"
#include "driver/result_store.hh"
#include "driver/tracing.hh"
#include "support/hash.hh"
#include "support/metrics.hh"
#include "support/progress.hh"
#include "support/table.hh"

using namespace rodinia;

namespace {

struct Options
{
    std::vector<std::string> figures; //!< empty = all
    core::Scale scale = core::Scale::Full;
    int jobs = 0;                     //!< 0 = hardware concurrency
    bool cache = true;
    std::string cacheDir = "bench_cache";
    bool quiet = false;
    bool summary = true;
    bool list = false;
    bool stats = false;
    bool keepGoing = false;
    double deadlineMs = 0.0;  //!< per-job soft deadline; 0 = off
    std::string traceOut;     //!< Chrome trace_event JSON path
    std::string metricsOut;   //!< metrics registry JSON path
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --figure ID    figure to run (repeatable; comma lists ok;\n"
        "                 'all' or omitted = every figure; see --list)\n"
        "  --scale S      problem-size tier for the primary figures:\n"
        "                 tiny|small|full|paper (default full; paper\n"
        "                 streams Table I-scale traces)\n"
        "  --jobs N       worker threads (default: hardware threads)\n"
        "  --no-cache     bypass the on-disk result store\n"
        "  --cache-dir D  result store directory (default bench_cache)\n"
        "  --quiet        suppress per-job progress on stderr\n"
        "  --no-summary   suppress the job accounting table\n"
        "  --list         print figure ids and exit\n"
        "  --stats        print cache-sweep replay throughput, GPU\n"
        "                 timing-simulation telemetry, GPU recording\n"
        "                 work, memory (peak RSS, live recordings) and\n"
        "                 result-store health after the figures\n"
        "  --keep-going   on job failure, still emit every\n"
        "                 completable figure and render failed ones\n"
        "                 as MISSING(<error-class>) markers\n"
        "  --deadline MS  soft per-job deadline in ms; a job fails\n"
        "                 as 'deadline' at its first cancellation\n"
        "                 checkpoint past it\n"
        "  --trace FILE   write a Chrome trace_event JSON span\n"
        "                 trace (executor, store, gpusim, cachesim,\n"
        "                 figure categories; load in chrome://tracing\n"
        "                 or ui.perfetto.dev)\n"
        "  --metrics FILE write the metrics registry as JSON\n"
        "                 (deterministic \"stable\" section, then\n"
        "                 wall-clock \"volatile\" section)\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", argv[i]);
            return nullptr;
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--figure")) {
            const char *v = value(i);
            if (!v)
                return false;
            std::stringstream ss(v);
            std::string id;
            while (std::getline(ss, id, ','))
                if (!id.empty())
                    opt.figures.push_back(id);
        } else if (!std::strcmp(arg, "--scale")) {
            const char *v = value(i);
            if (!v)
                return false;
            if (!std::strcmp(v, "tiny")) {
                opt.scale = core::Scale::Tiny;
            } else if (!std::strcmp(v, "small")) {
                opt.scale = core::Scale::Small;
            } else if (!std::strcmp(v, "full")) {
                opt.scale = core::Scale::Full;
            } else if (!std::strcmp(v, "paper")) {
                opt.scale = core::Scale::Paper;
            } else {
                std::fprintf(stderr,
                             "--scale: '%s' is not one of "
                             "tiny|small|full|paper\n",
                             v);
                return false;
            }
        } else if (!std::strcmp(arg, "--jobs")) {
            const char *v = value(i);
            if (!v)
                return false;
            // Strict parse: "4abc", "", or out-of-range values are
            // configuration mistakes, not requests for atoi's guess.
            char *end = nullptr;
            long n = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || n < 1 || n > 1024) {
                std::fprintf(stderr,
                             "--jobs: '%s' is not an integer in "
                             "[1, 1024]\n",
                             v);
                return false;
            }
            opt.jobs = int(n);
        } else if (!std::strcmp(arg, "--no-cache")) {
            opt.cache = false;
        } else if (!std::strcmp(arg, "--cache-dir")) {
            const char *v = value(i);
            if (!v)
                return false;
            opt.cacheDir = v;
        } else if (!std::strcmp(arg, "--quiet")) {
            opt.quiet = true;
        } else if (!std::strcmp(arg, "--no-summary")) {
            opt.summary = false;
        } else if (!std::strcmp(arg, "--list")) {
            opt.list = true;
        } else if (!std::strcmp(arg, "--stats")) {
            opt.stats = true;
        } else if (!std::strcmp(arg, "--keep-going")) {
            opt.keepGoing = true;
        } else if (!std::strcmp(arg, "--deadline")) {
            const char *v = value(i);
            if (!v)
                return false;
            char *end = nullptr;
            long n = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || n < 1 ||
                n > 86400000L) {
                std::fprintf(stderr,
                             "--deadline: '%s' is not a millisecond "
                             "count in [1, 86400000]\n",
                             v);
                return false;
            }
            opt.deadlineMs = double(n);
        } else if (!std::strcmp(arg, "--trace")) {
            const char *v = value(i);
            if (!v)
                return false;
            opt.traceOut = v;
        } else if (!std::strcmp(arg, "--metrics")) {
            const char *v = value(i);
            if (!v)
                return false;
            opt.metricsOut = v;
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage(argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg);
            usage(argv[0]);
            return false;
        }
    }
    return true;
}

std::vector<const driver::FigureDef *>
selectFigures(const Options &opt, bool &ok)
{
    std::vector<const driver::FigureDef *> out;
    ok = true;
    bool all = opt.figures.empty();
    for (const auto &id : opt.figures) {
        if (id == "all") {
            all = true;
        } else if (!driver::findFigure(id)) {
            std::string valid;
            for (const auto &def : driver::allFigures())
                valid += (valid.empty() ? "" : " ") + def.id;
            std::fprintf(stderr,
                         "unknown figure '%s'; valid figures: all %s\n",
                         id.c_str(), valid.c_str());
            ok = false;
            return out;
        }
    }
    if (all) {
        for (const auto &def : driver::allFigures())
            out.push_back(&def);
        return out;
    }
    // Keep the user's requested order, dropping duplicates.
    for (const auto &id : opt.figures) {
        const auto *def = driver::findFigure(id);
        bool seen = false;
        for (const auto *d : out)
            seen = seen || d == def;
        if (!seen)
            out.push_back(def);
    }
    return out;
}

/** One job per distinct kernel (its version already resolved). */
std::string
gpuJobName(const driver::KernelWork &k)
{
    return std::string("gpu:").append(
        driver::recordingKey(k.workload, k.scale, k.version));
}

/** This process's peak resident set, in KiB. */
uint64_t
peakRssKiB()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return uint64_t(ru.ru_maxrss);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;

    // Before any allFigures() call: the figure table embeds the
    // scale in its GPU dependency lists.
    driver::setPrimaryScale(opt.scale);

    if (opt.list) {
        for (const auto &def : driver::allFigures())
            std::printf("%-18s %s\n", def.id.c_str(),
                        def.title.c_str());
        return 0;
    }

    bool ok = false;
    auto figures = selectFigures(opt, ok);
    if (!ok)
        return 2;

    core::registerAllWorkloads();

    // The collector must be live before the store opens so the
    // orphan-GC span at open is captured.
    driver::TraceCollector trace;
    if (!opt.traceOut.empty())
        driver::TraceCollector::install(&trace);

    driver::ResultStore store(opt.cacheDir, opt.cache);
    // More workers than hardware threads only adds contention (the
    // jobs are CPU-bound, never blocking on I/O), and figure output
    // is byte-identical across worker counts by design, so clamping
    // is safe. Executor itself stays unclamped: tests deliberately
    // oversubscribe to exercise races.
    int hw = int(std::thread::hardware_concurrency());
    if (hw < 1)
        hw = 1;
    int jobs = opt.jobs <= 0 ? hw : std::min(opt.jobs, hw);
    driver::Executor executor(jobs);
    driver::Context ctx(&store, &executor);

    driver::JobGraph graph;

    // Shared input jobs: one per distinct GPU kernel over the union
    // of the selected figures' points, then one per CPU
    // characterization. A gpu: job settles its kernel's sims and
    // trace analysis (Context::settle): it serves what the store
    // holds, and only on a miss records once, runs the missing sims
    // across the pool, publishes, and frees the recording. The
    // executor starts roots in graph order, so the kernels that gate
    // Figs. 1-5 go first.
    const std::vector<driver::KernelWork> kernels =
        driver::kernelWork(figures);
    std::map<std::string, size_t> kernelJob; // job name -> job id
    for (const auto &k : kernels)
        kernelJob[gpuJobName(k)] =
            graph.add(gpuJobName(k), [&ctx, &k] { ctx.settle(k); });
    std::vector<std::vector<size_t>> gpuDeps(figures.size());
    for (size_t i = 0; i < figures.size(); ++i)
        for (const auto &k : driver::kernelWork({figures[i]}))
            gpuDeps[i].push_back(kernelJob.at(gpuJobName(k)));

    bool needsAllCpu = false;
    for (const auto *def : figures)
        needsAllCpu = needsAllCpu || def->needsAllCpu;

    std::vector<size_t> cpuJobs;
    if (needsAllCpu) {
        for (const auto &name : driver::allCpuWorkloads()) {
            cpuJobs.push_back(graph.add("cpu:" + name, [&ctx, name] {
                ctx.cpu(name, driver::primaryScale());
            }));
        }
    }

    std::vector<std::string> outputs(figures.size());
    std::vector<size_t> figureJobIds(figures.size());
    for (size_t i = 0; i < figures.size(); ++i) {
        const auto *def = figures[i];
        std::vector<size_t> deps;
        if (def->needsAllCpu)
            deps = cpuJobs;
        deps.insert(deps.end(), gpuDeps[i].begin(), gpuDeps[i].end());
        figureJobIds[i] = graph.add(
            "figure:" + def->id,
            [&ctx, &outputs, i, def] {
                outputs[i] = driver::buildFigure(*def, ctx);
            },
            std::move(deps));
    }

    if (opt.deadlineMs > 0.0)
        for (auto &job : graph.jobs())
            job.softDeadlineMs = opt.deadlineMs;

    support::ProgressReporter progress(graph.size(), stderr, !opt.quiet);
    auto t0 = std::chrono::steady_clock::now();
    bool allOk = executor.run(graph, &progress);
    double wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    // Figure text in requested order, independent of execution
    // schedule. A failed run degrades per --keep-going: completed
    // figures are emitted byte-identical to a clean run and failed
    // ones become deterministic MISSING markers (the marker text
    // depends only on the error class and message, never on timing).
    // Without --keep-going a failed run is all-or-nothing: figure
    // output is suppressed and the stderr summary explains why.
    if (allOk || opt.keepGoing) {
        for (size_t i = 0; i < figures.size(); ++i) {
            std::printf("===== %s =====\n\n",
                        figures[i]->title.c_str());
            const driver::Job &job = graph.job(figureJobIds[i]);
            if (job.status == driver::JobStatus::Done) {
                std::fputs(outputs[i].c_str(), stdout);
            } else {
                std::printf("MISSING(%s)\n",
                            driver::errorClassName(job.errorClass));
                std::printf("figure '%s' did not complete: %s\n",
                            figures[i]->id.c_str(),
                            job.error.c_str());
            }
            std::fputs("\n", stdout);
        }
    }

    if (opt.summary) {
        Table t("Job accounting");
        t.setHeader({"Job", "Status", "Class", "Attempts",
                     "Wall (ms)"});
        for (const auto &job : graph.jobs())
            t.addRow({job.name, driver::jobStatusName(job.status),
                      driver::errorClassName(job.errorClass),
                      std::to_string(job.attempts),
                      Table::fmt(job.wallMs, 1)});
        std::fputs(t.render().c_str(), stdout);
        std::printf("\n%zu jobs on %d threads: %.1f ms wall, "
                    "%.1f ms of work, store: %llu hits / %llu misses\n",
                    graph.size(), executor.threadCount(), wallMs,
                    graph.totalWorkMs(),
                    (unsigned long long)store.hits(),
                    (unsigned long long)store.misses());
    }

    // One merged view feeds --stats, --metrics, or both. The
    // registry holds only *committed* work: a job that failed under
    // --keep-going dropped its metric transaction whole, so these
    // tables never show partially-merged counters.
    support::metrics::gauge("process.peak_rss_kib", peakRssKiB());
    support::metrics::Snapshot snap =
        support::metrics::Registry::global().snapshot();

    if (opt.stats) {
        Table t("Cache-sweep replay throughput");
        t.setHeader({"Characterization", "Line accesses", "Replay (s)",
                     "Maccess/s"});
        uint64_t totalAccesses = 0;
        double totalSeconds = 0.0;
        const auto *sweepAcc =
            snap.find("cachesim.sweep.line_accesses");
        size_t sweeps = sweepAcc ? sweepAcc->values.size() : 0;
        if (sweepAcc) {
            // Registry labels are sorted, so the table order is
            // deterministic (the old telemetry-vector rendering
            // followed completion order).
            for (const auto &[key, accesses] : sweepAcc->values) {
                double seconds =
                    double(snap.value("cachesim.sweep.wall_us",
                                      key)) /
                    1e6;
                double rate = seconds > 0.0
                                  ? double(accesses) / seconds / 1e6
                                  : 0.0;
                t.addRow({key, std::to_string(accesses),
                          Table::fmt(seconds, 3),
                          Table::fmt(rate, 1)});
                totalAccesses += accesses;
                totalSeconds += seconds;
            }
        }
        std::fputs(t.render().c_str(), stdout);
        if (sweeps == 0)
            std::printf("no sweeps replayed this run (all "
                        "characterizations came from the store)\n");
        else
            std::printf("%llu line accesses in %.3f s replay: "
                        "%.1f Maccess/s across all sizes\n",
                        (unsigned long long)totalAccesses, totalSeconds,
                        totalSeconds > 0.0 ? double(totalAccesses) /
                                                 totalSeconds / 1e6
                                           : 0.0);
        Table g("GPU timing-simulation telemetry");
        g.setHeader({"Simulation", "Cycles", "Sim (s)", "Mcycle/s"});
        uint64_t totalCycles = 0;
        double totalSimSeconds = 0.0;
        const auto *simCycles = snap.find("gpusim.sim.cycles");
        size_t simsRun = simCycles ? simCycles->values.size() : 0;
        if (simCycles) {
            for (const auto &[key, cycles] : simCycles->values) {
                // The key's config component is the full
                // fingerprint; compress it to a short digest so the
                // table stays readable while distinct configs stay
                // distinguishable.
                std::string label = key;
                size_t cfgAt = label.find('/');
                cfgAt = cfgAt == std::string::npos
                            ? std::string::npos
                            : label.find('/', cfgAt + 1);
                cfgAt = cfgAt == std::string::npos
                            ? std::string::npos
                            : label.find('/', cfgAt + 1);
                if (cfgAt != std::string::npos) {
                    support::Fnv1a h;
                    h.field(std::string_view(label).substr(cfgAt + 1));
                    char tag[16];
                    std::snprintf(tag, sizeof(tag), "cfg=%08llx",
                                  (unsigned long long)(h.digest() &
                                                       0xffffffffu));
                    label = label.substr(0, cfgAt + 1) + tag;
                }
                double seconds =
                    double(snap.value("gpusim.sim.wall_us", key)) /
                    1e6;
                double rate = seconds > 0.0
                                  ? double(cycles) / seconds / 1e6
                                  : 0.0;
                g.addRow({label, std::to_string(cycles),
                          Table::fmt(seconds, 3),
                          Table::fmt(rate, 1)});
                totalCycles += cycles;
                totalSimSeconds += seconds;
            }
        }
        std::fputs(g.render().c_str(), stdout);
        std::printf("%zu sims run / %llu store-served: %llu cycles "
                    "simulated in %.3f s (%.1f Mcycle/s)\n",
                    simsRun,
                    (unsigned long long)snap.value(
                        "gpusim.store_served"),
                    (unsigned long long)totalCycles, totalSimSeconds,
                    totalSimSeconds > 0.0
                        ? double(totalCycles) / totalSimSeconds / 1e6
                        : 0.0);
        std::printf("timing engine: %llu engine runs / "
                    "%llu epochs / %llu deferred replays / "
                    "%llu CTA pauses\n",
                    (unsigned long long)snap.value("gpusim.epoch.runs"),
                    (unsigned long long)snap.value(
                        "gpusim.epoch.count"),
                    (unsigned long long)snap.value(
                        "gpusim.epoch.deferred_replays"),
                    (unsigned long long)snap.value(
                        "gpusim.epoch.cta_pauses"));
        if (uint64_t over = snap.value("gpusim.oversubscribed_cta"))
            std::printf("WARNING: %llu CTA placement(s) exceeded "
                        "standalone SM capacity (admitted by the "
                        "make-progress hatch)\n",
                        (unsigned long long)over);
        // Work counts only, all stable: a run whose only committed
        // jobs are recordings must still print byte-identical
        // stats. The wall times are the volatile
        // gpusim.{record,hash,replay}.wall_us gauges in --metrics.
        Table r("GPU recording");
        r.setHeader({"Recording", "Launches", "Blocks", "Events",
                     "B/event", "Fiber switches"});
        uint64_t recTotals[6] = {0, 0, 0, 0, 0, 0};
        static const char *const recCounters[6] = {
            "gpusim.record.launches", "gpusim.record.blocks",
            "gpusim.record.events", "gpusim.record.encoded_bytes",
            "gpusim.record.fiber_switches",
            "gpusim.record.allocated_bytes"};
        if (const auto *events = snap.find("gpusim.record.events")) {
            for (const auto &[key, n] : events->values) {
                uint64_t v[6];
                for (int i = 0; i < 6; ++i) {
                    v[i] = snap.value(recCounters[i], key);
                    recTotals[i] += v[i];
                }
                r.addRow({key, std::to_string(v[0]), std::to_string(v[1]),
                          std::to_string(v[2]),
                          Table::fmt(n ? double(v[3]) / double(n) : 0.0,
                                     2),
                          std::to_string(v[4])});
            }
        }
        std::fputs(r.render().c_str(), stdout);
        std::printf("%llu recordings: %llu launches / %llu blocks / "
                    "%llu events in %llu encoded bytes / %llu fiber "
                    "switches; %llu hashes (%llu from the index); "
                    "%llu warp-trace builds; %llu trace analyses (%llu "
                    "from the store)\n",
                    (unsigned long long)snap.value("gpusim.record.calls"),
                    (unsigned long long)recTotals[0],
                    (unsigned long long)recTotals[1],
                    (unsigned long long)recTotals[2],
                    (unsigned long long)recTotals[3],
                    (unsigned long long)recTotals[4],
                    (unsigned long long)snap.value("gpusim.hash.calls"),
                    (unsigned long long)snap.value(
                        "gpusim.hash.index_served"),
                    (unsigned long long)snap.value("gpusim.replay.calls"),
                    (unsigned long long)snap.value(
                        "gpusim.replay.analyses"),
                    (unsigned long long)snap.value(
                        "gpusim.replay.store_served"));
        // Peak RSS and the resident gauges are wall-clock-like
        // (volatile): they depend on the schedule, not only the work.
        std::printf("memory: peak RSS %.1f MiB; recordings alive at "
                    "once: at most %llu (%.1f MiB); warp traces alive at "
                    "once: at most %llu (%.1f MiB); %llu allocated bytes "
                    "for %llu encoded (%.3fx)\n",
                    double(snap.value("process.peak_rss_kib")) / 1024.0,
                    (unsigned long long)snap.value(
                        "gpusim.record.resident_max"),
                    double(snap.value("gpusim.record.resident_bytes_max")) /
                        (1024.0 * 1024.0),
                    (unsigned long long)snap.value(
                        "gpusim.replay.resident_max"),
                    double(snap.value("gpusim.replay.resident_bytes_max")) /
                        (1024.0 * 1024.0),
                    (unsigned long long)recTotals[5],
                    (unsigned long long)recTotals[3],
                    recTotals[3] ? double(recTotals[5]) /
                                       double(recTotals[3])
                                 : 0.0);
        std::printf("result store: %llu hits / %llu misses / "
                    "%llu publish failures / %llu orphaned tmp "
                    "collected\n",
                    (unsigned long long)snap.value("store.hits"),
                    (unsigned long long)snap.value("store.misses"),
                    (unsigned long long)snap.value(
                        "store.publish_failures"),
                    (unsigned long long)snap.value(
                        "store.tmp_collected"));
        // All-zero tables are ambiguous: they read the same whether
        // the run was free (everything store-served) or never got
        // anywhere. When no job completed, say so — the likely causes
        // are an early exit or every job failing (a failed job's
        // metric transaction is dropped whole, see --keep-going).
        // Job lifecycle counters are counted outside the
        // transactions, so they see every completed job.
        if (snap.value("executor.jobs_done") == 0)
            std::printf(
                "hint: nothing was recorded this run — it exited "
                "before any job completed, or every job failed "
                "(failed jobs drop their metric transactions "
                "whole). See the failure report above.\n");
    }

    bool sidecarOk = true;
    if (!opt.metricsOut.empty()) {
        std::FILE *f = std::fopen(opt.metricsOut.c_str(), "wb");
        if (f) {
            std::string json = snap.renderJson();
            sidecarOk = std::fwrite(json.data(), 1, json.size(), f) ==
                            json.size() &&
                        sidecarOk;
            sidecarOk = std::fclose(f) == 0 && sidecarOk;
        } else {
            sidecarOk = false;
        }
        if (!sidecarOk)
            std::fprintf(stderr, "experiments: cannot write %s\n",
                         opt.metricsOut.c_str());
    }
    if (!opt.traceOut.empty()) {
        driver::TraceCollector::install(nullptr);
        if (!trace.writeFile(opt.traceOut)) {
            std::fprintf(stderr, "experiments: cannot write %s\n",
                         opt.traceOut.c_str());
            sidecarOk = false;
        }
    }

    if (!allOk) {
        auto failures = driver::collectFailures(graph);
        size_t failed = 0;
        size_t skipped = 0;
        for (const auto &f : failures) {
            if (f.cls == driver::ErrorClass::Skipped)
                ++skipped;
            else
                ++failed;
            std::fprintf(stderr, "FAILED: %s\n", f.format().c_str());
        }
        std::fprintf(stderr,
                     "experiments: %zu job(s) failed, %zu skipped%s\n",
                     failed, skipped,
                     opt.keepGoing
                         ? "; completable figures were emitted"
                         : "; figure output suppressed (use "
                           "--keep-going for partial results)");
        return 1;
    }
    return 0;
}
