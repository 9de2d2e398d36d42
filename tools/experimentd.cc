/**
 * @file
 * `experimentd` — the long-lived experiment daemon.
 *
 * Serves figure, simulation, and stats requests from many concurrent
 * clients over a Unix-domain socket (see src/service/), sharing one
 * warm driver::Context, one ResultStore, and one Executor across all
 * of them. Where `experiments` pays process startup and a context
 * rebuild per batch run, a warm daemon serves every memoized result
 * at socket round-trip cost. Each request is classified warm or
 * cold, and each lane has its own workers serving its queue in
 * arrival order.
 *
 * Usage:
 *   experimentd --socket PATH [--cache-dir DIR] [--no-cache]
 *               [--jobs N] [--cold-workers N] [--warm-workers N]
 *               [--max-cold-queue N] [--max-warm-queue N]
 *               [--per-client N] [--trace FILE] [--verbose]
 *
 * Runs until SIGINT/SIGTERM, then drains (queued requests fail as
 * "shutdown"), prints the per-client accounting table, and exits 0.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "driver/tracing.hh"
#include "service/server.hh"
#include "support/metrics.hh"
#include "support/table.hh"

using namespace rodinia;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [options]\n"
        "  --socket PATH      Unix-domain socket to listen on\n"
        "  --cache-dir D      result store directory (default\n"
        "                     bench_cache)\n"
        "  --no-cache         bypass the on-disk result store\n"
        "  --jobs N           executor worker threads (default:\n"
        "                     hardware threads)\n"
        "  --cold-workers N   cold-lane request workers (default 2)\n"
        "  --warm-workers N   warm-lane request workers (default 1)\n"
        "  --max-cold-queue N cold queue depth cap (default 64)\n"
        "  --max-warm-queue N warm queue depth cap (default 256)\n"
        "  --per-client N     per-client in-flight quota (default "
        "16)\n"
        "  --trace FILE       write a Chrome trace_event JSON dump\n"
        "                     (service + driver spans) on shutdown\n"
        "  --verbose          log per-connection/request lines\n",
        argv0);
}

bool
parsePositive(const char *flag, const char *v, long lo, long hi,
              long &out)
{
    char *end = nullptr;
    long n = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || n < lo || n > hi) {
        std::fprintf(stderr, "%s: '%s' is not an integer in [%ld, "
                             "%ld]\n",
                     flag, v, lo, hi);
        return false;
    }
    out = n;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    service::ServiceConfig cfg;
    std::string traceOut;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg);
                return nullptr;
            }
            return argv[++i];
        };
        long n = 0;
        if (!std::strcmp(arg, "--socket")) {
            const char *v = value();
            if (!v)
                return 2;
            cfg.socketPath = v;
        } else if (!std::strcmp(arg, "--cache-dir")) {
            const char *v = value();
            if (!v)
                return 2;
            cfg.cacheDir = v;
        } else if (!std::strcmp(arg, "--no-cache")) {
            cfg.cacheEnabled = false;
        } else if (!std::strcmp(arg, "--jobs")) {
            const char *v = value();
            if (!v || !parsePositive("--jobs", v, 1, 1024, n))
                return 2;
            int hw = int(std::thread::hardware_concurrency());
            cfg.executorThreads = int(n) > hw && hw > 0 ? hw : int(n);
        } else if (!std::strcmp(arg, "--cold-workers")) {
            const char *v = value();
            if (!v || !parsePositive("--cold-workers", v, 1, 64, n))
                return 2;
            cfg.coldWorkers = int(n);
        } else if (!std::strcmp(arg, "--warm-workers")) {
            const char *v = value();
            if (!v || !parsePositive("--warm-workers", v, 1, 64, n))
                return 2;
            cfg.warmWorkers = int(n);
        } else if (!std::strcmp(arg, "--max-cold-queue")) {
            const char *v = value();
            if (!v ||
                !parsePositive("--max-cold-queue", v, 1, 1 << 20, n))
                return 2;
            cfg.admission.maxColdQueue = size_t(n);
        } else if (!std::strcmp(arg, "--max-warm-queue")) {
            const char *v = value();
            if (!v ||
                !parsePositive("--max-warm-queue", v, 1, 1 << 20, n))
                return 2;
            cfg.admission.maxWarmQueue = size_t(n);
        } else if (!std::strcmp(arg, "--per-client")) {
            const char *v = value();
            if (!v ||
                !parsePositive("--per-client", v, 1, 1 << 20, n))
                return 2;
            cfg.admission.perClientInFlight = size_t(n);
        } else if (!std::strcmp(arg, "--trace")) {
            const char *v = value();
            if (!v)
                return 2;
            traceOut = v;
        } else if (!std::strcmp(arg, "--verbose")) {
            cfg.verbose = true;
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg);
            usage(argv[0]);
            return 2;
        }
    }
    if (cfg.socketPath.empty()) {
        std::fprintf(stderr, "experimentd: --socket is required\n");
        usage(argv[0]);
        return 2;
    }

    driver::TraceCollector trace;
    if (!traceOut.empty())
        driver::TraceCollector::install(&trace);

    service::ExperimentService svc(cfg);
    if (!svc.start())
        return 1;
    std::fprintf(stderr, "experimentd: listening on %s\n",
                 cfg.socketPath.c_str());

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!g_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::fprintf(stderr, "experimentd: shutting down\n");
    svc.stop();

    // Shutdown report: per-client accounting plus the service
    // counters from the metrics registry.
    Table t("Per-client accounting");
    t.setHeader({"Client", "Admitted", "Rej(over)", "Rej(quota)",
                 "Served", "Failed"});
    for (const auto &[client, cs] : svc.admission().snapshot())
        t.addRow({client, std::to_string(cs.admitted),
                  std::to_string(cs.rejectedOverload),
                  std::to_string(cs.rejectedQuota),
                  std::to_string(cs.served),
                  std::to_string(cs.failed)});
    std::fputs(t.render().c_str(), stdout);
    auto snap = support::metrics::Registry::global().snapshot();
    std::printf("\n%llu connection(s), %llu sims run, "
                "%llu store-served, %llu coalesced follower(s)\n",
                (unsigned long long)svc.connectionsAccepted(),
                (unsigned long long)snap.value("gpusim.sims_run"),
                (unsigned long long)snap.value("gpusim.store_served"),
                (unsigned long long)snap.value(
                    "service.coalesce.followers"));

    if (!traceOut.empty()) {
        driver::TraceCollector::install(nullptr);
        if (!trace.writeFile(traceOut)) {
            std::fprintf(stderr, "experimentd: cannot write %s\n",
                         traceOut.c_str());
            return 1;
        }
    }
    return 0;
}
