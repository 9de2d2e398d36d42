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
 * arrival order: 2 cold workers and 1 warm worker, queue caps of 64
 * cold and 256 warm requests, and at most 16 requests in flight per
 * client (the ServiceConfig defaults).
 *
 * Usage:
 *   experimentd --socket PATH [--cache-dir DIR] [--no-cache]
 *               [--jobs N] [--trace FILE]
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
        "  --trace FILE       write a Chrome trace_event JSON dump\n"
        "                     (service + driver spans) on shutdown\n",
        argv0);
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
            if (!v)
                return 2;
            char *end = nullptr;
            long n = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || n < 1 || n > 1024) {
                std::fprintf(stderr, "--jobs: '%s' is not an integer "
                                     "in [1, 1024]\n",
                             v);
                return 2;
            }
            int hw = int(std::thread::hardware_concurrency());
            cfg.executorThreads = int(n) > hw && hw > 0 ? hw : int(n);
        } else if (!std::strcmp(arg, "--trace")) {
            const char *v = value();
            if (!v)
                return 2;
            traceOut = v;
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
