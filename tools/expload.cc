/**
 * @file
 * `expload` — seeded replay load generator for experimentd.
 *
 * Spawns N client threads, each holding one connection to the
 * daemon, and replays a deterministic mix of warm figure requests
 * and cold simulation requests (cold requests carry globally-unique
 * SimConfig variants so every one forces a fresh simulation). Each
 * client runs closed loop, sending its next request once the last
 * one finished; the mix and the per-client request streams are
 * derived from --seed, so a run is exactly reproducible.
 *
 * Latencies are recorded client-side into the process metrics
 * registry (expload.latency_us, labelled by lane) and the summary
 * prints p50/p90/p99 per lane straight from those histograms.
 *
 * With --golden DIR, every served figure payload is byte-compared
 * against DIR/<figure>.txt; any mismatch fails the run. The last
 * stdout line is machine-parseable ("EXPLOAD ...") for the
 * service-smoke CI lane.
 *
 * Exit status: 0 when every request was served or cleanly rejected
 * and no golden mismatch occurred; 1 otherwise. Rejections are NOT
 * failures — overload shedding is the admission controller working
 * as designed, and flood scenarios expect them.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "support/metrics.hh"
#include "support/rng.hh"

using namespace rodinia;
namespace metrics = support::metrics;

namespace {

struct Options
{
    std::string socketPath;
    int clients = 2;
    int requests = 20;      //!< per client
    double warmRatio = 0.5; //!< P(figure request)
    uint64_t seed = 1;
    std::string figure = "fig1";
    std::string workload = "backprop";
    std::string scale = "tiny";
    double deadlineMs = 0.0;
    std::string goldenDir;
    bool printStats = false;
};

/** Per-thread tallies, summed after join. */
struct Tally
{
    uint64_t sent = 0;
    uint64_t served = 0;
    uint64_t rejected = 0;
    uint64_t errors = 0;
    uint64_t lost = 0;
    uint64_t goldenMismatch = 0;

    void
    merge(const Tally &o)
    {
        sent += o.sent;
        served += o.served;
        rejected += o.rejected;
        errors += o.errors;
        lost += o.lost;
        goldenMismatch += o.goldenMismatch;
    }
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [options]\n"
        "  --socket PATH    daemon socket to connect to\n"
        "  --clients N      concurrent client connections "
        "(default 2)\n"
        "  --requests M     requests per client (default 20)\n"
        "  --warm-ratio R   fraction of warm figure requests in\n"
        "                   [0, 1] (default 0.5); the rest are cold\n"
        "                   sims with unique config variants\n"
        "  --seed S         RNG seed; same seed => same traffic\n"
        "  --figure ID      figure for warm requests (default fig1)\n"
        "  --workload W     workload for cold sims (default "
        "backprop)\n"
        "  --scale S        tiny|small|full|paper for cold sims (default "
        "tiny)\n"
        "  --deadline MS    per-request soft deadline\n"
        "  --golden DIR     byte-compare figure payloads against\n"
        "                   DIR/<figure>.txt; mismatch fails the "
        "run\n"
        "  --print-stats    fetch and print the daemon /stats "
        "payload\n"
        "                   after the run\n",
        argv0);
}

/**
 * Percentile from a power-of-two-bucket histogram: the upper bound
 * of the bucket where the cumulative count crosses the rank, capped
 * at the true max. Conservative (never under-reports), which is the
 * right direction for asserting latency bounds.
 */
uint64_t
histPercentile(const metrics::HistogramData &h, double p)
{
    if (h.count == 0)
        return 0;
    uint64_t rank = uint64_t(p * double(h.count) + 0.5);
    if (rank < 1)
        rank = 1;
    if (rank > h.count)
        rank = h.count;
    uint64_t cum = 0;
    for (size_t i = 0; i < metrics::HistogramData::kBuckets; ++i) {
        cum += h.buckets[i];
        if (cum >= rank) {
            uint64_t hi =
                i == 0 ? 0 : (uint64_t(1) << i) - 1;
            return std::min(hi, h.max);
        }
    }
    return h.max;
}

/**
 * One client's deterministic request stream. Request r of client c
 * is warm iff the (c, r)-th draw of the client's private stream is
 * below warmRatio; cold requests perturb gmemLatencyCycles by a
 * globally-unique variant index so no two cold sims in a run (or
 * across clients) share a memo/store key.
 */
void
runClient(const Options &opt, int clientIdx, Tally &tally,
          const std::string &goldenText)
{
    service::ServiceClient conn;
    if (!conn.connect(opt.socketPath)) {
        tally.lost += uint64_t(opt.requests);
        return;
    }
    Rng rng(opt.seed * 1000003ULL + uint64_t(clientIdx));
    using clock = std::chrono::steady_clock;

    for (int r = 0; r < opt.requests; ++r) {
        bool warm = rng.uniform() < opt.warmRatio;
        std::string id = std::string("c")
                             .append(std::to_string(clientIdx))
                             .append("-r")
                             .append(std::to_string(r));
        auto t0 = clock::now();
        bool wrote;
        if (warm) {
            wrote = conn.sendFigure(id, opt.figure, opt.deadlineMs);
        } else {
            int variant = clientIdx * opt.requests + r;
            std::string cfg =
                "{\"gmemLatencyCycles\":" +
                std::to_string(400 + variant) + "}";
            wrote = conn.sendSim(id, opt.workload, opt.scale, cfg,
                                 opt.deadlineMs);
        }
        if (!wrote) {
            tally.lost += 1;
            return;
        }
        tally.sent += 1;
        service::Outcome out = conn.await(id);
        auto us = uint64_t(
            std::chrono::duration_cast<std::chrono::microseconds>(
                clock::now() - t0)
                .count());
        switch (out.status) {
        case service::Outcome::Status::Served:
            tally.served += 1;
            metrics::observeLabeled("expload.latency_us",
                                    out.lane.empty()
                                        ? (warm ? "warm" : "cold")
                                        : out.lane,
                                    us);
            if (warm && !goldenText.empty() &&
                out.payload != goldenText) {
                tally.goldenMismatch += 1;
                std::fprintf(stderr,
                             "expload: GOLDEN MISMATCH %s: got %zu "
                             "bytes, want %zu bytes\n",
                             id.c_str(), out.payload.size(),
                             goldenText.size());
            }
            break;
        case service::Outcome::Status::Rejected:
            tally.rejected += 1;
            metrics::countLabeled("expload.rejected", out.reason, 1);
            break;
        case service::Outcome::Status::Error:
            tally.errors += 1;
            std::fprintf(stderr, "expload: %s error [%s] %s\n",
                         id.c_str(), out.errorClass.c_str(),
                         out.detail.c_str());
            break;
        case service::Outcome::Status::Lost:
            tally.lost += 1;
            return; // connection is gone; stop this client
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg);
                return nullptr;
            }
            return argv[++i];
        };
        auto number = [&](double lo, double hi, double &out) {
            const char *v = value();
            if (!v)
                return false;
            char *end = nullptr;
            double d = std::strtod(v, &end);
            if (end == v || *end != '\0' || d < lo || d > hi) {
                std::fprintf(stderr, "%s: bad value '%s'\n", arg, v);
                return false;
            }
            out = d;
            return true;
        };
        double d = 0.0;
        if (!std::strcmp(arg, "--socket")) {
            const char *v = value();
            if (!v)
                return 2;
            opt.socketPath = v;
        } else if (!std::strcmp(arg, "--clients")) {
            if (!number(1, 256, d))
                return 2;
            opt.clients = int(d);
        } else if (!std::strcmp(arg, "--requests")) {
            if (!number(1, 1e6, d))
                return 2;
            opt.requests = int(d);
        } else if (!std::strcmp(arg, "--warm-ratio")) {
            if (!number(0.0, 1.0, d))
                return 2;
            opt.warmRatio = d;
        } else if (!std::strcmp(arg, "--seed")) {
            if (!number(0, 1e18, d))
                return 2;
            opt.seed = uint64_t(d);
        } else if (!std::strcmp(arg, "--figure")) {
            const char *v = value();
            if (!v)
                return 2;
            opt.figure = v;
        } else if (!std::strcmp(arg, "--workload")) {
            const char *v = value();
            if (!v)
                return 2;
            opt.workload = v;
        } else if (!std::strcmp(arg, "--scale")) {
            const char *v = value();
            if (!v)
                return 2;
            opt.scale = v;
        } else if (!std::strcmp(arg, "--deadline")) {
            if (!number(1, 86400000, d))
                return 2;
            opt.deadlineMs = d;
        } else if (!std::strcmp(arg, "--golden")) {
            const char *v = value();
            if (!v)
                return 2;
            opt.goldenDir = v;
        } else if (!std::strcmp(arg, "--print-stats")) {
            opt.printStats = true;
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
    if (opt.socketPath.empty()) {
        std::fprintf(stderr, "expload: --socket is required\n");
        usage(argv[0]);
        return 2;
    }

    std::string goldenText;
    if (!opt.goldenDir.empty()) {
        std::ifstream in(opt.goldenDir + "/" + opt.figure + ".txt",
                         std::ios::binary);
        if (!in) {
            std::fprintf(stderr,
                         "expload: cannot read golden file %s/%s.txt"
                         "\n",
                         opt.goldenDir.c_str(), opt.figure.c_str());
            return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        goldenText = ss.str();
    }

    std::vector<Tally> tallies(size_t(opt.clients));
    std::vector<std::thread> threads;
    auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < opt.clients; ++c)
        threads.emplace_back(runClient, std::cref(opt), c,
                             std::ref(tallies[size_t(c)]),
                             std::cref(goldenText));
    for (auto &t : threads)
        t.join();
    auto wallMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();

    Tally total;
    for (const auto &t : tallies)
        total.merge(t);

    // Per-lane latency percentiles straight from the metrics
    // histograms the client threads filled in.
    auto snap = metrics::Registry::global().snapshot();
    uint64_t p50[2] = {0, 0}, p90[2] = {0, 0}, p99[2] = {0, 0};
    uint64_t laneCount[2] = {0, 0};
    const char *laneNames[2] = {"warm", "cold"};
    if (const auto *m = snap.find("expload.latency_us")) {
        for (int l = 0; l < 2; ++l) {
            auto it = m->histograms.find(laneNames[l]);
            if (it == m->histograms.end())
                continue;
            const auto &h = it->second;
            laneCount[l] = h.count;
            p50[l] = histPercentile(h, 0.50);
            p90[l] = histPercentile(h, 0.90);
            p99[l] = histPercentile(h, 0.99);
        }
    }

    std::printf("expload: %d client(s) x %d request(s), seed %llu, "
                "%lld ms\n",
                opt.clients, opt.requests,
                (unsigned long long)opt.seed, (long long)wallMs);
    for (int l = 0; l < 2; ++l)
        std::printf("  %-4s  n=%-6llu p50<=%lluus p90<=%lluus "
                    "p99<=%lluus\n",
                    laneNames[l], (unsigned long long)laneCount[l],
                    (unsigned long long)p50[l],
                    (unsigned long long)p90[l],
                    (unsigned long long)p99[l]);

    if (opt.printStats) {
        service::ServiceClient conn;
        if (conn.connect(opt.socketPath) && conn.sendStats("stats")) {
            service::Outcome out = conn.await("stats");
            if (out.ok())
                std::printf("stats: %s\n", out.payload.c_str());
        }
    }

    bool ok = total.goldenMismatch == 0 && total.errors == 0 &&
              total.lost == 0 && total.served > 0;
    std::printf("EXPLOAD ok=%d sent=%llu served=%llu rejected=%llu "
                "errors=%llu lost=%llu golden_mismatch=%llu "
                "warm_p99_us=%llu cold_p99_us=%llu\n",
                ok ? 1 : 0, (unsigned long long)total.sent,
                (unsigned long long)total.served,
                (unsigned long long)total.rejected,
                (unsigned long long)total.errors,
                (unsigned long long)total.lost,
                (unsigned long long)total.goldenMismatch,
                (unsigned long long)p99[0],
                (unsigned long long)p99[1]);
    return ok ? 0 : 1;
}
