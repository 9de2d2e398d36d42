/**
 * @file
 * rbench: the repository benchmark's in-process driver.
 *
 * run.py (next to this file) owns the workloads, the repetition, the
 * output checks and the statistics. rbench does the parts that must
 * run inside one process: the per-layer pass and the closed-loop
 * service clients. Every mode prints one JSON object as its last
 * stdout line.
 *
 * Per-layer numbers come from spans the benchmark records itself
 * around each call into a layer's public entry point, through the
 * public driver::TraceCollector, with the layer's work counted at the
 * same boundary. Nothing inside src/ is instrumented for it.
 *
 *   rbench layers --cpu 0|1 --sims 0|1 --trace FILE
 *   rbench service --socket PATH --seed N [--trace FILE]
 */

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cachesim/cache.hh"
#include "cachesim/sweep.hh"
#include "core/workload.hh"
#include "driver/context.hh"
#include "driver/figures.hh"
#include "driver/tracing.hh"
#include "gpusim/recorder.hh"
#include "gpusim/replay.hh"
#include "gpusim/timing.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "support/alloc_align.hh"
#include "support/metrics.hh"
#include "trace/trace.hh"

using namespace rodinia;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One JSON object, built member by member. */
class JsonOut
{
  public:
    JsonOut &
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(key, buf);
    }

    JsonOut &
    count(const std::string &key, uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonOut &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + support::metrics::jsonEscape(v) + "\"");
    }

    template <typename T>
    JsonOut &
    list(const std::string &key, const std::vector<T> &vs)
    {
        std::string s = "[";
        for (size_t i = 0; i < vs.size(); ++i) {
            std::ostringstream os;
            os.precision(17);
            os << vs[i];
            s += (i ? "," : "") + os.str();
        }
        return raw(key, s + "]");
    }

    JsonOut &
    raw(const std::string &key, const std::string &json)
    {
        body += (body.empty() ? "\"" : ",\"") +
                support::metrics::jsonEscape(key) + "\":" + json;
        return *this;
    }

    std::string text() const { return "{" + body + "}"; }

  private:
    std::string body;
};

/**
 * Per-layer accounting of a traced pass. Each call into a layer runs
 * inside span() — a TraceCollector span whose category is the layer
 * name — and the layer's busy seconds and call count accumulate at
 * the same boundary, next to the work counts added with count().
 * While alive, the collector is also the process collector, so the
 * program's own spans land in the same trace file.
 */
class Layers
{
  public:
    explicit Layers(std::string traceFile) : file(std::move(traceFile))
    {
        if (!file.empty())
            driver::TraceCollector::install(&tc);
    }

    ~Layers()
    {
        if (!file.empty())
            driver::TraceCollector::install(nullptr);
    }

    Layers(const Layers &) = delete;
    Layers &operator=(const Layers &) = delete;

    template <typename Fn>
    auto
    span(const std::string &layer, const std::string &item, Fn &&fn)
    {
        auto t0 = Clock::now();
        auto out = fn();
        auto t1 = Clock::now();
        Busy &b = busy[layer];
        b.seconds += secondsBetween(t0, t1);
        b.calls += 1;
        record(layer, item, t0, t1);
        return out;
    }

    /** Span only, no accounting; safe from any thread. */
    void
    record(const std::string &layer, const std::string &item,
           Clock::time_point t0, Clock::time_point t1)
    {
        if (!file.empty())
            tc.record(layer, item, "{}", t0, t1);
    }

    void count(const std::string &name, uint64_t v) { counts[name] += v; }

    /** Write the trace file; false on an IO failure. */
    bool flush() const { return file.empty() || tc.writeFile(file); }

    /** {"layers":{L:{"s":..,"calls":..}},"counts":{..}} members. */
    void
    render(JsonOut &out) const
    {
        JsonOut layers;
        for (const auto &[name, b] : busy)
            layers.raw(name, JsonOut()
                                 .num("s", b.seconds)
                                 .count("calls", b.calls)
                                 .text());
        JsonOut cs;
        for (const auto &[name, v] : counts)
            cs.count(name, v);
        out.raw("layers", layers.text()).raw("counts", cs.text());
    }

  private:
    struct Busy
    {
        double seconds = 0.0;
        uint64_t calls = 0;
    };

    std::string file;
    driver::TraceCollector tc;
    std::map<std::string, Busy> busy;
    std::map<std::string, uint64_t> counts;
};

/** Work counts of one recording, added under the record layer. */
void
countRecording(Layers &layers, const gpusim::LaunchSequence &seq)
{
    uint64_t blocks = 0;
    for (const auto &launch : seq.launches)
        blocks += launch.blocks.size();
    layers.count("gpusim.record.launches", seq.launches.size());
    layers.count("gpusim.record.blocks", blocks);
    layers.count("gpusim.record.thread_insts", seq.threadInstructions());
}

int
lanesN()
{
    int hw = int(std::thread::hardware_concurrency());
    return hw > 1 ? hw : 2;
}

// ---------------------------------------------------------------
// layers: the calls `experiments --figure all` makes, in-process.
// ---------------------------------------------------------------

std::string
depKey(const driver::GpuDep &d)
{
    return d.workload + "/s" + std::to_string(int(d.scale)) + "/v" +
           std::to_string(d.version);
}

/**
 * The recordings, hashes and trace analyses of every figure, plus —
 * when the CLI run being repeated computed them — the CPU
 * characterizations (@p cpu) and timing simulations (@p sims).
 */
int
runLayers(bool cpu, bool sims, const std::string &traceFile)
{
    core::registerAllWorkloads();
    Layers layers(traceFile);
    const core::Scale full = driver::primaryScale();

    // Every recording a figure replays, once each, as the CLI's gpu:
    // jobs make them.
    std::map<std::string, gpusim::LaunchSequence> recs;
    for (const auto &def : driver::allFigures()) {
        for (const auto &dep : def.gpuDeps) {
            std::string key = depKey(dep);
            if (recs.count(key))
                continue;
            auto seq = layers.span("gpusim.record", key, [&] {
                return driver::recordGpuLaunch(dep.workload, dep.scale,
                                               dep.version);
            });
            layers.span("gpusim.hash", key,
                        [&] { return gpusim::contentHash(seq); });
            countRecording(layers, seq);
            recs.emplace(key, std::move(seq));
        }
    }

    // The trace analyses of Figs. 2 and 3 (every shipped Full
    // recording, once per figure) and of Table III.
    std::vector<std::string> replays;
    for (int fig = 0; fig < 2; ++fig)
        for (const auto &[name, label] : driver::figureOrder())
            replays.push_back(depKey({name, full, 0}));
    for (const char *name : {"srad", "leukocyte", "nw", "lud"})
        for (int v : {1, 2})
            replays.push_back(depKey({name, full, v}));
    for (const auto &key : replays) {
        auto ts = layers.span("gpusim.replay", key, [&] {
            return gpusim::analyzeTrace(recs.at(key));
        });
        layers.count("gpusim.replay.warp_insts", ts.warpInstructions);
    }

    uint64_t mismatches = 0;
    if (sims) {
        // The SimConfig presets on the shipped Full recordings, at
        // one lane and at nproc lanes; both must agree.
        const gpusim::SimConfig presets[] = {
            gpusim::SimConfig::gpgpusimDefault(),
            gpusim::SimConfig::shaders(8),
            gpusim::SimConfig::gtx280(),
            gpusim::SimConfig::gtx480(false),
            gpusim::SimConfig::gtx480(true),
        };
        for (const auto &[name, label] : driver::figureOrder()) {
            const auto &seq = recs.at(depKey({name, full, 0}));
            for (size_t p = 0; p < std::size(presets); ++p) {
                const gpusim::SimConfig &preset = presets[p];
                gpusim::KernelStats ref;
                for (int lanes : {1, lanesN()}) {
                    gpusim::SimConfig c = preset;
                    c.simThreads = lanes;
                    auto st = layers.span(
                        lanes == 1 ? "gpusim.timing.lanes1"
                                   : "gpusim.timing.lanesN",
                        name, [&] {
                            return gpusim::TimingSim(c).simulate(seq);
                        });
                    if (lanes == 1) {
                        ref = st;
                    } else if (!(st == ref)) {
                        ++mismatches;
                        std::fprintf(stderr,
                                     "rbench: %s preset %zu: %llu cycles "
                                     "at 1 lane, %llu at %d lanes\n",
                                     name.c_str(), p,
                                     (unsigned long long)ref.cycles,
                                     (unsigned long long)st.cycles, lanes);
                    }
                }
            }
        }
    }

    if (cpu) {
        // Every CPU characterization: the instrumented run (plus the
        // address canonicalization it needs), then the cache sweep.
        cachesim::SweepConfig sweep;
        sweep.sizesBytes = cachesim::paperCacheSizes();
        for (const auto &name : driver::allCpuWorkloads()) {
            auto w = core::Registry::instance().create(name);
            trace::TraceSession session(8, true);
            layers.span("workloads.cpu", name, [&] {
                {
                    support::DeterministicAllocScope align;
                    w->runCpu(session, full);
                }
                session.normalizeAddresses();
                return 0;
            });
            layers.count("workloads.cpu.mem_events",
                         session.totalEvents());
            auto swept = layers.span("cachesim.sweep", name, [&] {
                return cachesim::runSweep(session, sweep);
            });
            layers.count("cachesim.sweep.line_accesses",
                         swept.lineAccesses);
        }
    }

    JsonOut out;
    layers.render(out);
    out.count("mismatches", mismatches);
    if (!layers.flush())
        std::fprintf(stderr, "rbench: cannot write %s\n",
                     traceFile.c_str());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ---------------------------------------------------------------
// service: pre-warm, then closed-loop sim clients.
// ---------------------------------------------------------------

/** One sim request the mix can send. */
struct SimPoint
{
    std::string workload;
    std::string scale; //!< protocol scale name
    std::string config; //!< config object JSON text

    std::string key() const { return workload + "|" + scale + "|" + config; }
};

/** Warm Small-scale configs, all pre-warmed. */
const char *const kWarmConfigs[] = {"{}", "{\"numSms\":8}"};

/** Requests per client per round. */
constexpr size_t kPerClient = 500;

/** Length of the timed session: about 70k requests with 2 clients on
 *  a 4-vCPU host. */
constexpr double kSessionSeconds = 10.0;

/** Closed-loop clients: half the hardware threads, the rest left to
 *  the daemon. */
size_t
clientCount()
{
    return std::max<size_t>(1, std::thread::hardware_concurrency() / 2);
}

/** Outcome of one request, as run.py counts it. */
enum RequestStatus : int { kServed = 0, kNotServed = 1, kMismatch = 2 };

struct ClientLog
{
    std::vector<uint64_t> latNs;
    std::vector<int> cold;
    std::vector<int> status;
    std::vector<std::string> keys;
    uint64_t coalesced = 0;
    std::map<std::string, std::string> firstPayload;
};

std::string
fetchStats(service::ServiceClient &c, const std::string &id)
{
    if (!c.sendStats(id))
        return "{}";
    auto out = c.await(id);
    return out.ok() ? out.payload : "{}";
}

/** The in-process payload for one point, or "" if it cannot be
 *  decoded. */
std::string
expectedPayload(driver::Context &ctx, const SimPoint &p)
{
    service::Json json;
    std::string err;
    gpusim::SimConfig cfg;
    core::Scale scale;
    if (!service::Json::parse(p.config, json, err) ||
        !service::decodeSimConfig(json, cfg, err) ||
        !service::parseScale(p.scale, scale))
        return "";
    return gpusim::serializeKernelStats(ctx.gpuStats(p.workload, scale, 0,
                                                     cfg));
}

struct ServiceArgs
{
    std::string socket;
    uint64_t seed = 1;
    std::string traceFile;
};

int
runService(const ServiceArgs &a)
{
    core::registerAllWorkloads();
    Layers layers(a.traceFile);
    std::vector<std::string> names;
    for (const auto &[name, label] : driver::figureOrder())
        names.push_back(name);

    // Set-up: one Small point per (workload, warm config), plus the
    // Tiny recording of every workload, so the timed cold requests
    // pay only their simulation.
    std::vector<SimPoint> warm;
    std::vector<SimPoint> prewarm;
    for (const auto &n : names) {
        for (const char *c : kWarmConfigs)
            warm.push_back({n, "small", c});
        prewarm.push_back({n, "tiny", "{}"});
    }
    prewarm.insert(prewarm.end(), warm.begin(), warm.end());

    service::ServiceClient admin;
    if (!admin.connect(a.socket, 30000)) {
        std::fprintf(stderr, "rbench: cannot connect to %s\n",
                     a.socket.c_str());
        return 1;
    }
    // Pipelined, within the daemon's per-client in-flight quota.
    constexpr size_t kWindow = 8;
    uint64_t prewarmFailed = 0;
    for (size_t i = 0; i < prewarm.size() + kWindow; ++i) {
        if (i >= kWindow)
            prewarmFailed +=
                admin.await("w" + std::to_string(i - kWindow)).ok() ? 0 : 1;
        if (i < prewarm.size())
            admin.sendSim("w" + std::to_string(i), prewarm[i].workload,
                          prewarm[i].scale, prewarm[i].config);
    }
    std::string statsBefore = fetchStats(admin, "stats-before");

    std::vector<service::ServiceClient> conns(clientCount());
    for (auto &c : conns)
        if (!c.connect(a.socket, 30000)) {
            std::fprintf(stderr, "rbench: client cannot connect\n");
            return 1;
        }
    std::vector<ClientLog> logs(conns.size());

    // Rounds: every client sends kPerClient requests, mostly warm
    // picks; at seeded positions shared by all clients, the clients
    // meet and each sends the same fresh Tiny point (one per workload
    // per round), so identical cold sims meet in the daemon.
    // launchOverheadCycles makes each cold point a distinct key at
    // the cost of the default Tiny simulation; round * 16 + k stays
    // below 4096, so every value stays under the protocol's 2^20 clamp.
    std::mt19937_64 rng(a.seed);
    const uint64_t coldBase = 1000 + (a.seed % 200) * 4096;
    constexpr size_t kMaxRounds = 4096 / 16;
    std::vector<double> roundWalls;
    std::set<std::string> coldKeys;
    size_t total = 0;
    auto start = Clock::now();
    while (roundWalls.size() < kMaxRounds &&
           (secondsBetween(start, Clock::now()) < kSessionSeconds ||
            total < 1000)) {
        std::vector<int> coldAt(kPerClient, -1);
        std::vector<SimPoint> coldPoints;
        for (size_t k = 0; k < names.size(); ++k) {
            uint64_t overhead = coldBase + roundWalls.size() * 16 + k;
            coldPoints.push_back(
                {names[k], "tiny",
                 "{\"launchOverheadCycles\":" + std::to_string(overhead) +
                     "}"});
            coldKeys.insert(coldPoints.back().key());
            size_t pos;
            do {
                pos = size_t(rng() % kPerClient);
            } while (coldAt[pos] >= 0);
            coldAt[pos] = int(k);
        }
        std::vector<std::vector<size_t>> picks(conns.size());
        for (auto &p : picks)
            for (size_t i = 0; i < kPerClient; ++i)
                p.push_back(size_t(rng() % warm.size()));

        std::barrier meet(std::ptrdiff_t(conns.size()));
        auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (size_t c = 0; c < conns.size(); ++c) {
            threads.emplace_back([&, c] {
                service::ServiceClient &cl = conns[c];
                ClientLog &log = logs[c];
                for (size_t i = 0; i < kPerClient; ++i) {
                    bool isCold = coldAt[i] >= 0;
                    const SimPoint &p = isCold ? coldPoints[coldAt[i]]
                                               : warm[picks[c][i]];
                    std::string id = std::to_string(log.latNs.size());
                    if (isCold)
                        meet.arrive_and_wait();
                    auto r0 = Clock::now();
                    bool sent = cl.sendSim(id, p.workload, p.scale,
                                           p.config);
                    service::Outcome o;
                    if (sent)
                        o = cl.await(id);
                    auto r1 = Clock::now();
                    layers.record("service", isCold ? "sim cold" : "sim warm",
                                  r0, r1);
                    int status = o.ok() ? kServed : kNotServed;
                    if (o.ok()) {
                        auto [it, fresh] =
                            log.firstPayload.emplace(p.key(), o.payload);
                        if (!fresh && it->second != o.payload)
                            status = kMismatch;
                        log.coalesced += o.coalesced ? 1 : 0;
                    }
                    log.latNs.push_back(uint64_t(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(r1 - r0)
                            .count()));
                    log.cold.push_back(isCold ? 1 : 0);
                    log.status.push_back(status);
                    log.keys.push_back(p.key());
                }
            });
        }
        for (auto &t : threads)
            t.join();
        roundWalls.push_back(secondsBetween(t0, Clock::now()));
        total += conns.size() * kPerClient;
    }

    std::string statsAfter = fetchStats(admin, "stats-after");
    std::vector<double> pingUs;
    for (int i = 0; i < 200; ++i) {
        auto p0 = Clock::now();
        if (!admin.sendPing())
            break;
        service::Event ev;
        do
            ev = admin.readEvent();
        while (ev.type != service::Event::Type::Pong &&
               ev.type != service::Event::Type::ConnectionLost);
        auto p1 = Clock::now();
        layers.record("service", "ping", p0, p1);
        pingUs.push_back(secondsBetween(p0, p1) * 1e6);
    }

    // Every payload must equal the in-process serialization for the
    // same point; a differing key fails every request that got it.
    std::map<std::string, std::string> payloadOf;
    std::map<std::string, SimPoint> pointOf;
    for (const auto &p : warm)
        pointOf[p.key()] = p;
    for (const auto &log : logs)
        for (const auto &[k, payload] : log.firstPayload)
            if (!payloadOf.count(k))
                payloadOf[k] = payload;
            else if (payloadOf[k] != payload)
                payloadOf[k] = "";
    std::set<std::string> badKeys;
    {
        driver::Context ref(nullptr, nullptr);
        for (const auto &[k, payload] : payloadOf) {
            SimPoint p;
            p.workload = k.substr(0, k.find('|'));
            size_t s = k.find('|') + 1;
            p.scale = k.substr(s, k.find('|', s) - s);
            p.config = k.substr(k.find('|', s) + 1);
            std::string want = expectedPayload(ref, p);
            if (want.empty() || want != payload)
                badKeys.insert(k);
        }
    }

    std::vector<uint64_t> lat;
    std::vector<int> cold, status;
    uint64_t coalesced = 0;
    for (const auto &log : logs) {
        for (size_t i = 0; i < log.latNs.size(); ++i) {
            lat.push_back(log.latNs[i]);
            cold.push_back(log.cold[i]);
            int st = log.status[i];
            if (st == kServed && badKeys.count(log.keys[i]))
                st = kMismatch;
            status.push_back(st);
        }
        coalesced += log.coalesced;
    }

    JsonOut out;
    out.count("prewarm_requests", prewarm.size())
        .count("prewarm_failed", prewarmFailed)
        .list("round_walls_s", roundWalls)
        .count("per_round", conns.size() * kPerClient)
        .count("distinct_cold", coldKeys.size())
        .count("coalesced", coalesced)
        .list("lat_ns", lat)
        .list("cold", cold)
        .list("status", status)
        .list("ping_us", pingUs)
        .str("stats_before", statsBefore)
        .str("stats_after", statsAfter);
    if (!layers.flush())
        std::fprintf(stderr, "rbench: cannot write %s\n",
                     a.traceFile.c_str());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: rbench layers --cpu 0|1 --sims 0|1 --trace FILE\n"
                 "       rbench service --socket PATH --seed N "
                 "[--trace FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string mode = argv[1];
    std::map<std::string, std::string> opt;
    for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return usage();
        opt[argv[i] + 2] = argv[i + 1];
    }
    if ((argc - 2) % 2 != 0)
        return usage();
    auto get = [&](const char *k, const char *dflt) {
        auto it = opt.find(k);
        return it == opt.end() ? std::string(dflt) : it->second;
    };

    if (mode == "layers")
        return runLayers(get("cpu", "0") == "1", get("sims", "0") == "1",
                         get("trace", ""));
    if (mode == "service") {
        ServiceArgs a;
        a.socket = get("socket", "");
        a.seed = std::strtoull(get("seed", "1").c_str(), nullptr, 10);
        a.traceFile = get("trace", "");
        if (a.socket.empty())
            return usage();
        return runService(a);
    }
    return usage();
}
