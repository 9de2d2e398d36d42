#include "driver/context.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "driver/executor.hh"
#include "driver/tracing.hh"
#include "support/cancel.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace rodinia {
namespace driver {

const std::vector<std::pair<std::string, std::string>> &
figureOrder()
{
    // Function-local static: guaranteed thread-safe one-time
    // initialization (C++11 magic statics), so pool threads may race
    // on the first call.
    static const std::vector<std::pair<std::string, std::string>> order =
        {
            {"backprop", "BP"},   {"bfs", "BFS"},
            {"cfd", "CFD"},       {"heartwall", "HW"},
            {"hotspot", "HS"},    {"kmeans", "KM"},
            {"leukocyte", "LC"},  {"lud", "LUD"},
            {"mummer", "MUM"},    {"nw", "NW"},
            {"srad", "SRAD"},     {"streamcluster", "SC"},
        };
    return order;
}

std::vector<std::string>
allCpuWorkloads()
{
    core::registerAllWorkloads();
    auto &reg = core::Registry::instance();
    auto rodinia = reg.names(core::Suite::Rodinia);
    auto parsec = reg.names(core::Suite::Parsec);
    std::vector<std::string> all = rodinia;
    for (const auto &p : parsec)
        if (std::find(all.begin(), all.end(), p) == all.end())
            all.push_back(p);
    return all;
}

int
gpuVersion(const std::string &name, int version)
{
    core::registerAllWorkloads();
    int shipped = core::Registry::instance().create(name)->gpuVersions();
    if (shipped < 1)
        fatal("workload '", name, "' has no GPU implementation");
    return version > 0 ? version : shipped;
}

gpusim::LaunchSequence
recordGpuLaunch(const std::string &name, core::Scale scale, int version)
{
    version = gpuVersion(name, version);
    return core::Registry::instance().create(name)->runGpu(scale, version);
}

namespace {

/** Memo key of one recording: "name/s<scale>/v<version>", with
 *  the version already resolved by gpuVersion. */
std::string
recordingKey(const std::string &name, core::Scale scale, int version)
{
    return name + "/s" + std::to_string(int(scale)) + "/v" +
           std::to_string(version);
}

/**
 * ChunkSink adapter that spills sealed trace chunks into the
 * ResultStore, keyed by the chunk's content hash — the store doubles
 * as the trace cache, so spilled chunks survive the process and
 * dedupe across identical traces. put/load ride the store's
 * concurrency-safe publish/load paths, so pool threads may spill
 * and refetch concurrently.
 */
class StoreChunkSink : public trace::ChunkSink
{
  public:
    explicit StoreChunkSink(ResultStore *store) : store(store) {}

    void
    put(uint64_t key, const std::string &blob) override
    {
        store->store(keyFor(key), blob);
    }

    bool
    get(uint64_t key, std::string &blob) override
    {
        auto payload = store->load(keyFor(key));
        if (!payload)
            return false;
        blob = std::move(*payload);
        return true;
    }

  private:
    static ResultStore::Key
    keyFor(uint64_t hash)
    {
        ResultStore::Key k;
        k.kind = "tracechunk";
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      (unsigned long long)hash);
        k.config = hex;
        return k;
    }

    ResultStore *store;
};

} // namespace

Context::Context(ResultStore *store, Executor *executor)
    : store(store), exec(executor)
{
    // Opt-in spill-to-store for streaming CPU traces: the env var's
    // value is the resident sealed-chunk budget per EventStream.
    // Installed here (not in trace/) so the sink can reuse the
    // figure result store; torn down in the destructor so tests that
    // build short-lived Contexts don't leak a dangling sink.
    const char *budget = std::getenv("RODINIA_TRACE_SPILL_CHUNKS");
    if (store && budget && *budget) {
        char *end = nullptr;
        unsigned long n = std::strtoul(budget, &end, 10);
        if (end != budget && *end == '\0' && n > 0) {
            prevSpillResident = trace::traceSpillResidentChunks();
            spillSink = std::make_unique<StoreChunkSink>(store);
            prevSpillSink =
                trace::setTraceSpill(spillSink.get(), uint32_t(n));
        }
    }
}

Context::~Context()
{
    if (spillSink)
        trace::setTraceSpill(prevSpillSink, prevSpillResident);
}

const core::CpuCharacterization &
Context::cpu(const std::string &name, core::Scale scale, int threads)
{
    std::string keyName = name + "/s" + std::to_string(int(scale)) +
                          "/t" + std::to_string(threads);
    return cpuMemo.get(keyName, [&] {
        auto t0 = std::chrono::steady_clock::now();
        core::registerAllWorkloads();
        auto key = cpuCharKey(name, scale, threads);
        core::CpuCharacterization value;
        bool fromStore = false;
        if (store) {
            if (auto payload = store->load(key)) {
                if (parseCpuChar(*payload, value))
                    fromStore = true;
                else
                    // Unusable entry: drop it so the recompute below
                    // republishes a good one instead of every future
                    // run re-hitting the corrupt bytes.
                    store->discard(key);
            }
        }
        if (!fromStore) {
            // Stall site + checkpoint sit after the store hit path:
            // a warm entry is always served, only real compute is
            // stallable/cancellable.
            support::FaultInjector::instance().maybeStall("cpu:" +
                                                          keyName);
            support::checkpointCancellation();
            auto w = core::Registry::instance().create(name);
            value = core::characterizeCpu(*w, scale, threads);
            if (store)
                store->store(key, serializeCpuChar(value));
            support::metrics::count("cachesim.chars_computed");
            support::metrics::countLabeled("cachesim.sweep.line_accesses",
                                           keyName,
                                           value.sweepLineAccesses);
            support::metrics::countLabeled(
                "cachesim.sweep.wall_us", keyName,
                uint64_t(value.sweepReplaySeconds * 1e6),
                support::metrics::Stability::Volatile);
        } else {
            support::metrics::count("cachesim.chars_served");
        }
        if (auto *tc = TraceCollector::active())
            tc->record("cachesim", "cpu-char",
                       TraceArgs()
                           .str("key", keyName)
                           .str("source",
                                fromStore ? "store" : "computed")
                           .json(),
                       t0, std::chrono::steady_clock::now());
        return value;
    });
}

std::vector<core::CpuCharacterization>
Context::allCpu(core::Scale scale, int threads)
{
    auto names = allCpuWorkloads();
    std::vector<core::CpuCharacterization> out(names.size());
    // Fan out across the pool; slot-per-name keeps output order
    // identical to the serial loop.
    parallelFor(names.size(), [&](size_t i) {
        out[i] = cpu(names[i], scale, threads);
    });
    return out;
}

namespace {

/** What a recording holds, for the record and hash spans. */
struct RecordingSize
{
    uint64_t launches = 0, blocks = 0, events = 0, encodedBytes = 0;

    explicit RecordingSize(const gpusim::LaunchSequence &seq)
        : launches(seq.launches.size())
    {
        for (const auto &launch : seq.launches) {
            blocks += launch.blocks.size();
            for (const auto &block : launch.blocks)
                for (const auto &lane : block.lanes) {
                    events += lane.size();
                    encodedBytes += lane.encodedBytes();
                }
        }
    }

    TraceArgs
    args(const std::string &key) const
    {
        TraceArgs a;
        a.str("key", key)
            .num("launches", launches)
            .num("blocks", blocks)
            .num("events", events)
            .num("encoded_bytes", encodedBytes);
        return a;
    }
};

uint64_t
microsSince(std::chrono::steady_clock::time_point t0,
            std::chrono::steady_clock::time_point t1)
{
    return uint64_t(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
}

} // namespace

const Context::Recording &
Context::recording(const std::string &name, core::Scale scale,
                   int version)
{
    std::string key = recordingKey(name, scale, version);
    return gpuMemo.get(key, [&] {
        namespace m = support::metrics;
        auto *tc = TraceCollector::active();
        auto t0 = std::chrono::steady_clock::now();
        uint64_t switches0 = gpusim::fiberSwitches();
        Recording rec;
        rec.seq = recordGpuLaunch(name, scale, version);
        uint64_t switches = gpusim::fiberSwitches() - switches0;
        auto t1 = std::chrono::steady_clock::now();
        RecordingSize size(rec.seq);
        m::count("gpusim.record.calls");
        m::countLabeled("gpusim.record.launches", key, size.launches);
        m::countLabeled("gpusim.record.blocks", key, size.blocks);
        m::countLabeled("gpusim.record.events", key, size.events);
        m::countLabeled("gpusim.record.encoded_bytes", key,
                        size.encodedBytes);
        m::countLabeled("gpusim.record.fiber_switches", key, switches);
        m::gaugeLabeled("gpusim.record.wall_us", key, microsSince(t0, t1));
        if (tc)
            tc->record("gpusim", "record",
                       size.args(key).num("fiber_switches", switches).json(),
                       t0, t1);

        // The digest walks every event, so it is taken once here,
        // in the recording's own job, not per config by its readers.
        rec.hash = gpusim::contentHash(rec.seq);
        auto t2 = std::chrono::steady_clock::now();
        m::count("gpusim.hash.calls");
        m::gaugeLabeled("gpusim.hash.wall_us", key, microsSince(t1, t2));
        if (tc)
            tc->record("gpusim", "hash", size.args(key).json(), t1, t2);
        return rec;
    });
}

const gpusim::LaunchSequence &
Context::gpu(const std::string &name, core::Scale scale, int version)
{
    return recording(name, scale, gpuVersion(name, version)).seq;
}

const gpusim::TraceStats &
Context::traceStats(const std::string &name, core::Scale scale,
                    int version)
{
    version = gpuVersion(name, version);
    std::string key = recordingKey(name, scale, version);
    return traceMemo.get(key, [&] {
        namespace m = support::metrics;
        const Recording &rec = recording(name, scale, version);
        auto t0 = std::chrono::steady_clock::now();
        gpusim::TraceStats stats = gpusim::analyzeTrace(rec.seq);
        auto t1 = std::chrono::steady_clock::now();
        m::count("gpusim.replay.calls");
        m::countLabeled("gpusim.replay.warp_insts", key,
                        stats.warpInstructions);
        m::gaugeLabeled("gpusim.replay.wall_us", key, microsSince(t0, t1));
        if (auto *tc = TraceCollector::active())
            tc->record("gpusim", "replay",
                       TraceArgs()
                           .str("key", key)
                           .num("warp_insts", stats.warpInstructions)
                           .json(),
                       t0, t1);
        return stats;
    });
}

bool
Context::gpuStatsWarm(const std::string &name, core::Scale scale,
                      int version, const gpusim::SimConfig &config)
{
    version = gpuVersion(name, version);
    std::string fp = config.fingerprint();
    std::string recKey = recordingKey(name, scale, version);
    if (statsMemo.done(recKey + "/" + fp))
        return true;
    const Recording *rec = gpuMemo.done(recKey);
    if (!rec || !store || !store->enabled())
        return false;
    auto key = gpuStatsKey(name, scale, fp, rec->hash);
    std::error_code ec;
    return std::filesystem::exists(store->pathFor(key), ec);
}

const gpusim::KernelStats &
Context::gpuStats(const std::string &name, core::Scale scale,
                  int version, const gpusim::SimConfig &config,
                  bool *joined)
{
    version = gpuVersion(name, version);
    std::string fp = config.fingerprint();
    std::string keyName = recordingKey(name, scale, version) + "/" + fp;
    auto compute = [&] {
        auto span0 = std::chrono::steady_clock::now();
        // The recording is needed even on a store hit: its content
        // hash is part of the key (a changed recording must not be
        // served stale stats).
        const Recording &rec = recording(name, scale, version);
        auto key = gpuStatsKey(name, scale, fp, rec.hash);
        gpusim::KernelStats s;
        bool fromStore = false;
        if (store) {
            if (auto payload = store->load(key)) {
                if (gpusim::parseKernelStats(*payload, s))
                    fromStore = true;
                else
                    store->discard(key);
            }
        }
        if (!fromStore) {
            support::FaultInjector::instance().maybeStall("sim:" +
                                                          keyName);
            support::checkpointCancellation();
            auto t0 = std::chrono::steady_clock::now();
            gpusim::TimingSim sim(config);
            s = sim.simulate(rec.seq);
            std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            if (store)
                store->store(key, gpusim::serializeKernelStats(s));
            uint64_t simUs = uint64_t(dt.count() * 1e6);
            support::metrics::count("gpusim.sims_run");
            support::metrics::count("gpusim.cycles", s.cycles);
            support::metrics::countLabeled("gpusim.sim.cycles", keyName,
                                           s.cycles);
            support::metrics::countLabeled(
                "gpusim.sim.wall_us", keyName, simUs,
                support::metrics::Stability::Volatile);
            support::metrics::observe("gpusim.sim_wall_us", simUs);
        } else {
            support::metrics::count("gpusim.store_served");
        }
        if (auto *tc = TraceCollector::active()) {
            // Per-sim cycles, cache hit rates, and the stall
            // breakdown (channel occupancy, bank-conflict
            // serialization) straight from the timing model's
            // KernelStats — identical whether simulated or
            // store-served, so trace args stay deterministic.
            tc->record("gpusim", "sim",
                       TraceArgs()
                           .str("key", keyName)
                           .str("source",
                                fromStore ? "store" : "simulated")
                           .num("cycles", s.cycles)
                           .num("warp_insns", s.warpInstructions)
                           .num("channel_busy_cycles",
                                s.channelBusyCycles)
                           .num("bank_conflict_extra_cycles",
                                s.bankConflictExtraCycles)
                           .num("l1_hits", s.l1Hits)
                           .num("l1_misses", s.l1Misses)
                           .num("l2_hits", s.l2Hits)
                           .num("l2_misses", s.l2Misses)
                           .json(),
                       span0, std::chrono::steady_clock::now());
        }
        return s;
    };
    return statsMemo.get(keyName, compute, joined);
}

void
Context::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (exec) {
        exec->parallelFor(n, fn);
        return;
    }
    for (size_t i = 0; i < n; ++i)
        fn(i);
}

} // namespace driver
} // namespace rodinia
