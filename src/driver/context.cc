#include "driver/context.hh"

#include <elf.h>
#include <link.h>
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>

#include "driver/executor.hh"
#include "driver/tracing.hh"
#include "support/cancel.hh"
#include "support/faultinject.hh"
#include "support/hash.hh"
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

std::string
recordingKey(const std::string &name, core::Scale scale, int version)
{
    return name + "/s" + std::to_string(int(scale)) + "/v" +
           std::to_string(version);
}

gpusim::LaunchSequence
recordGpuLaunch(const std::string &name, core::Scale scale, int version)
{
    version = gpuVersion(name, version);
    return core::Registry::instance().create(name)->runGpu(scale, version);
}

namespace {

/** What dl_iterate_phdr has digested of the loaded objects so far. */
struct BuildIdWalk
{
    support::Fnv1a digest;
    size_t objects = 0;
    bool executableHasNote = false;
};

/** Digest one loaded object's NT_GNU_BUILD_ID notes into the walk. */
int
digestBuildIds(struct dl_phdr_info *info, size_t, void *data)
{
    auto *walk = static_cast<BuildIdWalk *>(data);
    // dl_iterate_phdr visits the executable first.
    bool executable = walk->objects++ == 0;
    for (ElfW(Half) i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) &ph = info->dlpi_phdr[i];
        if (ph.p_type != PT_NOTE)
            continue;
        // Each note's name and descriptor are padded to the
        // segment's alignment: 4, or 8 for 8-aligned note segments.
        size_t align = ph.p_align == 8 ? 8 : 4;
        auto padded = [align](size_t n) {
            return (n + align - 1) & ~(align - 1);
        };
        const char *base =
            reinterpret_cast<const char *>(info->dlpi_addr + ph.p_vaddr);
        size_t size = ph.p_memsz;
        size_t at = 0;
        while (at + sizeof(ElfW(Nhdr)) <= size) {
            ElfW(Nhdr) note;
            std::memcpy(&note, base + at, sizeof(note));
            size_t nameAt = at + sizeof(note);
            size_t descAt = nameAt + padded(note.n_namesz);
            if (descAt > size || size - descAt < note.n_descsz)
                break;
            if (note.n_type == NT_GNU_BUILD_ID && note.n_namesz == 4 &&
                std::memcmp(base + nameAt, "GNU", 4) == 0) {
                walk->digest.field(
                    std::string_view(base + descAt, note.n_descsz));
                walk->executableHasNote |= executable;
            }
            at = descAt + padded(note.n_descsz);
        }
    }
    return 0;
}

/** Memo key of one CPU characterization. */
std::string
cpuKey(const std::string &name, core::Scale scale, int threads)
{
    return name + "/s" + std::to_string(int(scale)) + "/t" +
           std::to_string(threads);
}

/**
 * Load and parse a stored payload into @p out. An unparseable entry
 * is discarded, so its hit counts as a miss and the caller's
 * recompute republishes a good one instead of every future run
 * re-hitting the corrupt bytes.
 */
template <typename T>
bool
loadParsed(const ResultStore &store, const ResultStore::Key &key,
           bool (*parse)(const std::string &, T &), T &out)
{
    auto payload = store.load(key);
    if (!payload)
        return false;
    if (parse(*payload, out))
        return true;
    store.discard(key);
    return false;
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

} // namespace

uint64_t
buildIdentity()
{
    static const uint64_t identity = [] {
        BuildIdWalk walk;
        dl_iterate_phdr(digestBuildIds, &walk);
        return walk.executableHasNote ? walk.digest.digest() : 0;
    }();
    return identity;
}

const core::CpuCharacterization &
Context::cpu(const std::string &name, core::Scale scale, int threads)
{
    std::string keyName = cpuKey(name, scale, threads);
    return cpuMemo.get(keyName, [&] {
        auto t0 = std::chrono::steady_clock::now();
        core::registerAllWorkloads();
        auto key = cpuCharKey(name, scale, threads);
        core::CpuCharacterization value;
        bool fromStore =
            store && loadParsed(*store, key, parseCpuChar, value);
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

bool
Context::cpuMemoized(const std::string &name, core::Scale scale,
                     int threads) const
{
    return cpuMemo.done(cpuKey(name, scale, threads)) != nullptr;
}

namespace {

/** What a recording holds, for the record and hash spans. */
struct RecordingSize
{
    uint64_t launches = 0, blocks = 0, events = 0, encodedBytes = 0,
             allocatedBytes = 0;

    explicit RecordingSize(const gpusim::LaunchSequence &seq)
        : launches(seq.launches.size()), encodedBytes(seq.encodedBytes()),
          allocatedBytes(seq.allocatedBytes())
    {
        for (const auto &launch : seq.launches) {
            blocks += launch.blocks.size();
            for (const auto &block : launch.blocks)
                for (int l = 0; l < block.blockDim; ++l)
                    events += block.laneEvents(l);
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

/** The warp size trace analyses (Figs. 2-3, Table III) replay at. */
constexpr int kAnalysisWarpSize = 32;

/** Objects of one kind alive in this process and their heap bytes;
 *  each high-water mark is a Volatile gauge. */
struct LiveSet
{
    const char *countGauge;
    const char *bytesGauge;
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> bytes{0};
};

LiveSet liveRecordings{"gpusim.record.resident_max",
                       "gpusim.record.resident_bytes_max"};
LiveSet liveTraces{"gpusim.replay.resident_max",
                   "gpusim.replay.resident_bytes_max"};

/** Counts one object into a LiveSet while it lives (move-only). */
class Resident
{
  public:
    Resident() = default;
    Resident(LiveSet &live, uint64_t n) : set(&live), bytes(n)
    {
        support::metrics::gauge(live.countGauge,
                                live.count.fetch_add(1) + 1);
        support::metrics::gauge(live.bytesGauge, live.bytes.fetch_add(n) + n);
    }
    Resident(Resident &&o) noexcept
        : set(std::exchange(o.set, nullptr)), bytes(o.bytes)
    {
    }
    Resident &
    operator=(Resident &&o) noexcept
    {
        std::swap(set, o.set);
        std::swap(bytes, o.bytes);
        return *this;
    }
    ~Resident()
    {
        if (set) {
            set->count.fetch_sub(1);
            set->bytes.fetch_sub(bytes);
        }
    }

  private:
    LiveSet *set = nullptr;
    uint64_t bytes = 0;
};

} // namespace

class Context::Pass
{
  public:
    /** @p version must already be resolved (gpuVersion). */
    Pass(Context &ctx, const std::string &name, core::Scale scale,
         int version)
        : name(name), scale(scale), version(version),
          key(recordingKey(name, scale, version)), ctx(ctx)
    {
    }

    ~Pass()
    {
        // Drop this pass's slot unless a newer pass already took it.
        std::lock_guard<std::mutex> lock(ctx.passMu);
        auto it = ctx.passes.find(key);
        if (it != ctx.passes.end() && it->second.expired())
            ctx.passes.erase(it);
    }

    Pass(const Pass &) = delete;
    Pass &operator=(const Pass &) = delete;

    const std::string name;
    const core::Scale scale;
    const int version;
    const std::string key; //!< recordingKey() of the kernel

    /**
     * Record the kernel and return its content hash. The lanes stay
     * in the pass until a trace build takes them (replayed()) or the
     * pass ends, so a call whose results are all stored builds
     * nothing. Runs only as the hash memo's compute: once per kernel
     * at a time.
     */
    uint64_t recordedHash();

    /**
     * The kernel's warp traces at @p warp_size, made on the first call
     * for that warp size: replayed once from the lanes recordedHash()
     * left, or from a fresh recording when no lanes are held; the
     * trace analysis is tallied in the same walk and the lanes are
     * freed before the call returns. @p hash is set to the content
     * hash of the recording the traces come from. Callers that arrive
     * while they are being made wait under their own cancel token.
     */
    const gpusim::SequenceTrace &replayed(int warp_size, uint64_t &hash);

  private:
    struct Recorded
    {
        gpusim::LaunchSequence seq;
        uint64_t hash = 0;
        Resident resident; //!< counts the lanes while they live
    };

    struct Replayed
    {
        gpusim::SequenceTrace trace;
        uint64_t hash = 0;
        Resident resident; //!< counts the trace while it lives
    };

    Recorded record();
    Replayed replay(int warp_size);

    Context &ctx;
    std::mutex lanesMu;
    /** Lanes recordedHash() made that no build has taken yet. */
    std::optional<Recorded> lanes;
    /** Keyed by warp size. */
    FlightMemo<Replayed> made{"replay"};
};

// Recording, hashing and the trace build are shared by every call
// joined to them, so they run under no cancel token: a cancelled
// caller must not fail the others. It stops at its own checkpoint
// before its sim instead.

uint64_t
Context::Pass::recordedHash()
{
    support::CancelScope shared(nullptr);
    Recorded r = record();
    uint64_t hash = r.hash;
    std::lock_guard<std::mutex> lock(lanesMu);
    lanes = std::move(r);
    return hash;
}

const gpusim::SequenceTrace &
Context::Pass::replayed(int warp_size, uint64_t &hash)
{
    const Replayed &r = made.get(std::to_string(warp_size),
                                 [&] { return replay(warp_size); });
    hash = r.hash;
    return r.trace;
}

Context::Pass::Recorded
Context::Pass::record()
{
    namespace m = support::metrics;
    auto *tc = TraceCollector::active();
    auto t0 = std::chrono::steady_clock::now();
    uint64_t switches0 = gpusim::fiberSwitches();
    Recorded r;
    r.seq = recordGpuLaunch(name, scale, version);
    uint64_t switches = gpusim::fiberSwitches() - switches0;
    auto t1 = std::chrono::steady_clock::now();
    RecordingSize size(r.seq);
    r.resident = Resident(liveRecordings, size.allocatedBytes);
    m::count("gpusim.record.calls");
    m::countLabeled("gpusim.record.launches", key, size.launches);
    m::countLabeled("gpusim.record.blocks", key, size.blocks);
    m::countLabeled("gpusim.record.events", key, size.events);
    m::countLabeled("gpusim.record.encoded_bytes", key, size.encodedBytes);
    // Sealed blocks are sized exactly, so this is a pure function of
    // the recording, as stable as the encoded bytes.
    m::countLabeled("gpusim.record.allocated_bytes", key,
                    size.allocatedBytes);
    m::countLabeled("gpusim.record.fiber_switches", key, switches);
    m::gaugeLabeled("gpusim.record.wall_us", key, microsSince(t0, t1));
    if (tc)
        tc->record("gpusim", "record",
                   size.args(key)
                       .num("allocated_bytes", size.allocatedBytes)
                       .num("fiber_switches", switches)
                       .json(),
                   t0, t1);

    // The digest walks every lane event, so it is taken once here,
    // over the lanes, not per config by the trace's readers.
    r.hash = gpusim::contentHash(r.seq);
    auto t2 = std::chrono::steady_clock::now();
    m::count("gpusim.hash.calls");
    m::gaugeLabeled("gpusim.hash.wall_us", key, microsSince(t1, t2));
    if (tc)
        tc->record("gpusim", "hash", size.args(key).json(), t1, t2);

    // The recording wins over a memoized hash (read from the index)
    // that names another one: repair the slot and the index entry.
    if (const HashSlot *slot = ctx.hashMemo.done(key)) {
        uint64_t indexed = (*slot)->load();
        if (indexed != r.hash) {
            m::count("gpusim.hash.index_mismatches");
            warn("recording index: ", key, " records as ", hex(r.hash),
                 ", not the indexed ", hex(indexed),
                 "; republishing the entry");
            (*slot)->store(r.hash);
            if (auto index = ctx.indexKey(name, scale, version))
                ctx.store->store(*index, serializeRecordingHash(r.hash));
        }
    }
    return r;
}

Context::Pass::Replayed
Context::Pass::replay(int warp_size)
{
    support::CancelScope shared(nullptr);
    namespace m = support::metrics;
    std::optional<Recorded> rec;
    {
        std::lock_guard<std::mutex> lock(lanesMu);
        rec.swap(lanes);
    }
    if (!rec)
        rec = record();
    support::FaultInjector::instance().maybeStall("replay:" + key);
    auto t0 = std::chrono::steady_clock::now();
    Replayed r;
    r.hash = rec->hash;
    // Every sim and the analysis read the trace; the lanes go as soon
    // as it is built. The build stays on this thread: blocks
    // allocated by short-lived helpers raised a cold run's peak RSS
    // by tens of MiB for no wall-time gain.
    r.trace = gpusim::SequenceTrace(rec->seq, warp_size);
    rec.reset();
    auto t1 = std::chrono::steady_clock::now();
    uint64_t encoded = r.trace.encodedBytes();
    m::count("gpusim.replay.calls");
    m::countLabeled("gpusim.replay.warp_insts", key,
                    r.trace.stats.warpInstructions);
    m::countLabeled("gpusim.replay.encoded_bytes", key, encoded);
    m::gaugeLabeled("gpusim.replay.wall_us", key, microsSince(t0, t1));
    if (auto *tc = TraceCollector::active())
        tc->record("gpusim", "replay",
                   TraceArgs()
                       .str("key", key)
                       .num("warp_size", uint64_t(warp_size))
                       .num("warp_insts", r.trace.stats.warpInstructions)
                       .num("encoded_bytes", encoded)
                       .json(),
                   t0, t1);
    r.resident = Resident(liveTraces, r.trace.allocatedBytes());
    return r;
}

std::shared_ptr<Context::Pass>
Context::pass(const std::string &name, core::Scale scale, int version)
{
    version = gpuVersion(name, version);
    std::string key = recordingKey(name, scale, version);
    std::lock_guard<std::mutex> lock(passMu);
    std::weak_ptr<Pass> &slot = passes[key];
    std::shared_ptr<Pass> live = slot.lock();
    if (!live) {
        live = std::make_shared<Pass>(*this, name, scale, version);
        slot = live;
    }
    return live;
}

std::optional<ResultStore::Key>
Context::indexKey(const std::string &name, core::Scale scale,
                  int version) const
{
    if (!store || !store->enabled())
        return std::nullopt;
    uint64_t build = buildIdentity();
    if (!build)
        return std::nullopt;
    return recordingIndexKey(name, scale, version, build);
}

bool
Context::stored(const ResultStore::Key &key) const
{
    std::error_code ec;
    return store && store->enabled() &&
           std::filesystem::exists(store->pathFor(key), ec);
}

std::optional<uint64_t>
Context::settledHash(const std::string &key) const
{
    if (const HashSlot *slot = hashMemo.done(key))
        return (*slot)->load();
    return std::nullopt;
}

uint64_t
Context::recordingHash(const std::string &name, core::Scale scale,
                       int version)
{
    return resolvedHash(*pass(name, scale, version));
}

uint64_t
Context::resolvedHash(Pass &pass)
{
    const HashSlot &slot = hashMemo.get(pass.key, [&] {
        auto index = indexKey(pass.name, pass.scale, pass.version);
        uint64_t h = 0;
        if (index && loadParsed(*store, *index, parseRecordingHash, h)) {
            support::metrics::count("gpusim.hash.index_served");
        } else {
            h = pass.recordedHash();
            if (index)
                store->store(*index, serializeRecordingHash(h));
        }
        return std::make_unique<std::atomic<uint64_t>>(h);
    });
    return slot->load();
}

const gpusim::SequenceTrace *
Context::storedOrReplayed(Pass &pass, int warp_size,
                          const std::function<bool(uint64_t)> &load,
                          uint64_t &hash)
{
    hash = resolvedHash(pass);
    if (load(hash))
        return nullptr;
    uint64_t recorded = 0;
    const gpusim::SequenceTrace &trace = pass.replayed(warp_size, recorded);
    if (recorded != hash) {
        hash = recorded;
        if (load(hash))
            return nullptr;
    }
    return &trace;
}

void
Context::settle(const KernelWork &work)
{
    std::shared_ptr<Pass> p = pass(work.workload, work.scale, work.version);
    std::vector<const gpusim::SimConfig *> sims;
    for (const auto &config : work.sims)
        if (!statsMemo.done(p->key + "/" + config.fingerprint()))
            sims.push_back(&config);
    const bool analyse = work.trace && !traceMemo.done(p->key);
    if (sims.empty() && !analyse)
        return;
    // The hash first, on this thread: on an index miss it records.
    // If the store lacks a result, a sim or the analysis reads the
    // trace, so it is built here too and the fan-out below never
    // waits on the recorder or the build. If the store holds them
    // all, nothing is built.
    uint64_t hash = resolvedHash(*p);
    bool build = analyse && !stored(traceStatsKey(p->name, p->scale, hash));
    for (size_t i = 0; i < sims.size() && !build; ++i)
        build = !stored(gpuStatsKey(p->name, p->scale,
                                    sims[i]->fingerprint(), hash));
    if (build)
        p->replayed(sims.empty() ? kAnalysisWarpSize
                                 : sims.front()->warpSize,
                    hash);
    parallelFor(sims.size() + (analyse ? 1 : 0), [&](size_t i) {
        if (i < sims.size())
            stats(*p, *sims[i], nullptr);
        else
            trace(*p);
    });
    // The freed lanes stay cached in this thread's malloc arena, out
    // of reach of the threads that run CPU characterizations next;
    // handing them back to the OS keeps them out of a batch run's
    // peak RSS. A lone gpuStats call (the daemon's sim op) does not
    // trim: the trim walks every arena, and the next recording would
    // fault the pages back in.
    if (build)
        ::malloc_trim(0);
}

bool
Context::settleWarm(const KernelWork &work)
{
    int version = gpuVersion(work.workload, work.version);
    std::string recKey = recordingKey(work.workload, work.scale, version);
    if (work.trace && !traceMemo.done(recKey))
        return false;
    std::optional<uint64_t> hash;
    for (const auto &config : work.sims) {
        std::string fp = config.fingerprint();
        if (statsMemo.done(recKey + "/" + fp))
            continue;
        if (!store || !store->enabled())
            return false;
        if (!hash)
            hash = settledHash(recKey);
        if (!hash) {
            auto index = indexKey(work.workload, work.scale, version);
            uint64_t indexed = 0;
            if (!index ||
                !loadParsed(*store, *index, parseRecordingHash, indexed))
                return false;
            hash = indexed;
        }
        if (!stored(gpuStatsKey(work.workload, work.scale, fp, *hash)))
            return false;
    }
    return true;
}

const gpusim::TraceStats &
Context::traceStats(const std::string &name, core::Scale scale,
                    int version)
{
    return trace(*pass(name, scale, version));
}

const gpusim::TraceStats &
Context::trace(Pass &pass)
{
    return traceMemo.get(pass.key, [&] {
        namespace m = support::metrics;
        gpusim::TraceStats stats;
        uint64_t hash = 0;
        const gpusim::SequenceTrace *replayed = storedOrReplayed(
            pass, kAnalysisWarpSize,
            [&](uint64_t h) {
                return store &&
                       loadParsed(*store,
                                  traceStatsKey(pass.name, pass.scale, h),
                                  gpusim::parseTraceStats, stats);
            },
            hash);
        if (!replayed) {
            m::count("gpusim.replay.store_served");
            return stats;
        }
        // The build tallied the analysis: nothing left to walk.
        stats = replayed->stats;
        if (store)
            store->store(traceStatsKey(pass.name, pass.scale, hash),
                         gpusim::serializeTraceStats(stats));
        m::count("gpusim.replay.analyses");
        return stats;
    });
}

bool
Context::gpuStatsWarm(const std::string &name, core::Scale scale,
                      int version, const gpusim::SimConfig &config)
{
    return settleWarm({name, scale, version, {config}, false});
}

const gpusim::KernelStats &
Context::gpuStats(const std::string &name, core::Scale scale,
                  int version, const gpusim::SimConfig &config,
                  bool *joined)
{
    return stats(*pass(name, scale, version), config, joined);
}

const gpusim::KernelStats &
Context::stats(Pass &pass, const gpusim::SimConfig &config, bool *joined)
{
    std::string fp = config.fingerprint();
    std::string keyName = pass.key + "/" + fp;
    auto compute = [&] {
        auto span0 = std::chrono::steady_clock::now();
        // The content hash is part of the key (a changed recording
        // must not be served stale stats); the kernel is recorded and
        // replayed only when the stats must be simulated.
        gpusim::TimingSim sim(config);
        gpusim::KernelStats s;
        uint64_t hash = 0;
        const gpusim::SequenceTrace *trace = storedOrReplayed(
            pass, config.warpSize,
            [&](uint64_t h) {
                return store &&
                       loadParsed(*store,
                                  gpuStatsKey(pass.name, pass.scale, fp, h),
                                  gpusim::parseKernelStats, s);
            },
            hash);
        bool fromStore = !trace;
        if (!fromStore) {
            support::FaultInjector::instance().maybeStall("sim:" +
                                                          keyName);
            support::checkpointCancellation();
            auto t0 = std::chrono::steady_clock::now();
            s = sim.simulate(*trace);
            std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            if (store)
                store->store(gpuStatsKey(pass.name, pass.scale, fp, hash),
                             gpusim::serializeKernelStats(s));
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
