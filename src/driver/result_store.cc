#include "driver/result_store.hh"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "driver/tracing.hh"
#include "support/faultinject.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace {

uint64_t
elapsedUs(std::chrono::steady_clock::time_point t0)
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/**
 * Is the temp @p name, whose ".tmp." starts at @p tmpAt, the
 * in-flight publish of a running process? A temp is named
 * `<entry>.tmp.<pid>.<thread>`. A name with no pid field (the older
 * `<entry>.tmp.<thread>` form) or whose pid names no process is a
 * crashed writer's. kill(pid, 0) failing with EPERM still means the
 * process exists.
 */
bool
liveWriterTmp(const std::string &name, size_t tmpAt)
{
    const char *pidAt = name.data() + tmpAt + 5;
    const char *end = name.data() + name.size();
    const char *dot = std::find(pidAt, end, '.');
    pid_t pid = 0;
    auto [stop, ec] = std::from_chars(pidAt, dot, pid);
    if (dot == end || ec != std::errc() || stop != dot || pid <= 0)
        return false;
    return ::kill(pid, 0) == 0 || errno != ESRCH;
}

} // namespace

namespace rodinia {
namespace driver {

ResultStore::ResultStore(std::filesystem::path dir, bool enabled,
                         int version)
    : dir(std::move(dir)), on(enabled), version(version)
{
    if (on)
        collectTmpGarbage();
}

// A crashed publish leaves `<entry>.tmp.<pid>.<thread>` behind (write
// happened, rename did not). Those droppings are dead weight — a
// tmp name is never read and never reused unless the same writer id
// recurs — so sweep them when the store opens. Another process
// publishing into the same directory (the daemon beside a CLI run)
// is still writing its temps, so a temp whose pid is alive is left
// alone.
void
ResultStore::collectTmpGarbage()
{
    auto t0 = std::chrono::steady_clock::now();
    uint64_t collected = 0;
    std::error_code ec;
    // The ec overload degrades to an empty range when the directory
    // does not exist yet.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        std::string name = entry.path().filename().string();
        size_t tmpAt = name.find(".tmp.");
        if (tmpAt == std::string::npos || liveWriterTmp(name, tmpAt))
            continue;
        if (support::FaultInjector::instance().failFile(
                support::FaultOp::Unlink, name)) {
            warn("ResultStore: injected unlink failure for ",
                 entry.path().string());
            continue;
        }
        std::error_code rmEc;
        if (std::filesystem::remove(entry.path(), rmEc) && !rmEc) {
            nTmpCollected.fetch_add(1);
            ++collected;
        }
    }
    support::metrics::count("store.tmp_collected", collected);
    if (auto *tc = TraceCollector::active())
        tc->record("store", "gc",
                   TraceArgs().num("collected", collected).json(),
                   t0, std::chrono::steady_clock::now());
}

uint64_t
ResultStore::hashKey(const Key &key) const
{
    support::Fnv1a h;
    h.field(version)
        .field(key.kind)
        .field(key.workload)
        .field(key.scale)
        .field(key.threads)
        .field(key.config);
    return h.digest();
}

std::filesystem::path
ResultStore::pathFor(const Key &key) const
{
    std::ostringstream hex;
    uint64_t h = hashKey(key);
    hex << std::hex;
    hex.width(16);
    hex.fill('0');
    hex << h;
    // kind + workload prefix keeps the directory human-navigable;
    // the digest carries the actual identity.
    return dir /
           (key.kind + "_" + key.workload + "_" + hex.str() + ".txt");
}

std::optional<std::string>
ResultStore::load(const Key &key) const
{
    auto t0 = std::chrono::steady_clock::now();
    std::filesystem::path path = pathFor(key);
    std::optional<std::string> out;
    if (on) {
        std::ifstream in(path, std::ios::binary);
        if (in) {
            std::ostringstream buf;
            buf << in.rdbuf();
            if (in.good() || in.eof())
                out = buf.str();
        }
    }
    if (out) {
        nHits.fetch_add(1);
        support::metrics::count("store.hits");
    } else {
        nMisses.fetch_add(1);
        support::metrics::count("store.misses");
    }
    support::metrics::observe("store.load_us", elapsedUs(t0));
    if (auto *tc = TraceCollector::active())
        tc->record("store", "load",
                   TraceArgs()
                       .str("entry", path.filename().string())
                       .str("outcome", out ? "hit" : "miss")
                       .json(),
                   t0, std::chrono::steady_clock::now());
    return out;
}

namespace {

/** write(2) the whole buffer, then fsync. False on any failure.
 *  @p faultKey names the destination entry for injected write/fsync
 *  failures (keyed by the entry, not the per-writer tmp name, so
 *  injection decisions are stable across thread ids). */
bool
writeAllDurably(const std::filesystem::path &path,
                const std::string &payload,
                const std::string &faultKey)
{
    auto &injector = support::FaultInjector::instance();
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    if (injector.failFile(support::FaultOp::Write, faultKey)) {
        // Model a mid-write crash: the tmp exists (possibly with
        // partial bytes) but the payload never made it.
        ::close(fd);
        return false;
    }
    const char *p = payload.data();
    size_t left = payload.size();
    while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return false;
        }
        p += n;
        left -= size_t(n);
    }
    bool ok = false;
    if (!injector.failFile(support::FaultOp::Fsync, faultKey)) {
        auto f0 = std::chrono::steady_clock::now();
        ok = ::fsync(fd) == 0;
        rodinia::support::metrics::observe("store.fsync_us",
                                           elapsedUs(f0));
    }
    return (::close(fd) == 0) && ok;
}

/** fsync a directory so a rename inside it survives a crash. */
bool
syncDirectory(const std::filesystem::path &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

} // namespace

bool
ResultStore::store(const Key &key, const std::string &payload) const
{
    if (!on)
        return true; // disabled stores have nothing to publish
    auto t0 = std::chrono::steady_clock::now();
    bool ok = doStore(key, payload);
    support::metrics::count(ok ? "store.publishes"
                               : "store.publish_failures");
    support::metrics::observe("store.publish_us", elapsedUs(t0));
    if (auto *tc = TraceCollector::active())
        tc->record("store", "publish",
                   TraceArgs()
                       .str("entry", pathFor(key).filename().string())
                       .str("outcome", ok ? "ok" : "fail")
                       .json(),
                   t0, std::chrono::steady_clock::now());
    return ok;
}

bool
ResultStore::doStore(const Key &key, const std::string &payload) const
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("ResultStore: cannot create ", dir.string(), ": ",
             ec.message());
        nPublishFailures.fetch_add(1);
        return false;
    }
    std::filesystem::path dest = pathFor(key);
    // Unique temp name per writer (process and thread) so concurrent
    // stores of the same key never scribble on one another's
    // half-written file, and an opening store can tell a running
    // writer's temp from a crashed one's.
    std::ostringstream tmpName;
    tmpName << dest.filename().string() << ".tmp." << ::getpid() << "."
            << std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::filesystem::path tmp = dir / tmpName.str();
    if (!writeAllDurably(tmp, payload, dest.filename().string())) {
        warn("ResultStore: cannot write ", tmp.string());
        std::filesystem::remove(tmp, ec);
        nPublishFailures.fetch_add(1);
        return false;
    }
    if (support::FaultInjector::instance().failFile(
            support::FaultOp::Rename, dest.filename().string())) {
        warn("ResultStore: injected rename failure for ",
             dest.string());
        std::filesystem::remove(tmp, ec);
        nPublishFailures.fetch_add(1);
        return false;
    }
    std::filesystem::rename(tmp, dest, ec);
    if (ec) {
        warn("ResultStore: rename ", tmp.string(), " -> ",
             dest.string(), ": ", ec.message());
        std::filesystem::remove(tmp, ec);
        nPublishFailures.fetch_add(1);
        return false;
    }
    if (!syncDirectory(dir))
        warn("ResultStore: cannot fsync ", dir.string());
    return true;
}

void
ResultStore::discard(const Key &key) const
{
    if (!on)
        return;
    std::filesystem::path path = pathFor(key);
    if (support::FaultInjector::instance().failFile(
            support::FaultOp::Unlink, path.filename().string())) {
        warn("ResultStore: injected unlink failure for ",
             path.string());
        return; // entry survives; a retried discard starts over
    }
    std::error_code ec;
    if (!std::filesystem::remove(path, ec) || ec)
        return; // nothing removed — nothing to reclassify
    // The load that surfaced the bad payload was counted as a hit;
    // the caller is about to recompute, so reclassify it. The
    // registry keeps raw observed outcomes instead (counters never
    // decrement); discards are visible as their own metric.
    nHits.fetch_sub(1);
    nMisses.fetch_add(1);
    support::metrics::count("store.discards");
}

ResultStore::Key
cpuCharKey(const std::string &workload, core::Scale scale, int threads)
{
    ResultStore::Key key;
    key.kind = "cpuchar";
    key.workload = workload;
    key.scale = int(scale);
    key.threads = threads;
    key.config = ""; // CPU characterizations have no sim config
    return key;
}

ResultStore::Key
gpuStatsKey(const std::string &workload, core::Scale scale,
            const std::string &config_fingerprint,
            uint64_t recording_hash)
{
    ResultStore::Key key;
    key.kind = "gpustats";
    key.workload = workload;
    key.scale = int(scale);
    std::ostringstream cfg;
    cfg << config_fingerprint << "|rec=" << std::hex
        << recording_hash;
    key.config = cfg.str();
    return key;
}

ResultStore::Key
recordingIndexKey(const std::string &workload, core::Scale scale,
                  int version, uint64_t build_identity)
{
    ResultStore::Key key;
    key.kind = "recindex";
    key.workload = workload;
    key.scale = int(scale);
    std::ostringstream cfg;
    cfg << "v" << version << "|build=" << std::hex << build_identity;
    key.config = cfg.str();
    return key;
}

ResultStore::Key
traceStatsKey(const std::string &workload, core::Scale scale,
              uint64_t recording_hash)
{
    ResultStore::Key key;
    key.kind = "tracestats";
    key.workload = workload;
    key.scale = int(scale);
    std::ostringstream cfg;
    cfg << "rec=" << std::hex << recording_hash;
    key.config = cfg.str();
    return key;
}

std::string
serializeRecordingHash(uint64_t hash)
{
    std::ostringstream outf;
    outf << "recindex 1\n" << std::hex << hash << "\n";
    return outf.str();
}

bool
parseRecordingHash(const std::string &payload, uint64_t &hash)
{
    std::istringstream in(payload);
    std::string tag;
    int version = 0;
    in >> tag >> version;
    if (tag != "recindex" || version != 1)
        return false;
    in >> std::hex >> hash;
    return bool(in);
}

std::string
serializeCpuChar(const core::CpuCharacterization &c)
{
    std::ostringstream outf;
    outf << "cpuchar " << c.name << " " << c.threads << "\n"
         << int(c.suite) << "\n";
    outf << c.mix.intOps << " " << c.mix.fpOps << " " << c.mix.branches
         << " " << c.mix.loads << " " << c.mix.stores << "\n";
    outf << c.memEvents << " " << c.instructionSites << " "
         << c.instructionBlocks << " " << c.dataPages << " "
         << c.checksum << "\n";
    outf << c.sweep.size() << "\n";
    for (size_t i = 0; i < c.sweep.size(); ++i) {
        const auto &s = c.sweep[i];
        outf << c.cacheSizes[i] << " " << s.accesses << " " << s.misses
             << " " << s.evictions << " " << s.residencies << " "
             << s.sharedResidencies << " " << s.accessesToShared << " "
             << s.writesToShared;
        for (uint64_t d : s.hitDepth)
            outf << " " << d;
        outf << "\n";
    }
    return outf.str();
}

bool
parseCpuChar(const std::string &payload, core::CpuCharacterization &out)
{
    std::istringstream in(payload);
    std::string tag;
    size_t sweeps = 0;
    in >> tag >> out.name >> out.threads;
    if (tag != "cpuchar")
        return false;
    int suite;
    in >> suite;
    out.suite = core::Suite(suite);
    in >> out.mix.intOps >> out.mix.fpOps >> out.mix.branches >>
        out.mix.loads >> out.mix.stores;
    in >> out.memEvents >> out.instructionSites >>
        out.instructionBlocks >> out.dataPages >> out.checksum;
    in >> sweeps;
    if (!in || sweeps > 1024)
        return false;
    out.cacheSizes.resize(sweeps);
    out.sweep.resize(sweeps);
    for (size_t i = 0; i < sweeps; ++i) {
        auto &s = out.sweep[i];
        in >> out.cacheSizes[i] >> s.accesses >> s.misses >>
            s.evictions >> s.residencies >> s.sharedResidencies >>
            s.accessesToShared >> s.writesToShared;
        for (auto &d : s.hitDepth)
            in >> d;
    }
    return bool(in);
}

} // namespace driver
} // namespace rodinia
