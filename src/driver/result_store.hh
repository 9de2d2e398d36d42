/**
 * @file
 * Content-hashed, concurrency-safe experiment result store.
 *
 * Backs every `experiments --figure <id>` run (default directory
 * `bench_cache`). A result is addressed by an FNV-1a
 * digest over every field that determines its content — result
 * kind, workload name, scale, thread count, simulator-config string,
 * and a store version — so adding a key field or bumping kVersion
 * automatically invalidates stale entries instead of silently
 * returning them.
 *
 * Writes are crash-safe and safe under concurrent writers: the
 * payload goes to a unique temporary in the same directory, is
 * fsync'd, and is then published with an atomic rename followed by
 * an fsync of the directory — so a power cut can leave a *.tmp
 * droppings file but never a truncated or unlinked entry. A publish
 * that fails at any step is reported to the caller (and counted)
 * rather than silently warned away; concurrent writers of the same
 * key race benignly (results are deterministic, so both wrote
 * identical bytes).
 */

#ifndef RODINIA_DRIVER_RESULT_STORE_HH
#define RODINIA_DRIVER_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "core/characterize.hh"

namespace rodinia {
namespace driver {

class ResultStore
{
  public:
    /** Bump to invalidate every previously stored result. */
    static constexpr int kVersion = 6;

    /** Everything that determines a stored result's content. */
    struct Key
    {
        std::string kind;     //!< e.g. "cpuchar"
        std::string workload; //!< registry name
        int scale = 0;        //!< int(core::Scale)
        int threads = 0;      //!< worker threads (0 if n/a)
        std::string config;   //!< sim-config serialization ("" if n/a)
    };

    /**
     * @param dir cache directory (created lazily on first store)
     * @param enabled false turns load into a constant miss and
     *        store into a no-op (--no-cache)
     * @param version store version folded into every hash; exposed
     *        for invalidation tests
     *
     * Opening an enabled store garbage-collects orphaned `*.tmp.*`
     * droppings left behind by publishes that crashed between write
     * and rename (counted in tmpCollected()). A temp is named after
     * its writer's pid and thread, and one whose pid is a running
     * process is spared, so processes may share a store directory.
     * Published entries are never touched.
     */
    explicit ResultStore(std::filesystem::path dir, bool enabled = true,
                         int version = kVersion);

    /** FNV-1a digest of every key field plus the store version. */
    uint64_t hashKey(const Key &key) const;

    /** File that does/would hold this key's payload. */
    std::filesystem::path pathFor(const Key &key) const;

    /** Payload for the key, or nullopt on miss. */
    std::optional<std::string> load(const Key &key) const;

    /**
     * Durably publish the payload for the key: write + fsync a
     * unique temporary, atomically rename it into place, fsync the
     * directory. @return false (and count a publish failure) if any
     * step failed — the entry is then absent, not torn.
     */
    bool store(const Key &key, const std::string &payload) const;

    /**
     * Drop the stored entry for the key, reclassifying the hit that
     * surfaced it as a miss. Call when a loaded payload turns out to
     * be unusable (parse failure) so the corrupt entry self-heals on
     * the recompute instead of poisoning every future run.
     *
     * Idempotent: the hit→miss reclassification happens only when
     * this call actually removed the entry, so repeated discards —
     * or a discard retried after an (injected) unlink failure —
     * never double-count.
     */
    void discard(const Key &key) const;

    bool enabled() const { return on; }
    const std::filesystem::path &directory() const { return dir; }

    /** Cache traffic since construction (for run summaries). */
    uint64_t hits() const { return nHits.load(); }
    uint64_t misses() const { return nMisses.load(); }
    /** Publishes that failed (write, fsync, or rename). */
    uint64_t publishFailures() const { return nPublishFailures.load(); }
    /** Orphaned *.tmp.* droppings collected when the store opened. */
    uint64_t tmpCollected() const { return nTmpCollected.load(); }

  private:
    void collectTmpGarbage();
    /** The uninstrumented publish protocol behind store(). */
    bool doStore(const Key &key, const std::string &payload) const;

    std::filesystem::path dir;
    bool on;
    int version;
    mutable std::atomic<uint64_t> nHits{0};
    mutable std::atomic<uint64_t> nMisses{0};
    mutable std::atomic<uint64_t> nPublishFailures{0};
    mutable std::atomic<uint64_t> nTmpCollected{0};
};

/** Key for a CPU characterization result. */
ResultStore::Key cpuCharKey(const std::string &workload,
                            core::Scale scale, int threads);

/**
 * Key for a GPU timing-simulation result. The config string is the
 * SimConfig fingerprint plus the recorded launch sequence's content
 * hash, so a change to either the architecture under test or the
 * recording itself (workload logic, problem size, recorder fixes)
 * moves the key instead of serving stale stats. The kernel version
 * is not part of the key: the recording's hash already names the
 * kernel, so the shipped version and its explicit number share one
 * entry.
 */
ResultStore::Key gpuStatsKey(const std::string &workload,
                             core::Scale scale,
                             const std::string &config_fingerprint,
                             uint64_t recording_hash);

/**
 * Key for a recording-index entry: the content hash of the kernel
 * @p version (already resolved) records as under the build whose
 * identity is @p build_identity. A recording is a pure function of
 * the workload code and its input, so within one build the hash
 * never changes; a new build moves every key and re-proves each
 * hash by recording once.
 */
ResultStore::Key recordingIndexKey(const std::string &workload,
                                   core::Scale scale, int version,
                                   uint64_t build_identity);

/** Key for a recording's trace analysis, named by its content hash. */
ResultStore::Key traceStatsKey(const std::string &workload,
                               core::Scale scale,
                               uint64_t recording_hash);

/** Serialize a recording-index entry (one content hash). */
std::string serializeRecordingHash(uint64_t hash);

/**
 * Parse a recording-index payload.
 * @return false if the payload is malformed (treated as a miss)
 */
bool parseRecordingHash(const std::string &payload, uint64_t &hash);

/** Serialize a CPU characterization to the store payload format. */
std::string serializeCpuChar(const core::CpuCharacterization &c);

/**
 * Parse a store payload back into a characterization.
 * @return false if the payload is malformed (treated as a miss)
 */
bool parseCpuChar(const std::string &payload,
                  core::CpuCharacterization &out);

} // namespace driver
} // namespace rodinia

#endif // RODINIA_DRIVER_RESULT_STORE_HH
