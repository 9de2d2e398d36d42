/**
 * @file
 * Source-level instrumentation substrate — the Pin analog.
 *
 * The paper collects its CPU-side metrics (instruction mix, cache
 * behavior, sharing, footprints) with Pin binary instrumentation. We
 * substitute source-level instrumentation: every workload performs
 * its real computation through a trace::ThreadCtx, which records
 * per-thread instruction-mix counters, a memory-access trace, the set
 * of static instrumentation sites executed (for instruction
 * footprints), and the set of data pages touched.
 *
 * Memory traces are stored as compact delta-encoded streams
 * (trace::EventStream) so paper-scale inputs fit in memory; accesses
 * are split at 64-byte line boundaries at record time, so every
 * stored event covers exactly one cache line (and a multi-megabyte
 * access can never truncate the uint16_t size field).
 *
 * Workloads run on real std::threads; the session interleaves the
 * per-thread memory traces round-robin when feeding cache simulation
 * so results are deterministic.
 */

#ifndef RODINIA_TRACE_TRACE_HH
#define RODINIA_TRACE_TRACE_HH

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <source_location>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/stream.hh"

namespace rodinia {
namespace trace {

/** Dynamic instruction-mix counters (Bienia et al.'s categories). */
struct InstrMix
{
    uint64_t intOps = 0;
    uint64_t fpOps = 0;
    uint64_t branches = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;

    uint64_t total() const
    {
        return intOps + fpOps + branches + loads + stores;
    }
    uint64_t memRefs() const { return loads + stores; }

    InstrMix &
    operator+=(const InstrMix &o)
    {
        intOps += o.intOps;
        fpOps += o.fpOps;
        branches += o.branches;
        loads += o.loads;
        stores += o.stores;
        return *this;
    }
};

class TraceSession;

/**
 * Per-thread instrumentation handle. A workload thread performs its
 * real loads/stores through ld()/st() (or reports them with
 * load()/store()) and reports computation with alu()/fp()/branch().
 *
 * Each call site is identified via std::source_location, which
 * models the static code footprint: distinct sites executed stand in
 * for distinct instruction blocks in the compiled binary.
 */
class ThreadCtx
{
  public:
    ThreadCtx(TraceSession *session, int tid);

    int tid() const { return threadId; }
    int numThreads() const;

    /** Record a load of `size` bytes at `a`. */
    void
    load(const void *a, size_t size,
         std::source_location loc = std::source_location::current())
    {
        mix.loads++;
        touchSite(loc);
        if (recording)
            record(uint64_t(uintptr_t(a)), size, 0);
    }

    /** Record a store of `size` bytes at `a`. */
    void
    store(const void *a, size_t size,
          std::source_location loc = std::source_location::current())
    {
        mix.stores++;
        touchSite(loc);
        if (recording)
            record(uint64_t(uintptr_t(a)), size, 1);
    }

    /** Load through the instrumentation: returns *p and records. */
    template <typename T>
    T
    ld(const T *p, std::source_location loc = std::source_location::current())
    {
        load(p, sizeof(T), loc);
        return *p;
    }

    /** Store through the instrumentation: *p = v and records. */
    template <typename T>
    void
    st(T *p, const T &v,
       std::source_location loc = std::source_location::current())
    {
        store(p, sizeof(T), loc);
        *p = v;
    }

    /**
     * ld() for an element other threads may store concurrently
     * (through stShared or their own relaxed atomic accesses): a
     * relaxed atomic load keeps the race well-defined. Records the
     * same load event as ld().
     */
    template <typename T>
    T
    ldShared(T *p,
             std::source_location loc = std::source_location::current())
    {
        load(p, sizeof(T), loc);
        return std::atomic_ref<T>(*p).load(std::memory_order_relaxed);
    }

    /**
     * st() for an element several threads store in one phase, all
     * with the same value: a relaxed atomic store keeps the race
     * well-defined. Records the same store event as st().
     */
    template <typename T>
    void
    stShared(T *p, const T &v,
             std::source_location loc = std::source_location::current())
    {
        store(p, sizeof(T), loc);
        std::atomic_ref<T>(*p).store(v, std::memory_order_relaxed);
    }

    /** Report `n` integer ALU operations at this site. */
    void
    alu(uint64_t n = 1,
        std::source_location loc = std::source_location::current())
    {
        mix.intOps += n;
        touchSite(loc);
    }

    /** Report `n` floating-point operations at this site. */
    void
    fp(uint64_t n = 1,
       std::source_location loc = std::source_location::current())
    {
        mix.fpOps += n;
        touchSite(loc);
    }

    /** Report `n` branch instructions at this site. */
    void
    branch(uint64_t n = 1,
           std::source_location loc = std::source_location::current())
    {
        mix.branches += n;
        touchSite(loc);
    }

    /**
     * Declare that this thread executes a static code region of
     * roughly `bytes` bytes of machine code (the hot text of the
     * real application this workload models). Instruction footprints
     * (Fig. 11) combine these regions with the per-site model, since
     * source-level instrumentation cannot observe compiled code
     * size directly.
     */
    void
    codeRegion(uint64_t bytes,
               std::source_location loc = std::source_location::current())
    {
        uint64_t key = std::hash<std::string_view>{}(loc.file_name());
        key ^= (uint64_t(loc.line()) << 12) ^ loc.column();
        regionMap[key] = bytes;
    }

    const std::unordered_map<uint64_t, uint64_t> &regions() const
    {
        return regionMap;
    }

    /** Block until every workload thread reaches the barrier. */
    void barrier();

    const InstrMix &instrMix() const { return mix; }

    /** This thread's recorded memory trace (line-granular events). */
    const EventStream &stream() const { return memTrace; }

    /** Recorded events after line splitting. */
    uint64_t eventCount() const { return memTrace.size(); }

    /** Materialize the trace (tests / small traces only). */
    std::vector<MemEvent> eventsCopy() const { return memTrace.decodeAll(); }

    const std::unordered_set<uint64_t> &sites() const { return siteSet; }

  private:
    /**
     * Append one access, split at 64 B line boundaries so every
     * stored event covers exactly one line. This makes the uint16_t
     * size field exact by construction — a >64 KiB access used to
     * wrap it silently, corrupting footprint and cache statistics —
     * and lets normalizeAddresses remap each line independently
     * without a second splitting pass.
     */
    void
    record(uint64_t addr, size_t size, uint8_t isWrite)
    {
        if (size == 0) {
            memTrace.append(addr, 0, isWrite);
            return;
        }
        uint64_t end = addr + size;
        if ((addr >> 6) == ((end - 1) >> 6)) { // common: one line
            memTrace.append(addr, uint16_t(size), isWrite);
            return;
        }
        while (addr < end) {
            uint64_t piece = std::min(end, (addr | 63) + 1) - addr;
            assert(piece <= 64 && "line split produced oversize piece");
            memTrace.append(addr, uint16_t(piece), isWrite);
            addr += piece;
        }
    }

    void
    touchSite(const std::source_location &loc)
    {
        // One-entry site cache: a tight instrumented loop touches the
        // same source location on every iteration, so compare the
        // (stable) file-name pointer and line/column first and skip
        // the string hash + set probe on a repeat. The set contents
        // are unchanged — the skipped key was inserted by the
        // previous call.
        const char *file = loc.file_name();
        uint64_t lc = (uint64_t(loc.line()) << 12) ^ loc.column();
        if (file == lastSiteFile && lc == lastSiteLc)
            return;
        lastSiteFile = file;
        lastSiteLc = lc;
        uint64_t key = std::hash<std::string_view>{}(file);
        key ^= lc;
        siteSet.insert(key);
    }

    TraceSession *session;
    int threadId;
    bool recording;
    InstrMix mix;
    EventStream memTrace;
    std::unordered_set<uint64_t> siteSet;
    std::unordered_map<uint64_t, uint64_t> regionMap;
    const char *lastSiteFile = nullptr;
    uint64_t lastSiteLc = 0;

    friend class TraceSession;
};

/**
 * Runs an instrumented multithreaded workload and aggregates the
 * per-thread recordings.
 */
class TraceSession
{
  public:
    /**
     * @param num_threads number of workload threads to spawn
     * @param record keep full memory traces (disable for functional
     *        tests that only need the computation, not the metrics)
     */
    explicit TraceSession(int num_threads, bool record = true);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** Execute fn once per thread, concurrently. */
    void run(const std::function<void(ThreadCtx &)> &fn);

    int numThreads() const { return nThreads; }
    bool recordsEvents() const { return recording; }

    /** Per-thread contexts (valid after run()). */
    const std::vector<std::unique_ptr<ThreadCtx>> &contexts() const
    {
        return ctxs;
    }

    /** Instruction mix summed over all threads. */
    InstrMix totalMix() const;

    /** Total recorded memory events across threads. */
    uint64_t totalEvents() const;

    /** Number of distinct static instrumentation sites executed. */
    uint64_t instructionSites() const;

    /**
     * Modeled instruction footprint in 64-byte blocks (Fig. 11).
     * Each distinct site stands for bytesPerSite bytes of machine
     * code.
     */
    uint64_t instructionFootprintBlocks() const;

    /** Distinct 4 kB data pages touched (Fig. 12). */
    uint64_t dataFootprintPages() const;

    /**
     * Visit all recorded memory events in a deterministic
     * round-robin interleaving across threads (models concurrent
     * execution when replaying into a cache simulator). Templated so
     * replay loops inline the visitor instead of paying a
     * std::function dispatch per event.
     *
     * The live-cursor set is compacted in place as threads exhaust:
     * a thread that runs out of events leaves the round-robin
     * entirely instead of being rescanned every round, keeping the
     * walk linear in total events even when per-thread trace lengths
     * are wildly uneven (the old cursor-vector walk was
     * O(threads × max events) at paper scale).
     */
    template <typename Fn>
    void
    forEachInterleaved(Fn &&fn) const
    {
        struct Live
        {
            int tid;
            EventStream::Cursor cur;
            MemEvent ev;
        };
        std::vector<Live> live;
        live.reserve(ctxs.size());
        for (size_t t = 0; t < ctxs.size(); ++t) {
            Live l{int(t), EventStream::Cursor(ctxs[t]->memTrace), {}};
            if (l.cur.next(l.ev))
                live.push_back(std::move(l));
        }
        while (!live.empty()) {
            size_t w = 0;
            for (size_t i = 0; i < live.size(); ++i) {
                fn(live[i].tid, live[i].ev);
                if (live[i].cur.next(live[i].ev)) {
                    if (w != i)
                        live[w] = std::move(live[i]);
                    ++w;
                }
            }
            live.resize(w);
        }
    }

    /**
     * Rewrite every recorded address onto a canonical layout so a
     * characterization is byte-identical across processes by
     * construction, independent of where the heap happened to land
     * (ASLR, allocator phase):
     *
     *  - events are line-granular by construction (split at 64 B
     *    boundaries at record time), so each event is relocatable;
     *  - each distinct 4 kB page is assigned a sequential virtual
     *    page on first touch in the deterministic interleaved order;
     *  - within each page, each distinct 64 B line is assigned a
     *    sequential slot on first touch in the same order, erasing
     *    the allocator's intra-page phase.
     *
     * Distinct-page and distinct-line counts, sharing, and event
     * sizes are preserved exactly; byte offsets within a line are
     * not meaningful afterwards. Call once, after run() and before
     * replaying the trace.
     */
    void normalizeAddresses();

    /** Bytes of machine code modeled per instrumentation site. */
    static constexpr uint64_t bytesPerSite = 16;

  private:
    int nThreads;
    bool recording;
    std::vector<std::unique_ptr<ThreadCtx>> ctxs;
    std::unique_ptr<std::barrier<>> syncBarrier;

    friend class ThreadCtx;
};

} // namespace trace
} // namespace rodinia

#endif // RODINIA_TRACE_TRACE_HH
