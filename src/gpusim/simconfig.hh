/**
 * @file
 * GPU timing-model configuration.
 *
 * The default configuration mirrors Table II of the paper (the
 * GPGPU-Sim setup): 28 SMs at 2 GHz, 32-wide SIMD, 1024 threads and
 * 8 CTAs per SM, 32 kB shared memory per SM with bank conflicts
 * modeled, 8 memory channels, and no L2. Presets are provided for
 * the 8-shader configuration (Fig. 1), the GTX 280, and the GTX 480
 * (Fermi) in both L1-bias and shared-bias modes (Fig. 5).
 */

#ifndef RODINIA_GPUSIM_SIMCONFIG_HH
#define RODINIA_GPUSIM_SIMCONFIG_HH

#include <cstdint>
#include <string>

namespace rodinia {
namespace gpusim {

/** All architectural parameters of the timing model. */
struct SimConfig
{
    // Core organization.
    int numSms = 28;
    int warpSize = 32;
    int simdWidth = 32;
    int maxThreadsPerSm = 1024;
    int maxCtasPerSm = 8;
    int regFileSize = 16384;  //!< registers per SM
    int regsPerThread = 16;   //!< estimated per-thread register demand

    // Shared memory.
    uint64_t sharedMemPerSm = 32 * 1024;
    bool bankConflictsEnabled = true;
    int sharedBanks = 16;

    // Clocks. The memory clock is the effective transfer rate (DDR
    // data rate), so channel bandwidth = dramBusBytes * memClockGhz.
    double coreClockGhz = 2.0;
    double memClockGhz = 2.0;

    /**
     * Integer instructions implicitly issued around every memory
     * instruction (address arithmetic, predicates). Kernel traces
     * record algorithmic work only; a real PTX stream carries this
     * overhead, which both raises committed IPC and spaces out
     * memory requests.
     */
    int addressAluPerMem = 4;

    // Memory system.
    int numChannels = 8;
    int dramBusBytes = 16;    //!< bytes per memory-clock beat
    int coalesceBytes = 64;   //!< memory transaction granularity
    int gmemLatencyCycles = 440;
    int launchOverheadCycles = 600;

    // Per-SM read-only caches (pre-Fermi GPUs have these). The
    // texture size folds the per-SM L1 tex cache and its share of
    // the per-partition L2 texture cache into one level.
    uint64_t texCacheBytes = 64 * 1024;
    uint64_t constCacheBytes = 8 * 1024;
    int texHitLatency = 18;
    int constHitLatency = 4;

    // Fermi-style data caches.
    bool l1Enabled = false;
    uint64_t l1Bytes = 16 * 1024;
    int l1LineBytes = 128;
    int l1HitLatency = 28;
    bool l2Enabled = false;
    uint64_t l2Bytes = 768 * 1024;
    int l2LineBytes = 128;
    int l2HitLatency = 130;

    /**
     * Runtime option, NOT an architectural parameter: how many lane
     * runners (threads) one timing simulation may spread its SMs
     * over. 0 = up to one per SM, as support::ThreadBudget grants;
     * a positive value caps that count. Lane runners never change
     * simulation output — the engine is bit-identical at every count
     * by construction and by test — so this field is deliberately
     * excluded from fingerprint(): the same store entry serves every
     * count.
     */
    int simThreads = 0;

    /**
     * Fail fast (fatal) on geometry that would make the timing model
     * simulate nonsense: zero/negative shader, channel, warp or bank
     * counts, non-power-of-two line and transaction sizes, non-
     * positive clocks, or a Fermi configuration whose L1 + shared
     * split does not add up to the 64 kB configurable SM memory.
     */
    void validate() const;

    /**
     * The same geometry rules as validate(), reported instead of
     * enforced: returns "" for a sound configuration, or the first
     * violation's message. This is the boundary check for untrusted
     * configs (the experiment service rejects the request instead of
     * aborting the daemon); validate() remains the in-process
     * contract for code paths that constructed the config themselves.
     */
    std::string check() const;

    /**
     * Canonical, stable serialization of every field. Two configs
     * produce equal fingerprints iff every architectural parameter
     * is equal, so the fingerprint keys memoized and store-cached
     * simulation results (see driver::Context::gpuStats).
     */
    std::string fingerprint() const;

    /** Issue cycles per warp instruction (warpSize / simdWidth). */
    int
    warpIssueCycles() const
    {
        return warpSize / (simdWidth > 0 ? simdWidth : 1);
    }

    /**
     * Core cycles one memory channel is busy serving one coalesced
     * transaction of coalesceBytes.
     */
    int
    channelServiceCycles() const
    {
        double mem_cycles = double(coalesceBytes) / double(dramBusBytes);
        double core_per_mem = coreClockGhz / memClockGhz;
        int c = int(mem_cycles * core_per_mem + 0.5);
        return c > 0 ? c : 1;
    }

    /** Table II defaults (the paper's GPGPU-Sim configuration). */
    static SimConfig gpgpusimDefault();

    /** Same as the default but with a different shader count. */
    static SimConfig shaders(int num_sms);

    /** GTX 280-like: 30 SMs, 1.3 GHz SPs, no L1/L2 data caches. */
    static SimConfig gtx280();

    /**
     * GTX 480 (Fermi)-like: 15 SMs, 1.4 GHz SPs, unified 768 kB L2,
     * and a 64 kB configurable SM memory split.
     *
     * @param l1_bias true = 48 kB L1 + 16 kB shared;
     *                false = 16 kB L1 + 48 kB shared (default bias)
     */
    static SimConfig gtx480(bool l1_bias);
};

} // namespace gpusim
} // namespace rodinia

#endif // RODINIA_GPUSIM_SIMCONFIG_HH
