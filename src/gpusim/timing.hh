/**
 * @file
 * Cycle-level GPU timing model (the GPGPU-Sim analog).
 *
 * Replays a kernel's warp trace (gpusim/warptrace.hh) through a
 * configurable many-core GPU: CTAs are placed onto SMs subject to
 * thread/CTA/shared-memory/register limits; each SM issues at most
 * one warp instruction per cycle from a round-robin-ish ready queue,
 * decoding it from the warp's stream as it issues; memory
 * instructions are coalesced into transactions that queue on the
 * memory channels; shared-memory bank conflicts serialize issue;
 * texture/constant caches, and (in Fermi mode) per-SM L1 plus a
 * unified L2, filter traffic. Barriers synchronize the warps of a
 * CTA.
 *
 * Outputs the statistics behind Figures 1-5 and Table III: IPC, warp
 * occupancy, memory-space mix, DRAM bandwidth utilization, and cache
 * hit rates.
 */

#ifndef RODINIA_GPUSIM_TIMING_HH
#define RODINIA_GPUSIM_TIMING_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/recorder.hh"
#include "gpusim/replay.hh"
#include "gpusim/simconfig.hh"
#include "gpusim/types.hh"
#include "gpusim/warptrace.hh"

namespace rodinia {
namespace gpusim {

/** Statistics produced by one simulated kernel (or launch sequence). */
struct KernelStats
{
    uint64_t cycles = 0;
    uint64_t threadInstructions = 0;
    uint64_t warpInstructions = 0;
    std::array<uint64_t, 4> occupancyBuckets{};
    std::array<uint64_t, 7> memOps{};

    uint64_t dramTransactions = 0;
    uint64_t dramBytes = 0;
    uint64_t channelBusyCycles = 0;
    uint64_t bankConflictExtraCycles = 0;

    uint64_t l1Hits = 0, l1Misses = 0;
    uint64_t l2Hits = 0, l2Misses = 0;
    uint64_t texHits = 0, texMisses = 0;
    uint64_t constHits = 0, constMisses = 0;

    int numChannels = 0;
    double coreClockGhz = 0.0;

    /** Committed thread instructions per cycle. */
    double
    ipc() const
    {
        return cycles ? double(threadInstructions) / double(cycles) : 0.0;
    }

    /** Fraction of total channel-cycles spent transferring data. */
    double
    bwUtilization() const
    {
        if (!cycles || !numChannels)
            return 0.0;
        return double(channelBusyCycles) /
               (double(cycles) * double(numChannels));
    }

    /** Wall-clock kernel time in microseconds at the core clock. */
    double
    timeUs() const
    {
        return coreClockGhz > 0.0
                   ? double(cycles) / (coreClockGhz * 1e3)
                   : 0.0;
    }

    /** Aggregate another launch's stats (cycles accumulate). */
    void add(const KernelStats &o);

    bool operator==(const KernelStats &o) const;
};

/**
 * Serialize stats to the result-store payload format. The payload
 * is a pure function of the field values (doubles print with
 * max_digits10 precision, which round-trips exactly), so identical
 * simulations publish identical bytes from any process.
 */
std::string serializeKernelStats(const KernelStats &s);

/**
 * Parse a store payload back into stats.
 * @return false if the payload is malformed (treated as a miss)
 */
bool parseKernelStats(const std::string &payload, KernelStats &out);

/** Serialize a recording's trace analysis to the result-store
 *  payload format (integers only, so the bytes are a pure function
 *  of the analysis). */
std::string serializeTraceStats(const TraceStats &s);

/**
 * Parse a store payload back into a trace analysis.
 * @return false if the payload is malformed (treated as a miss)
 */
bool parseTraceStats(const std::string &payload, TraceStats &out);

/**
 * Point-in-time view of one SM's scheduler state, captured for the
 * deadlock diagnostic below. Plain data so tests can fabricate
 * snapshots without driving a real engine into a wedged state.
 */
struct SmSnapshot
{
    size_t readyWarps = 0;   //!< warps in the issue queue
    size_t waitingWarps = 0; //!< warps parked on wake cycles
    int residentCtas = 0;    //!< CTAs currently placed on the SM
    uint64_t freeCycle = 0;  //!< first cycle the SM may issue again
    uint64_t nextBound = 0;  //!< scheduler's next-progress lower bound
};

/**
 * Render the "no runnable warps but blocks remain" diagnostic: the
 * wedged cycle, block-dispatch counters, and one line per SM with
 * queue depths and scheduler bounds. A wedged paper-scale sim must
 * be debuggable from this message alone, so it is a separate pure
 * function with its own unit test rather than an inline panic string.
 */
std::string formatDeadlockDiagnostics(uint64_t cycle, size_t next_block,
                                      size_t total_blocks,
                                      size_t blocks_remaining,
                                      const std::vector<SmSnapshot> &sms);

/**
 * The epoch length (in core cycles) the timing engine uses for the
 * given configuration: the minimum latency of any path through the
 * shared L2/DRAM model. Any request issued inside an epoch completes
 * at or after the next epoch boundary, which is what makes deferring
 * shared-state arbitration to the boundary exact rather than
 * approximate (see DESIGN.md "Timing engine").
 */
uint64_t epochCyclesFor(const SimConfig &cfg);

/**
 * Test hook: cap the timing engine's epoch length at @p cycles
 * (0 restores the automatic epochCyclesFor value). Values above the
 * safe bound are clamped to it — shorter epochs are always sound,
 * longer ones are not — so property tests can sweep epoch lengths
 * and assert bit-identical stats without risking an unsound run.
 */
void setSimEpochForTest(uint64_t cycles);

/** Simulates recorded kernels under one architectural configuration. */
class TimingSim
{
  public:
    /** Validates the configuration up front (fatal on nonsense). */
    explicit TimingSim(const SimConfig &config) : cfg(config)
    {
        cfg.validate();
    }

    /**
     * Simulate one kernel launch from its warp trace, which must be
     * replayed at the config's warp size (fatal otherwise). Runs on
     * clamp(simThreads, 1, numSms) lane runners, the calling thread
     * being the first.
     */
    KernelStats simulate(const WarpTrace &trace) const;

    /**
     * Simulate a sequence of dependent launches; cycle counts add up
     * and a per-launch overhead models the driver launch cost.
     */
    KernelStats simulate(const SequenceTrace &seq) const;

    /** Build the launch's warp trace at the config's warp size, then
     *  simulate it. */
    KernelStats simulate(const KernelRecording &rec) const;

    /** Build every launch's warp trace at the config's warp size,
     *  then simulate the sequence. */
    KernelStats simulate(const LaunchSequence &seq) const;

    const SimConfig &config() const { return cfg; }

  private:
    SimConfig cfg;
};

} // namespace gpusim
} // namespace rodinia

#endif // RODINIA_GPUSIM_TIMING_HH
