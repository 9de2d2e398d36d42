/**
 * @file
 * Kernel trace recorder.
 *
 * Executes a kernel's real computation thread-by-thread and records
 * per-lane dynamic instruction traces. Threads of one block run as
 * cooperatively scheduled fibers so that __syncthreads() has real
 * barrier semantics: all threads of the block complete the current
 * barrier phase (including their shared-memory writes) before any
 * thread starts the next phase, exactly as a data-race-free CUDA
 * kernel requires.
 */

#ifndef RODINIA_GPUSIM_RECORDER_HH
#define RODINIA_GPUSIM_RECORDER_HH

#include "gpusim/kernel.hh"
#include "gpusim/types.hh"

namespace rodinia {
namespace gpusim {

/**
 * Record one kernel launch.
 *
 * Blocks execute sequentially (deterministically); within a block,
 * threads are fibers scheduled in thread-id order between barriers.
 * An exception thrown by a kernel thread propagates out of
 * recordKernel, after the block's other threads have been unwound
 * (their destructors run).
 *
 * @param launch grid/block geometry
 * @param kernel per-thread kernel function
 */
KernelRecording recordKernel(const LaunchConfig &launch,
                             const Kernel &kernel);

/**
 * Fiber switches recordKernel has made on the calling thread so far:
 * two per kernel thread (in and out) plus two per barrier wait.
 * Callers take the difference across their recordings.
 */
uint64_t fiberSwitches();

/**
 * A sequence of dependent kernel launches (iterative applications
 * launch the same kernel many times with a global synchronization
 * between launches).
 */
struct LaunchSequence
{
    std::vector<KernelRecording> launches;

    /** Append one more recorded launch. */
    void
    add(KernelRecording rec)
    {
        launches.push_back(std::move(rec));
    }

    uint64_t threadInstructions() const;
    std::vector<uint64_t> memOpsBySpace() const;
    /** Encoded event bytes, and the heap bytes that hold them, over
     *  every launch (see KernelRecording). */
    uint64_t encodedBytes() const;
    uint64_t allocatedBytes() const;
};

/**
 * Digest over every field that determines simulation output: launch
 * geometry, per-block shared size, and each lane's full event
 * stream (order keys, addresses, sizes, counts, op, space).
 * Recordings are canonical (device addresses are rewritten onto
 * gpusim::DeviceSpace), so the digest is process-independent; the
 * driver uses it to content-address stored simulation results.
 */
uint64_t contentHash(const KernelRecording &rec);

/** Digest of a whole sequence (folds in every launch's digest). */
uint64_t contentHash(const LaunchSequence &seq);

} // namespace gpusim
} // namespace rodinia

#endif // RODINIA_GPUSIM_RECORDER_HH
