/**
 * @file
 * Process-wide helper-thread budget for nested parallelism.
 *
 * Two layers of the system want the machine's cores: the driver's
 * work-stealing Executor runs many jobs concurrently, and every GPU
 * timing simulation spreads its SMs over lane-runner threads.
 * Letting both claim hardware_concurrency independently
 * oversubscribes the machine (N jobs x M sim threads); statically
 * splitting it starves whichever layer happens to be idle. The
 * budget is the meeting point: executor workers mark themselves
 * active while they run a job, and a simulation asks for however
 * many helpers are left. On a saturated pool the answer is zero and
 * the sim runs its epochs on the calling thread alone; on the cold
 * critical path — one long sim, every other worker idle — the sim
 * gets the whole machine.
 *
 * Grants only size thread *pools*; they never influence simulation
 * results (the timing engine is bit-identical for any helper count),
 * so the budget needs no fairness or determinism guarantees — a
 * single atomic reservation counter suffices.
 */

#ifndef RODINIA_SUPPORT_THREADBUDGET_HH
#define RODINIA_SUPPORT_THREADBUDGET_HH

#include <atomic>

namespace rodinia {
namespace support {

/** Process-global helper-thread accountant. All methods thread-safe. */
class ThreadBudget
{
  public:
    static ThreadBudget &instance();

    /** Hardware threads the budget hands out (>= 1). Defaults to
     *  std::thread::hardware_concurrency(). */
    int capacity() const { return cap.load(std::memory_order_relaxed); }

    /** Override the capacity (tests; clamped to >= 1). */
    void setCapacity(int n);

    /**
     * Mark the calling context busy (an executor worker entering a
     * job) / idle again. Pairs must balance.
     */
    void markActive();
    void markIdle();

    /**
     * Reserve up to @p want helper threads beyond the already-active
     * ones. Returns the number granted, in [0, want]; the caller must
     * release() exactly that many when its helpers exit. Never blocks
     * and never grants past capacity; since capacity is at least 1,
     * an unreserved budget always grants at least one helper.
     */
    int tryAcquire(int want);

    /** Return @p n helper slots obtained from tryAcquire(). */
    void release(int n);

    /** Currently reserved slots (active + granted); observability. */
    int reserved() const
    {
        return used.load(std::memory_order_relaxed);
    }

  private:
    ThreadBudget();

    std::atomic<int> cap;
    std::atomic<int> used{0}; //!< active workers + granted helpers
};

} // namespace support
} // namespace rodinia

#endif // RODINIA_SUPPORT_THREADBUDGET_HH
