/**
 * @file
 * Cooperative cancellation.
 *
 * A CancelToken is a one-shot flag plus a reason string, with an
 * optional deadline fixed at construction. The owner (a client's
 * cancel, daemon shutdown, a test) calls cancel(); a token with a
 * deadline also counts as cancelled, with the reason it was built
 * with, once the steady clock passes the deadline. The cancellee
 * polls checkpoint() at safe points inside its long loops (sim
 * lanes, sweep replay, memo waits, stall slices) and unwinds with a
 * CancelledError when the token is cancelled. Cancellation is
 * therefore *cooperative*: code that never reaches a checkpoint is
 * never interrupted, and a checkpoint is the only place the
 * exception can originate, so cancellees are always unwound at a
 * point they chose. A deadline needs no monitor thread: the first
 * checkpoint past it fires.
 *
 * Tokens are installed per-thread with a CancelScope RAII guard; the
 * free function checkpointCancellation() consults the innermost
 * scope on the calling thread and is a no-op (one thread-local read)
 * when no token is active, which makes it cheap enough to sprinkle
 * through hot loops at a coarse stride. Executor::parallelFor
 * propagates the caller's token onto helper threads, so a figure
 * job's nested config sweep observes the figure's deadline.
 */

#ifndef RODINIA_SUPPORT_CANCEL_HH
#define RODINIA_SUPPORT_CANCEL_HH

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>

namespace rodinia {
namespace support {

/** Thrown from CancelToken::checkpoint() once the token is
 *  cancelled. what() carries the canceller's reason. */
class CancelledError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One-shot cancellation flag, shared between canceller and
 *  cancellee, with an optional deadline. All members are
 *  thread-safe. */
class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    /** A token only cancel() cancels. */
    CancelToken() = default;

    /** A token that also counts as cancelled, with @p reason, once
     *  the steady clock passes @p deadline. */
    CancelToken(Clock::time_point deadline, std::string reason);

    /** Request cancellation. The first reason wins: later calls are
     *  no-ops, and a call after the deadline keeps the deadline's
     *  reason. */
    void cancel(const std::string &reason);

    bool cancelled() const
    {
        return flag_.load(std::memory_order_acquire) || expired();
    }

    /** The first reason (cancel()'s or the deadline's), or "" if
     *  not cancelled. */
    std::string reason() const;

    /** Throw CancelledError iff cancelled. The fast path is one
     *  relaxed atomic load, plus a clock read only when the token
     *  has a deadline. */
    void checkpoint() const;

  private:
    bool expired() const
    {
        return hasDeadline_ && Clock::now() > deadline_;
    }

    std::atomic<bool> flag_{false};
    const bool hasDeadline_ = false;
    const Clock::time_point deadline_{};
    const std::string deadlineReason_;
    mutable std::mutex mu_;
    std::string reason_;
};

/**
 * Installs @p token as the calling thread's active cancel token for
 * the scope's lifetime, stacking over (and restoring) any outer
 * scope. A null token is allowed and simply shadows the outer scope
 * with "no token".
 */
class CancelScope
{
  public:
    explicit CancelScope(const CancelToken *token);
    ~CancelScope();

    CancelScope(const CancelScope &) = delete;
    CancelScope &operator=(const CancelScope &) = delete;

  private:
    const CancelToken *prev_;
};

/** The calling thread's active token, or nullptr. */
const CancelToken *currentCancelToken();

/** Poll the calling thread's active token; throws CancelledError if
 *  it has been cancelled, no-op otherwise (including when no scope
 *  is active). Safe to call from any loop. */
inline void
checkpointCancellation()
{
    if (const CancelToken *t = currentCancelToken())
        t->checkpoint();
}

} // namespace support
} // namespace rodinia

#endif // RODINIA_SUPPORT_CANCEL_HH
