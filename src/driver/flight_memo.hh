/**
 * @file
 * Keyed, cancellable single-flight memo.
 *
 * FlightMemo<V> maps a string key to an entry that is pending (its
 * compute is running), ok (settled with a value) or failed. The
 * first caller of a key computes outside the table lock; callers
 * arriving while that compute runs JOIN it: they wait for the
 * settle, polling their own support::CancelToken between bounded
 * waits, so a waiter's deadline or cancel unwinds only that waiter
 * while the compute keeps running for everyone else.
 *
 * Failure contract: a compute that throws retires its key and the
 * exception is rethrown to the computing caller and to every waiter
 * already joined; the next caller of the key computes afresh. The
 * failed entry keeps its exception until that next caller replaces
 * it, so the shared exception object is never freed by one of the
 * handlers still reading it. A settled value is never evicted, so
 * returned references stay valid for the memo's lifetime.
 *
 * Every join is counted when it happens in the Volatile labelled
 * counter `memo.joins` (label: the memo's name).
 */

#ifndef RODINIA_DRIVER_FLIGHT_MEMO_HH
#define RODINIA_DRIVER_FLIGHT_MEMO_HH

#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "support/cancel.hh"
#include "support/metrics.hh"

namespace rodinia {
namespace driver {

template <typename V> class FlightMemo
{
  public:
    /** @param name the `memo.joins` label of this memo */
    explicit FlightMemo(std::string name) : name(std::move(name)) {}

    FlightMemo(const FlightMemo &) = delete;
    FlightMemo &operator=(const FlightMemo &) = delete;

    /**
     * The value for @p key, running @p compute (a callable
     * returning V) only if no caller has settled or is computing
     * the key. @p joined, when given, is set to whether this call
     * waited on another caller's compute. Throws the compute's
     * exception (see the file comment), or CancelledError when the
     * caller's own token is cancelled while it waits.
     */
    template <typename Fn>
    const V &
    get(const std::string &key, Fn &&compute, bool *joined = nullptr)
    {
        std::shared_ptr<Entry> entry;
        bool leader = false;
        {
            std::lock_guard<std::mutex> lock(mu);
            std::shared_ptr<Entry> &slot = table[key];
            if (!slot || slot->state == State::Failed) {
                slot = std::make_shared<Entry>();
                ++nPending;
                leader = true;
            } else if (slot->state == State::Ok) {
                if (joined)
                    *joined = false;
                return slot->value;
            }
            entry = slot;
        }
        if (joined)
            *joined = !leader;
        if (leader)
            return lead(entry, std::forward<Fn>(compute));

        support::metrics::countLabeled(
            "memo.joins", name, 1, support::metrics::Stability::Volatile);
        const support::CancelToken *token = support::currentCancelToken();
        std::unique_lock<std::mutex> lock(mu);
        while (!entry->cv.wait_for(lock, kPollInterval, [&] {
            return entry->state != State::Pending;
        }))
            if (token)
                token->checkpoint();
        if (entry->state == State::Failed)
            std::rethrow_exception(entry->error);
        return entry->value;
    }

    /** The settled value for @p key, or nullptr while it is absent,
     *  pending or failed. Never blocks on a compute. */
    const V *
    done(const std::string &key) const
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = table.find(key);
        return it != table.end() && it->second->state == State::Ok
                   ? &it->second->value
                   : nullptr;
    }

    /** Keys whose compute is running right now. */
    size_t
    pending() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return nPending;
    }

  private:
    enum class State { Pending, Ok, Failed };

    struct Entry
    {
        State state = State::Pending;
        V value{};
        std::exception_ptr error;
        std::condition_variable cv;
    };

    /** How often a waiter re-checks its own cancel token. */
    static constexpr std::chrono::milliseconds kPollInterval{5};

    template <typename Fn>
    const V &
    lead(const std::shared_ptr<Entry> &entry, Fn &&compute)
    {
        try {
            V value = compute();
            std::lock_guard<std::mutex> lock(mu);
            entry->value = std::move(value);
            entry->state = State::Ok;
            --nPending;
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mu);
                entry->error = std::current_exception();
                entry->state = State::Failed;
                --nPending;
            }
            entry->cv.notify_all();
            throw;
        }
        entry->cv.notify_all();
        return entry->value;
    }

    const std::string name;
    mutable std::mutex mu;
    std::map<std::string, std::shared_ptr<Entry>> table;
    size_t nPending = 0;
};

} // namespace driver
} // namespace rodinia

#endif // RODINIA_DRIVER_FLIGHT_MEMO_HH
