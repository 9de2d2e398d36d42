#include "support/threadbudget.hh"

#include <thread>

namespace rodinia {
namespace support {

ThreadBudget &
ThreadBudget::instance()
{
    static ThreadBudget b;
    return b;
}

ThreadBudget::ThreadBudget()
{
    int hw = int(std::thread::hardware_concurrency());
    cap.store(hw > 0 ? hw : 1, std::memory_order_relaxed);
}

void
ThreadBudget::setCapacity(int n)
{
    cap.store(n > 0 ? n : 1, std::memory_order_relaxed);
}

void
ThreadBudget::markActive()
{
    used.fetch_add(1, std::memory_order_relaxed);
}

void
ThreadBudget::markIdle()
{
    used.fetch_sub(1, std::memory_order_relaxed);
}

int
ThreadBudget::tryAcquire(int want)
{
    if (want <= 0)
        return 0;
    int cur = used.load(std::memory_order_relaxed);
    for (;;) {
        int free = cap.load(std::memory_order_relaxed) - cur;
        int grant = free < want ? free : want;
        if (grant <= 0)
            return 0;
        if (used.compare_exchange_weak(cur, cur + grant,
                                       std::memory_order_relaxed))
            return grant;
    }
}

void
ThreadBudget::release(int n)
{
    if (n > 0)
        used.fetch_sub(n, std::memory_order_relaxed);
}

} // namespace support
} // namespace rodinia
