#include "support/cancel.hh"

#include <utility>

namespace rodinia {
namespace support {

namespace {

thread_local const CancelToken *tlsToken = nullptr;

} // namespace

CancelToken::CancelToken(Clock::time_point deadline, std::string reason)
    : hasDeadline_(true), deadline_(deadline),
      deadlineReason_(std::move(reason))
{
}

void
CancelToken::cancel(const std::string &reason)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (flag_.load(std::memory_order_relaxed))
        return; // first reason wins
    reason_ = expired() ? deadlineReason_ : reason;
    flag_.store(true, std::memory_order_release);
}

std::string
CancelToken::reason() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (flag_.load(std::memory_order_relaxed))
        return reason_;
    return expired() ? deadlineReason_ : std::string();
}

void
CancelToken::checkpoint() const
{
    if (!flag_.load(std::memory_order_relaxed) && !expired())
        return;
    throw CancelledError(reason());
}

CancelScope::CancelScope(const CancelToken *token) : prev_(tlsToken)
{
    tlsToken = token;
}

CancelScope::~CancelScope()
{
    tlsToken = prev_;
}

const CancelToken *
currentCancelToken()
{
    return tlsToken;
}

} // namespace support
} // namespace rodinia
