/**
 * @file
 * Admission control and per-client quotas for the experiment
 * service.
 *
 * The daemon sits many clients in front of one warm Context and one
 * Executor, so the scarce resources are (a) queue slots and (b) cold
 * simulation workers. Admission control keeps one greedy or broken
 * client from consuming either:
 *
 *  - Two priority lanes. Requests whose results are already warm
 *    (a figure whose declared inputs are all warm, a memoized sim,
 *    or a published store entry) go to the warm lane, served by its
 *    own worker(s); everything else is cold. A cold-sim flood therefore queues behind other cold work
 *    only — warm hits never wait on a simulation.
 *
 *  - Bounded queues. Each lane's queue has a hard depth cap; a
 *    request that would exceed it is REJECTED(overload) immediately
 *    (fail-fast backpressure) instead of growing an unbounded
 *    backlog whose tail latency nobody can meet.
 *
 *  - Per-client in-flight quotas. A client may have at most N
 *    requests admitted-but-unfinished across both lanes; excess
 *    earns REJECTED(quota). This is what makes the queue cap fair:
 *    without it, one client could legally fill every slot.
 *
 *  - FIFO lanes. Each lane's queue serves admitted requests in
 *    arrival order; the quota above bounds how much of it one
 *    client can hold.
 *
 * Every verdict is counted per client and surfaced through the
 * metrics registry (service.admitted / service.rejected, labeled by
 * client and lane) and the controller's own accounting snapshot,
 * which the /stats request type reports.
 */

#ifndef RODINIA_SERVICE_ADMISSION_HH
#define RODINIA_SERVICE_ADMISSION_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace rodinia {
namespace service {

enum class Lane { Warm, Cold };

const char *laneName(Lane lane);

/** Tunable limits (defaults sized for a handful of clients). */
struct AdmissionPolicy
{
    size_t maxColdQueue = 64;  //!< queued-but-unstarted cold requests
    size_t maxWarmQueue = 256; //!< warm hits are cheap; deeper cap
    size_t perClientInFlight = 16; //!< admitted and not yet finished
};

/** Outcome of one admission decision. */
enum class Verdict { Admit, RejectOverload, RejectQuota };

class AdmissionController
{
  public:
    explicit AdmissionController(const AdmissionPolicy &policy);

    /**
     * Decide one request. Admit reserves a queue slot in @p lane and
     * one in-flight unit for @p client, released by finish() — the
     * caller must guarantee exactly one finish() per Admit however
     * the request ends (served, errored, cancelled, connection
     * dropped).
     */
    Verdict admit(const std::string &client, Lane lane);

    /** The request left its queue — began executing, or was dropped
     *  (cancelled, connection gone) before starting. Either way the
     *  lane's queue slot frees up. */
    void started(Lane lane);

    /** The request finished (any outcome). */
    void finish(const std::string &client, Lane lane, bool served);

    size_t queueDepth(Lane lane) const;

    /** Accounting for one client, reported by /stats. */
    struct ClientStats
    {
        uint64_t admitted = 0;
        uint64_t rejectedOverload = 0;
        uint64_t rejectedQuota = 0;
        uint64_t served = 0; //!< finished successfully
        uint64_t failed = 0; //!< finished any other way
        uint64_t inFlight = 0;
    };

    /** Per-client accounting, keyed by client id (sorted). */
    std::map<std::string, ClientStats> snapshot() const;

    const AdmissionPolicy &policy() const { return policy_; }

  private:
    AdmissionPolicy policy_;
    mutable std::mutex mu_;
    size_t queued_[2] = {0, 0};  //!< per-lane queued (not started)
    std::map<std::string, ClientStats> clients_;
};

} // namespace service
} // namespace rodinia

#endif // RODINIA_SERVICE_ADMISSION_HH
