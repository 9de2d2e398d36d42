/**
 * @file
 * The long-lived experiment service.
 *
 * ExperimentService turns the batch experiment driver into a daemon:
 * it listens on a Unix-domain stream socket and serves figure,
 * simulation, and stats requests from many concurrent clients over
 * the line-delimited JSON protocol (service/protocol.hh), all
 * sharing ONE warm driver::Context, ONE ResultStore, and ONE
 * work-stealing Executor — so the memoized characterizations,
 * content hashes, trace analyses and timing simulations that a batch
 * run pays for once are paid for once per daemon lifetime, not once
 * per client.
 *
 * Request path:
 *
 *   reader thread (per connection)
 *     -> parse + structural validation (bad input = per-request
 *        rejection, never a daemon abort; SimConfigs are clamped and
 *        checked at this boundary)
 *     -> lane classification: warm iff the result is already served
 *        without computing: a sim memoized or published in the
 *        store, or a figure whose declared inputs are all warm
 *        (driver::figureWarm; a warm figure is re-rendered from the
 *        memoized results, in well under a millisecond for most)
 *     -> admission control (per-client quota, per-lane queue cap;
 *        see service/admission.hh) -> "accepted" or "rejected"
 *     -> lane queue: FIFO, served in arrival order; once stop() has
 *        begun, a request is answered "shutdown" instead of queued
 *   lane workers (dedicated warm + cold pools)
 *     -> single flight: identical in-flight cold sims (same
 *        workload/scale/version/config fingerprint — within one
 *        process that pins the recording's content hash too)
 *        coalesce onto ONE execution in the Context's gpuStats
 *        memo; requests that join a running simulation stream its
 *        bytes with "coalesced":1 on their done line, a joiner's
 *        cancel or deadline never disturbs the simulation, and a
 *        failed simulation propagates its error class to every
 *        joiner; distinct cold sims of one kernel in flight at once
 *        share one recording, and none is kept between requests
 *     -> execute under a per-request CancelToken (the request's
 *        deadline_ms rides the token; client cancel and connection
 *        teardown cancel the same token; the cooperative checkpoints
 *        in the sim/sweep loops observe both)
 *     -> stream the payload back as "chunk" responses + "done"
 *
 * Isolation property (pinned by tests): warm requests are never
 * behind a cold simulation — they have their own queue, their own
 * workers, and a cold flood can reject other *cold* work at the
 * queue cap but cannot add latency to a warm hit beyond the warm
 * workers' own service time.
 *
 * stats/ping/cancel are served inline on the reader thread (they
 * are O(registry size) at most), so they stay responsive even when
 * every worker is busy.
 */

#ifndef RODINIA_SERVICE_SERVER_HH
#define RODINIA_SERVICE_SERVER_HH

#include <memory>
#include <string>

#include "service/admission.hh"

namespace rodinia {
namespace driver {
class Context;
}

namespace service {

struct ServiceConfig
{
    std::string socketPath;        //!< required
    std::string cacheDir = "bench_cache";
    bool cacheEnabled = true;
    int executorThreads = 0;       //!< 0 = hardware concurrency
    int coldWorkers = 2;           //!< cold-lane request workers
    int warmWorkers = 1;           //!< warm-lane request workers
    AdmissionPolicy admission;
};

class ExperimentService
{
  public:
    explicit ExperimentService(const ServiceConfig &config);
    ~ExperimentService(); //!< stops if still running

    ExperimentService(const ExperimentService &) = delete;
    ExperimentService &operator=(const ExperimentService &) = delete;

    /**
     * Bind the socket (unlinking a stale file from a previous run),
     * start the accept loop and the lane workers.
     * @return false with a warn() if the socket cannot be bound.
     */
    bool start();

    /**
     * Stop accepting, cancel every queued and in-flight request
     * ("service shutting down"), close connections, join all
     * threads. A request that arrives meanwhile is answered with a
     * "shutdown" error, never left accepted but unanswered.
     * Idempotent.
     */
    void stop();

    bool running() const;

    /** Accepted connections so far (client ids are "c<N>"). */
    uint64_t connectionsAccepted() const;

    driver::Context &context();
    AdmissionController &admission();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace service
} // namespace rodinia

#endif // RODINIA_SERVICE_SERVER_HH
