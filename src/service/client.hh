/**
 * @file
 * Client side of the experiment service protocol.
 *
 * ServiceClient owns one Unix-socket connection and speaks the
 * line-delimited JSON protocol: one send*() method per op (ping,
 * figure, sim, stats, cancel) renders its request line, readEvent()
 * blocks for the next response line and decodes it, and await()
 * drives readEvent() until one request reaches a terminal state,
 * reassembling its streamed chunks into the full payload. Responses
 * for *other* in-flight requests that arrive while awaiting are
 * buffered and replayed to their own await() calls, so a caller can
 * pipeline many requests on one connection and collect them in any
 * order.
 *
 * The class is deliberately synchronous and single-threaded (one
 * client thread = one ServiceClient); it is not thread-safe.
 */

#ifndef RODINIA_SERVICE_CLIENT_HH
#define RODINIA_SERVICE_CLIENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/protocol.hh"

namespace rodinia {
namespace service {

/** One decoded response line. */
struct Event
{
    enum class Type {
        Accepted,
        Rejected,
        Chunk,
        Done,
        Error,
        Stats,
        Pong,
        /** Healthy connection, unintelligible line: unparseable
         *  JSON or a "type" this client does not know (e.g. from a
         *  newer daemon). await() skips these — one stray line must
         *  not be misreported as a lost connection. */
        Malformed,
        /** The socket actually closed or the read failed. */
        ConnectionLost,
    };

    Type type = Type::ConnectionLost;
    std::string id;      //!< request id ("" for pong)
    std::string lane;    //!< accepted/done
    std::string reason;  //!< rejected: overload|quota|bad-request
    std::string detail;  //!< rejected detail / error message
    std::string errorClass; //!< error responses
    std::string data;    //!< chunk data / stats payload
    uint64_t seq = 0;    //!< chunk sequence number
    uint64_t bytes = 0;  //!< done: payload bytes
    uint64_t wallUs = 0; //!< done: server-side wall time
    bool coalesced = false; //!< done: result rode another
                            //!< request's execution (single flight)
};

/** Terminal outcome of one request, payload reassembled. */
struct Outcome
{
    enum class Status { Served, Rejected, Error, Lost };

    Status status = Status::Lost;
    std::string lane;       //!< from accepted/done
    std::string reason;     //!< rejection reason
    std::string errorClass; //!< error class
    std::string detail;     //!< rejection detail / error message
    std::string payload;    //!< chunks concatenated in seq order
    bool coalesced = false; //!< done carried "coalesced":1
    uint64_t serverWallUs = 0;

    bool ok() const { return status == Status::Served; }
};

class ServiceClient
{
  public:
    ServiceClient() = default;
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /**
     * Connect to the daemon's socket. Retries connect() for up to
     * @p timeoutMs (the daemon may still be binding), so a client
     * started beside a fresh daemon can race its startup safely.
     */
    bool connect(const std::string &socketPath, int timeoutMs = 5000);

    bool connected() const { return fd_ >= 0; }
    void close();

    // ---- request senders (return false on a write error) --------

    bool sendPing();
    bool sendFigure(const std::string &id, const std::string &figure,
                    double deadlineMs = 0.0);
    /**
     * @param configJson the "config" object's JSON text ("{}" or ""
     *        for Table II defaults) — kept textual so callers
     *        write the config fields they vary directly
     */
    bool sendSim(const std::string &id, const std::string &workload,
                 const std::string &scale,
                 const std::string &configJson,
                 double deadlineMs = 0.0, int version = 0);
    bool sendStats(const std::string &id);
    bool sendCancel(const std::string &id, const std::string &target);
    /** Raw bytes, no framing added — protocol fuzz tests only. */
    bool sendRaw(const std::string &bytes);

    /**
     * Block for the next response line (any request) and decode it.
     * Returns an Event of type ConnectionLost when the daemon hangs
     * up, and of type Malformed when a line arrives but cannot be
     * decoded (bad JSON or an unknown "type").
     */
    Event readEvent();

    /**
     * Drive readEvent() until request @p id reaches a terminal
     * response (done / rejected / error / connection lost),
     * buffering events for other requests. Chunks are reassembled
     * into Outcome::payload.
     */
    Outcome await(const std::string &id);

  private:
    bool writeAll(const std::string &bytes);
    bool readLine(std::string &line);

    int fd_ = -1;
    std::string rbuf_;
    /** Events received while awaiting a different id. */
    std::vector<Event> pending_;
    /** Chunks-so-far per request id. */
    std::map<std::string, std::string> partial_;
};

} // namespace service
} // namespace rodinia

#endif // RODINIA_SERVICE_CLIENT_HH
