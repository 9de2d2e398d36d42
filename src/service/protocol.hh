/**
 * @file
 * Wire protocol of the experiment service.
 *
 * The daemon and its clients exchange *line-delimited JSON*: every
 * request and every response is one JSON object on one '\n'-
 * terminated line, so a connection is a full-duplex stream of
 * independently parseable messages and a reader never needs more
 * state than "bytes up to the next newline". Requests carry a
 * client-chosen id echoed on every response, which is what lets one
 * connection keep many requests in flight and match streamed
 * responses back to them.
 *
 * Request grammar (one object per line; keys are whitelisted per op,
 * so a typoed key — or a key misplaced from another op, like "scale"
 * on a figure request — is rejected instead of silently running
 * defaults):
 *
 *   {"op":"ping"}
 *   {"op":"figure","id":REQ,"figure":"fig1"[,"deadline_ms":N]}
 *   {"op":"sim","id":REQ,"workload":"bfs"[,"scale":"tiny|small|full|paper"]
 *       [,"version":N][,"config":{SimConfig fields...}]
 *       [,"deadline_ms":N]}
 *   {"op":"stats","id":REQ}
 *   {"op":"cancel","id":REQ,"target":REQ2}
 *
 * Response grammar (the "type" key discriminates):
 *
 *   {"id":REQ,"type":"accepted","lane":"warm|cold"}
 *   {"id":REQ,"type":"rejected","reason":"overload|quota|bad-request",
 *       "detail":"..."}
 *   {"id":REQ,"type":"chunk","seq":N,"data":"..."}      (payload part)
 *   {"id":REQ,"type":"done","lane":L,"chunks":N,"bytes":N,
 *       "wall_us":N,"coalesced":0|1}
 *   {"id":REQ,"type":"error","class":"deadline|cancelled|...",
 *       "message":"..."}
 *   {"id":REQ,"type":"stats","data":"<metrics JSON, escaped>"}
 *   {"type":"pong"}
 *
 * Payloads (figure text, serialized KernelStats) are streamed as
 * numbered "chunk" responses followed by one "done"; concatenating
 * the chunks in seq order reproduces the payload byte-exactly, which
 * is what the golden-corpus smoke test pins. "coalesced" marks a
 * response whose simulation was deduplicated onto another in-flight
 * request's execution (single flight) — the payload bytes are
 * identical to the leader's. An admitted figure or sim request gets
 * "accepted" and then one terminal "done" or "error"; one that
 * arrives while the daemon stops gets only an "error" of class
 * "shutdown".
 *
 * Robustness contract (the fuzz tests pin it): a malformed,
 * oversized, or semantically invalid request never terminates the
 * daemon or the connection — it earns a "rejected" response (with
 * id "" when no id could be recovered) and the stream stays usable.
 * Client-supplied SimConfig fields are range-clamped and then
 * checked with SimConfig::check(), so a config the timing model
 * would refuse is a per-request rejection, not a daemon abort.
 */

#ifndef RODINIA_SERVICE_PROTOCOL_HH
#define RODINIA_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/workload.hh"
#include "gpusim/simconfig.hh"

namespace rodinia {
namespace service {

/** Hard cap on one request line (newline included). Longer lines
 *  are rejected without buffering the excess. */
constexpr size_t kMaxRequestBytes = 64 * 1024;

/** Payload bytes per "chunk" response (before JSON escaping). */
constexpr size_t kChunkBytes = 16 * 1024;

// ---------------------------------------------------------------
// Minimal JSON tree (parse side of the protocol).
// ---------------------------------------------------------------

/**
 * Immutable JSON value. Covers exactly what the protocol needs —
 * null, bool, double-precision numbers, strings (with full escape
 * and BMP \uXXXX decoding), objects, arrays — with depth and size
 * limits so hostile input cannot recurse or balloon the parser.
 */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Object, Array };

    Json() = default;

    Type type() const { return ty; }
    bool isObject() const { return ty == Type::Object; }
    bool isString() const { return ty == Type::String; }
    bool isNumber() const { return ty == Type::Number; }
    bool isBool() const { return ty == Type::Bool; }

    bool boolean() const { return b; }
    double number() const { return num; }
    const std::string &string() const { return str; }
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return obj;
    }
    const std::vector<Json> &elements() const { return arr; }

    /** Member lookup (objects only); nullptr when absent. */
    const Json *get(std::string_view key) const;

    /**
     * Parse one complete JSON document. Trailing non-whitespace,
     * nesting beyond a small depth cap, or any syntax error fails
     * with a position-carrying message in @p error.
     */
    static bool parse(std::string_view text, Json &out,
                      std::string &error);

  private:
    Type ty = Type::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<std::pair<std::string, Json>> obj;
    std::vector<Json> arr;

    friend class JsonParser;
};

// ---------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------

enum class Op { Ping, Figure, Sim, Stats, Cancel };

/** One decoded request line. */
struct Request
{
    Op op = Op::Ping;
    std::string id;       //!< client request id ("" only for ping)
    std::string figure;   //!< Op::Figure: figure id, e.g. "fig1"
    std::string workload; //!< Op::Sim: registry name
    core::Scale scale = core::Scale::Full;
    int version = 0;      //!< Op::Sim: kernel version (0 = shipped)
    gpusim::SimConfig config; //!< Op::Sim: decoded + clamped config
    double deadlineMs = 0.0;  //!< 0 = server default
    std::string target;   //!< Op::Cancel: request id to cancel
};

/**
 * Decode one request line. On failure @p error describes the
 * problem and @p out.id carries whatever id could be recovered from
 * the line (so the rejection can still be routed client-side).
 * Structural validation only — figure/workload existence is the
 * server's admission decision, not the parser's.
 */
bool parseRequest(const std::string &line, Request &out,
                  std::string &error);

/**
 * Apply a client-supplied config object onto Table II defaults:
 * every member must name a SimConfig field; integer fields are
 * clamped into generous-but-sane ranges (a request for 10^9 SMs
 * becomes the cap, not an allocation bomb) and the result must pass
 * SimConfig::check(). Returns false (with @p error) for unknown
 * fields, non-numeric values, or a config check() refuses.
 */
bool decodeSimConfig(const Json &obj, gpusim::SimConfig &out,
                     std::string &error);

/** "tiny"/"small"/"full"/"paper" -> Scale; false on anything else. */
bool parseScale(const std::string &s, core::Scale &out);

// ---------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------

/** Rejection reasons (the admission-control verdicts plus parse
 *  failures). */
enum class RejectReason { Overload, Quota, BadRequest };

const char *rejectReasonName(RejectReason r);

std::string renderAccepted(const std::string &id,
                           const std::string &lane);
std::string renderRejected(const std::string &id, RejectReason reason,
                           const std::string &detail);
std::string renderChunk(const std::string &id, uint64_t seq,
                        std::string_view data);
std::string renderDone(const std::string &id, const std::string &lane,
                       uint64_t chunks, uint64_t bytes,
                       uint64_t wallUs, bool coalesced = false);
std::string renderErrorResponse(const std::string &id,
                                const std::string &errorClass,
                                const std::string &message);
std::string renderStats(const std::string &id,
                        const std::string &payload);
std::string renderPong();

} // namespace service
} // namespace rodinia

#endif // RODINIA_SERVICE_PROTOCOL_HH
