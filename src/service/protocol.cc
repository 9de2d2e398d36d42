#include "service/protocol.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/metrics.hh"

namespace rodinia {
namespace service {

using support::metrics::jsonEscape;

// ---------------------------------------------------------------
// JSON parsing.
// ---------------------------------------------------------------

const Json *
Json::get(std::string_view key) const
{
    for (const auto &[k, v] : obj)
        if (k == key)
            return &v;
    return nullptr;
}

/**
 * Recursive-descent parser over a string_view. Bounded: nesting is
 * capped (the protocol needs two levels), and every loop consumes at
 * least one byte, so parse time is linear in the input — both matter
 * because this runs on untrusted client bytes.
 */
class JsonParser
{
  public:
    JsonParser(std::string_view text, std::string &error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(Json &out)
    {
        skipWs();
        if (!value(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing bytes after JSON value");
        return true;
    }

  private:
    /** Requests nest at most 2 levels (a sim's "config" object and
     *  its fields), but clients parse the /stats payload (metrics
     *  histograms nest to ~8) with this same parser, so the cap
     *  leaves headroom over both. */
    static constexpr int kMaxDepth = 16;

    std::string_view text_;
    std::string &error_;
    size_t pos_ = 0;

    bool
    fail(const std::string &msg)
    {
        std::ostringstream os;
        os << msg << " at byte " << pos_;
        error_ = os.str();
        return false;
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    skipWs()
    {
        while (!atEnd() && (peek() == ' ' || peek() == '\t' ||
                            peek() == '\r' || peek() == '\n'))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("invalid literal");
        pos_ += word.size();
        return true;
    }

    bool
    value(Json &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (atEnd())
            return fail("unexpected end of input");
        switch (peek()) {
        case '{':
            return object(out, depth);
        case '[':
            return array(out, depth);
        case '"':
            out.ty = Json::Type::String;
            return string(out.str);
        case 't':
            out.ty = Json::Type::Bool;
            out.b = true;
            return literal("true");
        case 'f':
            out.ty = Json::Type::Bool;
            out.b = false;
            return literal("false");
        case 'n':
            out.ty = Json::Type::Null;
            return literal("null");
        default:
            return number(out);
        }
    }

    bool
    object(Json &out, int depth)
    {
        out.ty = Json::Type::Object;
        ++pos_; // '{'
        skipWs();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (atEnd() || peek() != '"')
                return fail("expected object key");
            std::string key;
            if (!string(key))
                return false;
            // Duplicate keys are a protocol error: silently keeping
            // either copy would make request meaning depend on
            // parser internals.
            for (const auto &[k, v] : out.obj)
                if (k == key)
                    return fail("duplicate key '" + key + "'");
            skipWs();
            if (atEnd() || peek() != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            Json member;
            if (!value(member, depth + 1))
                return false;
            out.obj.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (atEnd())
                return fail("unterminated object");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(Json &out, int depth)
    {
        out.ty = Json::Type::Array;
        ++pos_; // '['
        skipWs();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            Json elem;
            if (!value(elem, depth + 1))
                return false;
            out.arr.push_back(std::move(elem));
            skipWs();
            if (atEnd())
                return fail("unterminated array");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    hex4(unsigned &out)
    {
        out = 0;
        for (int i = 0; i < 4; ++i) {
            if (atEnd())
                return fail("truncated \\u escape");
            char c = peek();
            unsigned digit;
            if (c >= '0' && c <= '9')
                digit = unsigned(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = unsigned(c - 'a') + 10;
            else if (c >= 'A' && c <= 'F')
                digit = unsigned(c - 'A') + 10;
            else
                return fail("bad \\u escape digit");
            out = out * 16 + digit;
            ++pos_;
        }
        return true;
    }

    bool
    string(std::string &out)
    {
        ++pos_; // '"'
        out.clear();
        while (!atEnd()) {
            char c = peek();
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character");
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            ++pos_; // '\\'
            if (atEnd())
                return fail("truncated escape");
            char e = peek();
            ++pos_;
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                unsigned cp;
                if (!hex4(cp))
                    return false;
                // BMP only; surrogate halves have no standalone
                // meaning and the protocol never emits them.
                if (cp >= 0xd800 && cp <= 0xdfff)
                    return fail("surrogate \\u escape unsupported");
                if (cp < 0x80) {
                    out += char(cp);
                } else if (cp < 0x800) {
                    out += char(0xc0 | (cp >> 6));
                    out += char(0x80 | (cp & 0x3f));
                } else {
                    out += char(0xe0 | (cp >> 12));
                    out += char(0x80 | ((cp >> 6) & 0x3f));
                    out += char(0x80 | (cp & 0x3f));
                }
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    number(Json &out)
    {
        size_t start = pos_;
        if (!atEnd() && peek() == '-')
            ++pos_;
        while (!atEnd() && ((peek() >= '0' && peek() <= '9') ||
                            peek() == '.' || peek() == 'e' ||
                            peek() == 'E' || peek() == '+' ||
                            peek() == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected value");
        std::string text(text_.substr(start, pos_ - start));
        char *end = nullptr;
        double v = std::strtod(text.c_str(), &end);
        if (end != text.c_str() + text.size() || !std::isfinite(v)) {
            pos_ = start;
            return fail("malformed number");
        }
        out.ty = Json::Type::Number;
        out.num = v;
        return true;
    }
};

bool
Json::parse(std::string_view text, Json &out, std::string &error)
{
    out = Json();
    JsonParser p(text, error);
    return p.parse(out);
}

// ---------------------------------------------------------------
// Request decoding.
// ---------------------------------------------------------------

bool
parseScale(const std::string &s, core::Scale &out)
{
    if (s == "tiny")
        out = core::Scale::Tiny;
    else if (s == "small")
        out = core::Scale::Small;
    else if (s == "full")
        out = core::Scale::Full;
    else if (s == "paper")
        out = core::Scale::Paper;
    else
        return false;
    return true;
}

namespace {

/**
 * Read a JSON number as an integer clamped into [lo, hi]. Rejects
 * non-numbers; fractional parts are truncated (the protocol treats
 * every architectural parameter as integral).
 */
bool
clampedInt(const Json &v, long long lo, long long hi, long long &out)
{
    if (!v.isNumber())
        return false;
    double d = v.number();
    if (d < double(lo))
        d = double(lo);
    if (d > double(hi))
        d = double(hi);
    out = (long long)(d);
    return true;
}

bool
clampedDouble(const Json &v, double lo, double hi, double &out)
{
    if (!v.isNumber())
        return false;
    out = std::min(hi, std::max(lo, v.number()));
    return true;
}

} // namespace

bool
decodeSimConfig(const Json &obj, gpusim::SimConfig &out,
                std::string &error)
{
    if (!obj.isObject()) {
        error = "config must be an object";
        return false;
    }
    gpusim::SimConfig cfg; // Table II defaults
    for (const auto &[key, v] : obj.members()) {
        long long i = 0;
        double d = 0.0;
        bool ok;
        // Clamp ranges are deliberately generous — they bound
        // resource use (allocation, sim time), not architectural
        // taste; check() below enforces the model's real rules.
        if (key == "numSms")
            ok = clampedInt(v, 1, 4096, i), cfg.numSms = int(i);
        else if (key == "warpSize")
            ok = clampedInt(v, 1, 32, i), cfg.warpSize = int(i);
        else if (key == "simdWidth")
            ok = clampedInt(v, 1, 64, i), cfg.simdWidth = int(i);
        else if (key == "maxThreadsPerSm")
            ok = clampedInt(v, 1, 65536, i),
            cfg.maxThreadsPerSm = int(i);
        else if (key == "maxCtasPerSm")
            ok = clampedInt(v, 1, 256, i), cfg.maxCtasPerSm = int(i);
        else if (key == "regFileSize")
            ok = clampedInt(v, 1, 1 << 22, i),
            cfg.regFileSize = int(i);
        else if (key == "regsPerThread")
            ok = clampedInt(v, 1, 256, i), cfg.regsPerThread = int(i);
        else if (key == "sharedMemPerSm")
            ok = clampedInt(v, 0, 16 << 20, i),
            cfg.sharedMemPerSm = uint64_t(i);
        else if (key == "bankConflictsEnabled")
            ok = v.isBool(), cfg.bankConflictsEnabled = v.boolean();
        else if (key == "sharedBanks")
            ok = clampedInt(v, 1, 256, i), cfg.sharedBanks = int(i);
        else if (key == "coreClockGhz")
            ok = clampedDouble(v, 0.001, 100.0, d),
            cfg.coreClockGhz = d;
        else if (key == "memClockGhz")
            ok = clampedDouble(v, 0.001, 100.0, d),
            cfg.memClockGhz = d;
        else if (key == "addressAluPerMem")
            ok = clampedInt(v, 0, 64, i), cfg.addressAluPerMem = int(i);
        else if (key == "numChannels")
            ok = clampedInt(v, 1, 1024, i), cfg.numChannels = int(i);
        else if (key == "dramBusBytes")
            ok = clampedInt(v, 1, 1024, i), cfg.dramBusBytes = int(i);
        else if (key == "coalesceBytes")
            ok = clampedInt(v, 1, 4096, i), cfg.coalesceBytes = int(i);
        else if (key == "gmemLatencyCycles")
            ok = clampedInt(v, 0, 1 << 20, i),
            cfg.gmemLatencyCycles = int(i);
        else if (key == "launchOverheadCycles")
            ok = clampedInt(v, 0, 1 << 20, i),
            cfg.launchOverheadCycles = int(i);
        else if (key == "texCacheBytes")
            ok = clampedInt(v, 1, 256 << 20, i),
            cfg.texCacheBytes = uint64_t(i);
        else if (key == "constCacheBytes")
            ok = clampedInt(v, 1, 256 << 20, i),
            cfg.constCacheBytes = uint64_t(i);
        else if (key == "texHitLatency")
            ok = clampedInt(v, 0, 1 << 16, i),
            cfg.texHitLatency = int(i);
        else if (key == "constHitLatency")
            ok = clampedInt(v, 0, 1 << 16, i),
            cfg.constHitLatency = int(i);
        else if (key == "l1Enabled")
            ok = v.isBool(), cfg.l1Enabled = v.boolean();
        else if (key == "l1Bytes")
            ok = clampedInt(v, 0, 256 << 20, i),
            cfg.l1Bytes = uint64_t(i);
        else if (key == "l1LineBytes")
            ok = clampedInt(v, 1, 4096, i), cfg.l1LineBytes = int(i);
        else if (key == "l1HitLatency")
            ok = clampedInt(v, 0, 1 << 16, i),
            cfg.l1HitLatency = int(i);
        else if (key == "l2Enabled")
            ok = v.isBool(), cfg.l2Enabled = v.boolean();
        else if (key == "l2Bytes")
            ok = clampedInt(v, 0, 1 << 30, i),
            cfg.l2Bytes = uint64_t(i);
        else if (key == "l2LineBytes")
            ok = clampedInt(v, 1, 4096, i), cfg.l2LineBytes = int(i);
        else if (key == "l2HitLatency")
            ok = clampedInt(v, 0, 1 << 16, i),
            cfg.l2HitLatency = int(i);
        else {
            error = "unknown config field '" + key + "'";
            return false;
        }
        if (!ok) {
            error = "config field '" + key + "' has the wrong type";
            return false;
        }
    }
    if (std::string err = cfg.check(); !err.empty()) {
        error = "invalid config: " + err;
        return false;
    }
    out = cfg;
    return true;
}

bool
parseRequest(const std::string &line, Request &out, std::string &error)
{
    out = Request();
    if (line.size() > kMaxRequestBytes) {
        error = "request exceeds " +
                std::to_string(kMaxRequestBytes) + " bytes";
        return false;
    }
    Json root;
    if (!Json::parse(line, root, error))
        return false;
    if (!root.isObject()) {
        error = "request must be a JSON object";
        return false;
    }
    // Recover the id first so even a rejected request can be routed.
    if (const Json *id = root.get("id"); id && id->isString())
        out.id = id->string();

    const Json *op = root.get("op");
    if (!op || !op->isString()) {
        error = "missing 'op'";
        return false;
    }
    const std::string &opName = op->string();
    if (opName == "ping")
        out.op = Op::Ping;
    else if (opName == "figure")
        out.op = Op::Figure;
    else if (opName == "sim")
        out.op = Op::Sim;
    else if (opName == "stats")
        out.op = Op::Stats;
    else if (opName == "cancel")
        out.op = Op::Cancel;
    else {
        error = "unknown op '" + opName + "'";
        return false;
    }

    // Per-op key whitelist: a typoed key must not silently become
    // "use the default", and a key that belongs to a *different* op
    // ("scale" on a figure request, "target" on a sim) must not be
    // silently dropped either.
    auto keyAllowed = [&](const std::string &key) {
        if (key == "op" || key == "id")
            return true;
        switch (out.op) {
        case Op::Ping:
        case Op::Stats:
            return false;
        case Op::Figure:
            return key == "figure" || key == "deadline_ms";
        case Op::Sim:
            return key == "workload" || key == "scale" ||
                   key == "version" || key == "config" ||
                   key == "deadline_ms";
        case Op::Cancel:
            return key == "target";
        }
        return false;
    };
    for (const auto &[key, v] : root.members()) {
        (void)v;
        if (!keyAllowed(key)) {
            error = "request field '" + key + "' is not valid for op '" +
                    opName + "'";
            return false;
        }
    }

    if (out.op != Op::Ping && out.id.empty()) {
        error = "missing 'id'";
        return false;
    }

    if (const Json *dl = root.get("deadline_ms")) {
        if (!dl->isNumber() || dl->number() < 0.0 ||
            dl->number() > 86400000.0) {
            error = "deadline_ms must be in [0, 86400000]";
            return false;
        }
        out.deadlineMs = dl->number();
    }

    switch (out.op) {
    case Op::Ping:
    case Op::Stats:
        break;
    case Op::Figure: {
        const Json *fig = root.get("figure");
        if (!fig || !fig->isString() || fig->string().empty()) {
            error = "figure request needs a 'figure' id";
            return false;
        }
        out.figure = fig->string();
        break;
    }
    case Op::Sim: {
        const Json *wl = root.get("workload");
        if (!wl || !wl->isString() || wl->string().empty()) {
            error = "sim request needs a 'workload' name";
            return false;
        }
        out.workload = wl->string();
        if (const Json *sc = root.get("scale")) {
            if (!sc->isString() ||
                !parseScale(sc->string(), out.scale)) {
                error = "scale must be tiny|small|full|paper";
                return false;
            }
        }
        if (const Json *ver = root.get("version")) {
            long long v = 0;
            if (!clampedInt(*ver, 0, 64, v)) {
                error = "version must be a number";
                return false;
            }
            out.version = int(v);
        }
        if (const Json *cfg = root.get("config")) {
            if (!decodeSimConfig(*cfg, out.config, error))
                return false;
        }
        break;
    }
    case Op::Cancel: {
        const Json *t = root.get("target");
        if (!t || !t->isString() || t->string().empty()) {
            error = "cancel request needs a 'target' id";
            return false;
        }
        out.target = t->string();
        break;
    }
    }
    return true;
}

// ---------------------------------------------------------------
// Response rendering.
// ---------------------------------------------------------------

const char *
rejectReasonName(RejectReason r)
{
    switch (r) {
    case RejectReason::Overload: return "overload";
    case RejectReason::Quota: return "quota";
    case RejectReason::BadRequest: return "bad-request";
    }
    return "?";
}

std::string
renderAccepted(const std::string &id, const std::string &lane)
{
    return "{\"id\":\"" + jsonEscape(id) +
           "\",\"type\":\"accepted\",\"lane\":\"" + jsonEscape(lane) +
           "\"}\n";
}

std::string
renderRejected(const std::string &id, RejectReason reason,
               const std::string &detail)
{
    return "{\"id\":\"" + jsonEscape(id) +
           "\",\"type\":\"rejected\",\"reason\":\"" +
           rejectReasonName(reason) + "\",\"detail\":\"" +
           jsonEscape(detail) + "\"}\n";
}

std::string
renderChunk(const std::string &id, uint64_t seq, std::string_view data)
{
    std::string out = "{\"id\":\"" + jsonEscape(id) +
                      "\",\"type\":\"chunk\",\"seq\":" +
                      std::to_string(seq) + ",\"data\":\"";
    out += jsonEscape(data);
    out += "\"}\n";
    return out;
}

std::string
renderDone(const std::string &id, const std::string &lane,
           uint64_t chunks, uint64_t bytes, uint64_t wallUs,
           bool coalesced)
{
    return "{\"id\":\"" + jsonEscape(id) +
           "\",\"type\":\"done\",\"lane\":\"" + jsonEscape(lane) +
           "\",\"chunks\":" + std::to_string(chunks) +
           ",\"bytes\":" + std::to_string(bytes) +
           ",\"wall_us\":" + std::to_string(wallUs) +
           ",\"coalesced\":" + (coalesced ? "1" : "0") + "}\n";
}

std::string
renderErrorResponse(const std::string &id,
                    const std::string &errorClass,
                    const std::string &message)
{
    return "{\"id\":\"" + jsonEscape(id) +
           "\",\"type\":\"error\",\"class\":\"" +
           jsonEscape(errorClass) + "\",\"message\":\"" +
           jsonEscape(message) + "\"}\n";
}

std::string
renderStats(const std::string &id, const std::string &payload)
{
    return "{\"id\":\"" + jsonEscape(id) +
           "\",\"type\":\"stats\",\"data\":\"" + jsonEscape(payload) +
           "\"}\n";
}

std::string
renderPong()
{
    return "{\"type\":\"pong\"}\n";
}

} // namespace service
} // namespace rodinia
