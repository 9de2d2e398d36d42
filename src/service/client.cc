#include "service/client.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "support/metrics.hh"

namespace rodinia {
namespace service {

using support::metrics::jsonEscape;

ServiceClient::~ServiceClient()
{
    close();
}

void
ServiceClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
ServiceClient::connect(const std::string &socketPath, int timeoutMs)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.empty() ||
        socketPath.size() >= sizeof(addr.sun_path))
        return false;
    std::memcpy(addr.sun_path, socketPath.c_str(),
                socketPath.size() + 1);

    auto give_up = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(timeoutMs);
    for (;;) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return false;
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            fd_ = fd;
            return true;
        }
        ::close(fd);
        if (std::chrono::steady_clock::now() >= give_up)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

bool
ServiceClient::writeAll(const std::string &bytes)
{
    if (fd_ < 0)
        return false;
    const char *p = bytes.data();
    size_t left = bytes.size();
    while (left > 0) {
        ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            close();
            return false;
        }
        p += n;
        left -= size_t(n);
    }
    return true;
}

bool
ServiceClient::sendRaw(const std::string &bytes)
{
    return writeAll(bytes);
}

bool
ServiceClient::sendPing()
{
    return writeAll("{\"op\":\"ping\"}\n");
}

bool
ServiceClient::sendFigure(const std::string &id,
                          const std::string &figure, double deadlineMs)
{
    std::string line = "{\"op\":\"figure\",\"id\":\"" +
                       jsonEscape(id) + "\",\"figure\":\"" +
                       jsonEscape(figure) + "\"";
    if (deadlineMs > 0.0)
        line += ",\"deadline_ms\":" +
                std::to_string(int64_t(deadlineMs));
    line += "}\n";
    return writeAll(line);
}

bool
ServiceClient::sendSim(const std::string &id,
                       const std::string &workload,
                       const std::string &scale,
                       const std::string &configJson, double deadlineMs,
                       int version)
{
    std::string line = "{\"op\":\"sim\",\"id\":\"" + jsonEscape(id) +
                       "\",\"workload\":\"" + jsonEscape(workload) +
                       "\"";
    if (!scale.empty())
        line += ",\"scale\":\"" + jsonEscape(scale) + "\"";
    if (version > 0)
        line += ",\"version\":" + std::to_string(version);
    if (!configJson.empty() && configJson != "{}")
        line += ",\"config\":" + configJson;
    if (deadlineMs > 0.0)
        line += ",\"deadline_ms\":" +
                std::to_string(int64_t(deadlineMs));
    line += "}\n";
    return writeAll(line);
}

bool
ServiceClient::sendStats(const std::string &id)
{
    return writeAll("{\"op\":\"stats\",\"id\":\"" + jsonEscape(id) +
                    "\"}\n");
}

bool
ServiceClient::sendCancel(const std::string &id,
                          const std::string &target)
{
    return writeAll("{\"op\":\"cancel\",\"id\":\"" + jsonEscape(id) +
                    "\",\"target\":\"" + jsonEscape(target) +
                    "\"}\n");
}

bool
ServiceClient::readLine(std::string &line)
{
    for (;;) {
        size_t nl = rbuf_.find('\n');
        if (nl != std::string::npos) {
            line = rbuf_.substr(0, nl);
            rbuf_.erase(0, nl + 1);
            return true;
        }
        if (fd_ < 0)
            return false;
        char chunk[4096];
        ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            close();
            return false;
        }
        rbuf_.append(chunk, size_t(n));
    }
}

Event
ServiceClient::readEvent()
{
    Event ev;
    std::string line;
    if (!readLine(line))
        return ev; // ConnectionLost
    Json root;
    std::string error;
    if (!Json::parse(line, root, error) || !root.isObject()) {
        ev.type = Event::Type::Malformed;
        return ev;
    }

    auto str = [&](const char *key) -> std::string {
        const Json *v = root.get(key);
        return v && v->isString() ? v->string() : "";
    };
    auto num = [&](const char *key) -> uint64_t {
        const Json *v = root.get(key);
        return v && v->isNumber() && v->number() >= 0.0
                   ? uint64_t(v->number())
                   : 0;
    };

    ev.id = str("id");
    std::string type = str("type");
    if (type == "accepted") {
        ev.type = Event::Type::Accepted;
        ev.lane = str("lane");
    } else if (type == "rejected") {
        ev.type = Event::Type::Rejected;
        ev.reason = str("reason");
        ev.detail = str("detail");
    } else if (type == "chunk") {
        ev.type = Event::Type::Chunk;
        ev.seq = num("seq");
        ev.data = str("data");
    } else if (type == "done") {
        ev.type = Event::Type::Done;
        ev.lane = str("lane");
        ev.bytes = num("bytes");
        ev.wallUs = num("wall_us");
        ev.coalesced = num("coalesced") != 0;
    } else if (type == "error") {
        ev.type = Event::Type::Error;
        ev.errorClass = str("class");
        ev.detail = str("message");
    } else if (type == "stats") {
        ev.type = Event::Type::Stats;
        ev.data = str("data");
    } else if (type == "pong") {
        ev.type = Event::Type::Pong;
    } else {
        ev.type = Event::Type::Malformed;
    }
    return ev;
}

Outcome
ServiceClient::await(const std::string &id)
{
    Outcome out;
    auto consume = [&](const Event &ev) -> bool {
        // Returns true when ev terminates request `id`.
        switch (ev.type) {
        case Event::Type::Accepted:
            out.lane = ev.lane;
            return false;
        case Event::Type::Chunk:
            partial_[id] += ev.data;
            return false;
        case Event::Type::Done:
            out.status = Outcome::Status::Served;
            out.lane = ev.lane;
            out.serverWallUs = ev.wallUs;
            out.coalesced = ev.coalesced;
            out.payload = std::move(partial_[id]);
            partial_.erase(id);
            return true;
        case Event::Type::Rejected:
            out.status = Outcome::Status::Rejected;
            out.reason = ev.reason;
            out.detail = ev.detail;
            return true;
        case Event::Type::Error:
            out.status = Outcome::Status::Error;
            out.errorClass = ev.errorClass;
            out.detail = ev.detail;
            return true;
        case Event::Type::Stats:
            out.status = Outcome::Status::Served;
            out.payload = ev.data;
            return true;
        case Event::Type::Pong:
        case Event::Type::Malformed:
        case Event::Type::ConnectionLost:
            return false;
        }
        return false;
    };

    // Replay anything already buffered for this id.
    for (size_t i = 0; i < pending_.size();) {
        if (pending_[i].id != id) {
            ++i;
            continue;
        }
        Event ev = pending_[i];
        pending_.erase(pending_.begin() + long(i));
        if (consume(ev))
            return out;
    }
    for (;;) {
        Event ev = readEvent();
        if (ev.type == Event::Type::ConnectionLost) {
            out.status = Outcome::Status::Lost;
            return out;
        }
        // One unintelligible line is not a lost connection: skip it
        // and keep waiting for this request's terminal response.
        if (ev.type == Event::Type::Malformed)
            continue;
        if (ev.id == id) {
            if (consume(ev))
                return out;
        } else if (!ev.id.empty()) {
            pending_.push_back(std::move(ev));
        }
    }
}

} // namespace service
} // namespace rodinia
