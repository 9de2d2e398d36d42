#include "service/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "driver/context.hh"
#include "driver/executor.hh"
#include "driver/failure.hh"
#include "driver/figures.hh"
#include "driver/result_store.hh"
#include "driver/tracing.hh"
#include "service/protocol.hh"
#include "support/cancel.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace rodinia {
namespace service {

namespace metrics = support::metrics;
using Clock = std::chrono::steady_clock;

namespace {

uint64_t
elapsedUs(Clock::time_point from, Clock::time_point to)
{
    return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                        to - from)
                        .count());
}

/** Error class for a cancellation, recovered from the token reason's
 *  prefix (the deadline, client cancel, and shutdown each stamp
 *  their own). */
const char *
cancelClass(const std::string &reason)
{
    return reason.rfind("deadline:", 0) == 0    ? "deadline"
           : reason.rfind("shutdown:", 0) == 0 ? "shutdown"
                                               : "cancelled";
}

} // namespace

// ---------------------------------------------------------------
// Impl
// ---------------------------------------------------------------

struct ExperimentService::Impl
{
    explicit Impl(const ServiceConfig &cfg)
        : config(cfg), store(cfg.cacheDir, cfg.cacheEnabled),
          executor(cfg.executorThreads), ctx(&store, &executor),
          admission(cfg.admission)
    {
        core::registerAllWorkloads();
    }

    // ---- connection state -------------------------------------

    struct Conn
    {
        int fd = -1;
        std::string client; //!< "c<N>"
        std::mutex writeMu;
        std::atomic<bool> open{true};
        std::atomic<bool> readerDone{false};
        std::thread reader;

        /** Runs only after the last shared_ptr holder (reader
         *  thread, conns list, queued Tasks) drops, so closing here
         *  is what keeps a long-lived daemon from leaking one fd per
         *  disconnected client until EMFILE kills accept(). */
        ~Conn()
        {
            if (fd >= 0)
                ::close(fd);
        }

        /** Serialize one response line onto the socket. Returns
         *  false (and latches the connection closed) on any write
         *  error — a vanished client stops costing us syscalls. */
        bool
        write(const std::string &line)
        {
            std::lock_guard<std::mutex> lock(writeMu);
            return writeLocked(line);
        }

        /** write() for a caller that already holds writeMu. */
        bool
        writeLocked(const std::string &line)
        {
            if (!open.load(std::memory_order_acquire))
                return false;
            const char *p = line.data();
            size_t left = line.size();
            while (left > 0) {
                ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
                if (n < 0) {
                    if (errno == EINTR)
                        continue;
                    open.store(false, std::memory_order_release);
                    return false;
                }
                p += n;
                left -= size_t(n);
            }
            return true;
        }
    };

    // ---- one admitted unit of work ----------------------------

    struct Task
    {
        std::shared_ptr<Conn> conn;
        std::string id;
        Op op = Op::Figure;
        const driver::FigureDef *figure = nullptr;
        std::string workload;
        core::Scale scale = core::Scale::Full;
        int version = 0;
        gpusim::SimConfig simConfig;
        Lane lane = Lane::Cold;
        std::shared_ptr<support::CancelToken> token;
        Clock::time_point accepted;
    };

    ServiceConfig config;
    driver::ResultStore store;
    driver::Executor executor;
    driver::Context ctx;
    AdmissionController admission;

    std::atomic<bool> running{false};
    std::atomic<uint64_t> connCounter{0};
    int listenFd = -1;
    std::thread acceptThread;
    std::vector<std::thread> workers;

    std::mutex connsMu;
    std::vector<std::shared_ptr<Conn>> conns;

    std::mutex queueMu;
    std::condition_variable queueCv;
    std::deque<Task> queues[2]; //!< [0]=warm, [1]=cold; FIFO

    /** The cancel token of every admitted-but-unfinished request,
     *  addressed by (connection, request id). */
    std::mutex inflightMu;
    std::map<std::pair<std::string, std::string>,
             std::shared_ptr<support::CancelToken>>
        inflight;

    // ---- lifecycle --------------------------------------------

    bool bind();
    void acceptLoop();
    void readerLoop(const std::shared_ptr<Conn> &conn);
    void workerLoop(Lane lane);

    // ---- request handling -------------------------------------

    void handleLine(const std::shared_ptr<Conn> &conn,
                    const std::string &line);
    void handleStats(const std::shared_ptr<Conn> &conn,
                     const Request &req);
    void handleCancel(const std::shared_ptr<Conn> &conn,
                      const Request &req);
    void handleWork(const std::shared_ptr<Conn> &conn,
                    const Request &req);
    void execute(Task &task);
    void streamPayload(Task &task, const std::string &payload,
                       bool coalesced);
    void finishError(Task &task, const std::string &cls,
                     const std::string &message);


    void eraseInflight(const Conn &conn, const std::string &id);
    void cancelConnection(const Conn &conn, const std::string &why);
};

// ---------------------------------------------------------------
// Socket plumbing
// ---------------------------------------------------------------

bool
ExperimentService::Impl::bind()
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config.socketPath.empty() ||
        config.socketPath.size() >= sizeof(addr.sun_path)) {
        warn("service: socket path '", config.socketPath,
             "' is empty or longer than ", sizeof(addr.sun_path) - 1,
             " bytes");
        return false;
    }
    std::memcpy(addr.sun_path, config.socketPath.c_str(),
                config.socketPath.size() + 1);

    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0) {
        warn("service: socket(): ", std::strerror(errno));
        return false;
    }
    // A stale socket file from a dead daemon would make bind fail
    // forever; unlinking is safe because a *live* daemon would still
    // own the listening inode.
    ::unlink(config.socketPath.c_str());
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd, 64) != 0) {
        warn("service: cannot listen on '", config.socketPath,
             "': ", std::strerror(errno));
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    return true;
}

void
ExperimentService::Impl::acceptLoop()
{
    while (running.load(std::memory_order_acquire)) {
        pollfd pfd{listenFd, POLLIN, 0};
        if (::poll(&pfd, 1, 100) <= 0 || !(pfd.revents & POLLIN))
            continue;
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conn->client = std::string("c").append(
            std::to_string(connCounter.fetch_add(1) + 1));
        metrics::count("service.connections");
        if (config.verbose)
            warn("service: accepted ", conn->client);
        conn->reader = std::thread([this, conn] { readerLoop(conn); });
        std::lock_guard<std::mutex> lock(connsMu);
        // Reap connections whose readers already finished so a
        // long-lived daemon doesn't accumulate one zombie thread
        // object per historical client.
        for (auto it = conns.begin(); it != conns.end();) {
            if ((*it)->readerDone.load(std::memory_order_acquire)) {
                (*it)->reader.join();
                it = conns.erase(it);
            } else {
                ++it;
            }
        }
        conns.push_back(std::move(conn));
    }
}

void
ExperimentService::Impl::readerLoop(const std::shared_ptr<Conn> &conn)
{
    std::string buf;
    bool discarding = false;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        size_t start = 0;
        for (ssize_t i = 0; i < n; ++i) {
            if (chunk[i] != '\n')
                continue;
            if (discarding) {
                // Tail of an oversized line: drop it and resume
                // normal framing at the next byte.
                discarding = false;
            } else {
                buf.append(chunk + start, size_t(i) - start);
                handleLine(conn, buf);
            }
            buf.clear();
            start = size_t(i) + 1;
        }
        if (!discarding) {
            buf.append(chunk + start, size_t(n) - start);
            if (buf.size() > kMaxRequestBytes) {
                metrics::count("service.oversized_lines");
                conn->write(renderRejected(
                    "", RejectReason::BadRequest,
                    "request line exceeds " +
                        std::to_string(kMaxRequestBytes) +
                        " bytes"));
                buf.clear();
                discarding = true;
            }
        }
    }
    // A request line truncated by the disconnect is dropped, not
    // parsed — half a request must not execute.
    conn->open.store(false, std::memory_order_release);
    cancelConnection(*conn, "client disconnected");
    if (config.verbose)
        warn("service: ", conn->client, " disconnected");
    conn->readerDone.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------
// Request handling (reader thread)
// ---------------------------------------------------------------

void
ExperimentService::Impl::handleLine(const std::shared_ptr<Conn> &conn,
                                    const std::string &line)
{
    if (line.empty() ||
        line.find_first_not_of(" \t\r") == std::string::npos)
        return; // blank keep-alive line
    Request req;
    std::string error;
    if (!parseRequest(line, req, error)) {
        metrics::count("service.bad_requests");
        conn->write(
            renderRejected(req.id, RejectReason::BadRequest, error));
        return;
    }
    switch (req.op) {
    case Op::Ping:
        conn->write(renderPong());
        return;
    case Op::Stats:
        handleStats(conn, req);
        return;
    case Op::Cancel:
        handleCancel(conn, req);
        return;
    case Op::Figure:
    case Op::Sim:
        handleWork(conn, req);
        return;
    }
}

void
ExperimentService::Impl::handleStats(const std::shared_ptr<Conn> &conn,
                                     const Request &req)
{
    // One JSON object: the controller's per-client accounting, live
    // queue depths, and the full metrics registry (PR 5) embedded as
    // its own sub-object. Rendered inline on the reader thread so
    // stats stay available while every worker is busy.
    std::ostringstream os;
    os << "{\"clients\":{";
    bool firstClient = true;
    for (const auto &[client, cs] : admission.snapshot()) {
        if (!firstClient)
            os << ",";
        firstClient = false;
        os << "\"" << metrics::jsonEscape(client) << "\":{"
           << "\"admitted\":" << cs.admitted
           << ",\"rejected_overload\":" << cs.rejectedOverload
           << ",\"rejected_quota\":" << cs.rejectedQuota
           << ",\"served\":" << cs.served
           << ",\"failed\":" << cs.failed
           << ",\"in_flight\":" << cs.inFlight << "}";
    }
    os << "},\"queue\":{\"warm\":" << admission.queueDepth(Lane::Warm)
       << ",\"cold\":" << admission.queueDepth(Lane::Cold) << "}";
    os << ",\"sim_flights\":" << ctx.simFlightsInFlight();
    os << ",\"metrics\":"
       << metrics::Registry::global().snapshot().renderJson() << "}";
    conn->write(renderStats(req.id, os.str()));
}

void
ExperimentService::Impl::handleCancel(
    const std::shared_ptr<Conn> &conn, const Request &req)
{
    bool found = false;
    {
        std::lock_guard<std::mutex> lock(inflightMu);
        auto it = inflight.find({conn->client, req.target});
        if (it != inflight.end()) {
            found = true;
            it->second->cancel("cancel: request '" + req.target +
                               "' cancelled by client");
        }
    }
    if (found) {
        metrics::count("service.cancels");
        conn->write(renderDone(req.id, "cancel", 0, 0, 0));
    } else {
        conn->write(renderRejected(
            req.id, RejectReason::BadRequest,
            "no in-flight request '" + req.target + "'"));
    }
}

void
ExperimentService::Impl::handleWork(const std::shared_ptr<Conn> &conn,
                                    const Request &req)
{
    Task task;
    task.conn = conn;
    task.id = req.id;
    task.op = req.op;

    if (req.op == Op::Figure) {
        task.figure = driver::findFigure(req.figure);
        if (!task.figure) {
            conn->write(renderRejected(
                req.id, RejectReason::BadRequest,
                "unknown figure '" + req.figure + "'"));
            return;
        }
        task.lane = driver::figureWarm(*task.figure, ctx) ? Lane::Warm
                                                          : Lane::Cold;
    } else {
        auto &reg = core::Registry::instance();
        if (!reg.has(req.workload)) {
            conn->write(renderRejected(
                req.id, RejectReason::BadRequest,
                "unknown workload '" + req.workload + "'"));
            return;
        }
        int versions = reg.create(req.workload)->gpuVersions();
        if (versions < 1) {
            conn->write(renderRejected(
                req.id, RejectReason::BadRequest,
                "workload '" + req.workload +
                    "' has no GPU implementation"));
            return;
        }
        if (req.version > versions) {
            conn->write(renderRejected(
                req.id, RejectReason::BadRequest,
                "workload '" + req.workload + "' has " +
                    std::to_string(versions) + " version(s)"));
            return;
        }
        task.workload = req.workload;
        task.scale = req.scale;
        task.version = req.version;
        task.simConfig = req.config;
        task.lane = ctx.gpuStatsWarm(req.workload, req.scale,
                                     req.version, req.config)
                        ? Lane::Warm
                        : Lane::Cold;
    }

    // One live request per (client, id): a reused id would make
    // cancel and response routing ambiguous.
    {
        std::lock_guard<std::mutex> lock(inflightMu);
        if (inflight.count({conn->client, req.id})) {
            conn->write(renderRejected(
                req.id, RejectReason::BadRequest,
                "request id '" + req.id + "' already in flight"));
            return;
        }
    }

    switch (admission.admit(conn->client, task.lane)) {
    case Verdict::RejectOverload:
        conn->write(renderRejected(req.id, RejectReason::Overload,
                                   std::string(laneName(task.lane)) +
                                       " queue is full"));
        return;
    case Verdict::RejectQuota:
        conn->write(renderRejected(
            req.id, RejectReason::Quota,
            "client has " +
                std::to_string(admission.policy().perClientInFlight) +
                " requests in flight"));
        return;
    case Verdict::Admit:
        break;
    }

    task.accepted = Clock::now();
    // The deadline counts from admission, so time spent queued is
    // charged to it. Like the executor's, the reason quotes the
    // request id, not the measured elapsed time, so error messages
    // stay deterministic.
    task.token =
        req.deadlineMs > 0.0
            ? std::make_shared<support::CancelToken>(
                  task.accepted + std::chrono::microseconds(
                                      int64_t(req.deadlineMs * 1e3)),
                  "deadline: request '" + req.id +
                      "' exceeded its deadline")
            : std::make_shared<support::CancelToken>();
    {
        std::lock_guard<std::mutex> lock(inflightMu);
        inflight.emplace(std::make_pair(conn->client, req.id),
                         task.token);
    }
    // Queue only while the workers still run: they read `running`
    // under queueMu before they exit, so a queued task is always
    // popped. The connection's write lock, held until "accepted" is
    // sent, keeps a worker from answering the task before that.
    std::unique_lock<std::mutex> writeLock(conn->writeMu, std::defer_lock);
    std::unique_lock<std::mutex> queueLock(queueMu, std::defer_lock);
    std::lock(writeLock, queueLock);
    if (running.load(std::memory_order_acquire)) {
        Lane lane = task.lane;
        queues[lane == Lane::Warm ? 0 : 1].push_back(std::move(task));
        queueLock.unlock();
        queueCv.notify_all();
        conn->writeLocked(renderAccepted(req.id, laneName(lane)));
        return;
    }
    queueLock.unlock();
    writeLock.unlock();
    eraseInflight(*conn, req.id);
    admission.started(task.lane);
    admission.finish(conn->client, task.lane, false);
    finishError(task, "shutdown", "shutdown: service stopping");
}

// ---------------------------------------------------------------
// Lane workers
// ---------------------------------------------------------------

void
ExperimentService::Impl::workerLoop(Lane lane)
{
    size_t qi = lane == Lane::Warm ? 0 : 1;
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(queueMu);
            queueCv.wait(lock, [&] {
                return !queues[qi].empty() ||
                       !running.load(std::memory_order_acquire);
            });
            if (queues[qi].empty()) {
                if (!running.load(std::memory_order_acquire))
                    return;
                continue;
            }
            task = std::move(queues[qi].front());
            queues[qi].pop_front();
        }
        admission.started(lane);
        execute(task);
    }
}

void
ExperimentService::Impl::streamPayload(Task &task,
                                       const std::string &payload,
                                       bool coalesced)
{
    uint64_t seq = 0;
    for (size_t off = 0; off < payload.size(); off += kChunkBytes) {
        if (!task.conn->write(renderChunk(
                task.id, seq,
                std::string_view(payload).substr(off, kChunkBytes))))
            return; // client gone; finish() still runs in execute()
        ++seq;
    }
    uint64_t wallUs = elapsedUs(task.accepted, Clock::now());
    task.conn->write(renderDone(task.id, laneName(task.lane), seq,
                                payload.size(), wallUs, coalesced));
    metrics::observeLabeled("service.latency_us",
                            task.conn->client + "/" +
                                laneName(task.lane),
                            wallUs);
}

void
ExperimentService::Impl::finishError(Task &task,
                                     const std::string &cls,
                                     const std::string &message)
{
    task.conn->write(renderErrorResponse(task.id, cls, message));
    metrics::countLabeled("service.errors",
                          task.conn->client + "/" + cls, 1);
}

void
ExperimentService::Impl::execute(Task &task)
{
    auto t0 = Clock::now();
    metrics::observeLabeled("service.queue_wait_us",
                            laneName(task.lane),
                            elapsedUs(task.accepted, t0));
    bool served = false;
    bool coalesced = false;
    std::string spanWhat =
        task.op == Op::Figure ? task.figure->id : task.workload;
    std::string payload, errCls, errMsg;
    // Cancelled or past its deadline while queued (deadline, client
    // cancel, teardown): answer without touching the Context at all.
    if (task.token->cancelled()) {
        errCls = cancelClass(task.token->reason());
        errMsg = task.token->reason();
    } else {
        support::CancelScope scope(task.token.get());
        try {
            // A sim goes through the Context's gpuStats memo, which
            // runs each (workload, scale, version, fingerprint) key
            // once: a request that finds the key's simulation running
            // joins it (coalesced) and gets the same bytes, or that
            // simulation's error class if it fails, and its own
            // cancel or deadline unwinds only itself.
            if (task.op == Op::Figure)
                payload = driver::buildFigure(*task.figure, ctx);
            else
                payload = gpusim::serializeKernelStats(
                    ctx.gpuStats(task.workload, task.scale, task.version,
                                 task.simConfig, &coalesced));
            served = true;
        } catch (const support::CancelledError &e) {
            errCls = cancelClass(e.what());
            errMsg = e.what();
        } catch (...) {
            auto c = driver::classifyCurrentException();
            errCls = driver::errorClassName(c.cls);
            errMsg = c.message;
        }
        if (task.op == Op::Sim)
            metrics::count(coalesced ? "service.coalesce.followers"
                                     : "service.coalesce.leaders");
    }
    // Settle the accounting BEFORE the terminal response goes out: a
    // client that has seen "done"/"error" may immediately ask /stats
    // and must find this request counted as finished, not in flight.
    eraseInflight(*task.conn, task.id);
    admission.finish(task.conn->client, task.lane, served);
    if (errCls == "deadline")
        metrics::count("service.deadline_cancels");
    if (served)
        streamPayload(task, payload, coalesced);
    else
        finishError(task, errCls, errMsg);
    if (auto *tc = driver::TraceCollector::active())
        tc->record("service",
                   task.op == Op::Figure ? "figure" : "sim",
                   driver::TraceArgs()
                       .str("client", task.conn->client)
                       .str("what", spanWhat)
                       .str("lane", laneName(task.lane))
                       .str("outcome", served ? "served" : "failed")
                       .json(),
                   t0, Clock::now());
    if (config.verbose)
        warn("service: ", task.conn->client, "/", task.id, " ",
             spanWhat, " [", laneName(task.lane), "] ",
             served ? "served" : "failed");
}

// ---------------------------------------------------------------
// Cancellation bookkeeping
// ---------------------------------------------------------------

void
ExperimentService::Impl::eraseInflight(const Conn &conn,
                                       const std::string &id)
{
    std::lock_guard<std::mutex> lock(inflightMu);
    inflight.erase({conn.client, id});
}

void
ExperimentService::Impl::cancelConnection(const Conn &conn,
                                          const std::string &why)
{
    std::lock_guard<std::mutex> lock(inflightMu);
    for (auto &[key, token] : inflight)
        if (key.first == conn.client)
            token->cancel("cancelled: " + why);
}

// ---------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------

ExperimentService::ExperimentService(const ServiceConfig &config)
    : impl(std::make_unique<Impl>(config))
{
}

ExperimentService::~ExperimentService()
{
    stop();
}

bool
ExperimentService::start()
{
    if (impl->running.load())
        return true;
    if (!impl->bind())
        return false;
    impl->running.store(true, std::memory_order_release);
    impl->acceptThread =
        std::thread([this] { impl->acceptLoop(); });
    int warm = std::max(1, impl->config.warmWorkers);
    int cold = std::max(1, impl->config.coldWorkers);
    for (int i = 0; i < warm; ++i)
        impl->workers.emplace_back(
            [this] { impl->workerLoop(Lane::Warm); });
    for (int i = 0; i < cold; ++i)
        impl->workers.emplace_back(
            [this] { impl->workerLoop(Lane::Cold); });
    return true;
}

void
ExperimentService::stop()
{
    if (!impl->running.exchange(false))
        return;
    // Order matters: stop intake first (accept loop sees running ==
    // false, and readers answer new work with "shutdown" instead of
    // queueing it), then cancel outstanding work so queued tasks
    // drain as immediate "shutdown" errors, then wake and join the
    // workers, then unblock every connection reader.
    if (impl->acceptThread.joinable())
        impl->acceptThread.join();
    if (impl->listenFd >= 0) {
        ::close(impl->listenFd);
        impl->listenFd = -1;
        ::unlink(impl->config.socketPath.c_str());
    }
    {
        std::lock_guard<std::mutex> lock(impl->inflightMu);
        for (auto &[key, token] : impl->inflight)
            token->cancel("shutdown: service stopping");
    }
    {
        // The workers' wait predicate reads `running`, which was
        // flipped outside queueMu; notifying while holding the mutex
        // orders the flip with the wait so no worker can check the
        // predicate, miss the flip, and then block past the notify.
        std::lock_guard<std::mutex> lock(impl->queueMu);
        impl->queueCv.notify_all();
    }
    for (auto &w : impl->workers)
        w.join();
    impl->workers.clear();
    std::vector<std::shared_ptr<Impl::Conn>> conns;
    {
        std::lock_guard<std::mutex> lock(impl->connsMu);
        conns.swap(impl->conns);
    }
    for (auto &c : conns) {
        ::shutdown(c->fd, SHUT_RDWR);
        if (c->reader.joinable())
            c->reader.join();
        // ~Conn closes the fd once queued Tasks release their refs.
    }
}

bool
ExperimentService::running() const
{
    return impl->running.load(std::memory_order_acquire);
}

uint64_t
ExperimentService::connectionsAccepted() const
{
    return impl->connCounter.load();
}

driver::Context &
ExperimentService::context()
{
    return impl->ctx;
}

AdmissionController &
ExperimentService::admission()
{
    return impl->admission;
}

} // namespace service
} // namespace rodinia
