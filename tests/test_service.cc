/**
 * @file
 * Tests for the experiment service (src/service/): protocol parsing
 * and fuzz robustness, admission-control accounting, end-to-end
 * request handling over a real Unix socket, cancellation, deadlines
 * and shutdown, FIFO lane order, the warm/cold isolation property,
 * and a child-process experimentd serving concurrent clients against
 * the golden corpus.
 *
 * The single-flight edge cases and the seeded multi-client stress
 * flood live in test_service_stress.cc (the service-stress CI lane).
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/figures.hh"
#include "driver/tracing.hh"
#include "gpusim/timing.hh"
#include "service/admission.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "support/metrics.hh"

using namespace rodinia;
using service::AdmissionController;
using service::AdmissionPolicy;
using service::ExperimentService;
using service::Json;
using service::Lane;
using service::Outcome;
using service::Request;
using service::ServiceClient;
using service::ServiceConfig;
using service::Verdict;

namespace {

/** Fresh scratch directory under the system temp dir. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path(std::filesystem::temp_directory_path() /
               ("rodinia_service_test_" + tag))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    const std::filesystem::path &dir() const { return path; }

    std::string
    socket() const
    {
        return (path / "d.sock").string();
    }
    std::string
    cache() const
    {
        return (path / "cache").string();
    }

  private:
    std::filesystem::path path;
};

/** Service on a scratch socket with test-friendly small limits. */
ServiceConfig
testConfig(const ScratchDir &scratch)
{
    ServiceConfig cfg;
    cfg.socketPath = scratch.socket();
    cfg.cacheDir = scratch.cache();
    cfg.executorThreads = 2;
    return cfg;
}

uint64_t
simsRun()
{
    return support::metrics::Registry::global().snapshot().value(
        "gpusim.sims_run");
}

uint64_t
recordings()
{
    return support::metrics::Registry::global().snapshot().value(
        "gpusim.record.calls");
}

/** Sets the primary scale for one test and restores Full after. */
class PrimaryScaleGuard
{
  public:
    explicit PrimaryScaleGuard(core::Scale scale)
    {
        driver::setPrimaryScale(scale);
    }
    ~PrimaryScaleGuard() { driver::setPrimaryScale(core::Scale::Full); }
};

/** Total admitted-but-unfinished work across every client. */
uint64_t
totalInFlight(ExperimentService &svc)
{
    uint64_t n = 0;
    for (const auto &[name, cs] : svc.admission().snapshot())
        n += cs.inFlight;
    return n;
}

/** Poll @p pred (max ~10 s); returns its final value. */
template <typename Pred>
bool
eventually(Pred pred)
{
    for (int i = 0; i < 200; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return pred();
}

} // namespace

// ---------------------------------------------------------------
// Protocol: request parsing.
// ---------------------------------------------------------------

TEST(Protocol, ParsesFigureRequest)
{
    Request req;
    std::string err;
    ASSERT_TRUE(service::parseRequest(
        R"({"op":"figure","id":"r1","figure":"fig1","deadline_ms":250})",
        req, err))
        << err;
    EXPECT_EQ(req.op, service::Op::Figure);
    EXPECT_EQ(req.id, "r1");
    EXPECT_EQ(req.figure, "fig1");
    EXPECT_DOUBLE_EQ(req.deadlineMs, 250.0);
}

TEST(Protocol, ParsesSimRequestAndClampsConfig)
{
    Request req;
    std::string err;
    ASSERT_TRUE(service::parseRequest(
        R"({"op":"sim","id":"r2","workload":"bfs","scale":"tiny",)"
        R"("config":{"numSms":1000000000,"coreClockGhz":0.5}})",
        req, err))
        << err;
    EXPECT_EQ(req.op, service::Op::Sim);
    EXPECT_EQ(req.workload, "bfs");
    EXPECT_EQ(req.scale, core::Scale::Tiny);
    // A request for 10^9 SMs is clamped to the cap, not honoured and
    // not fatal.
    EXPECT_EQ(req.config.numSms, 4096);
    EXPECT_DOUBLE_EQ(req.config.coreClockGhz, 0.5);
    // Unspecified fields keep Table II defaults.
    gpusim::SimConfig defaults;
    EXPECT_EQ(req.config.warpSize, defaults.warpSize);
}

TEST(Protocol, RejectsUnknownTopLevelKey)
{
    Request req;
    std::string err;
    EXPECT_FALSE(service::parseRequest(
        R"({"op":"figure","id":"r3","figure":"fig1","bogus":1})", req,
        err));
    EXPECT_NE(err.find("bogus"), std::string::npos) << err;
    // The id is still recovered so the rejection can be routed.
    EXPECT_EQ(req.id, "r3");
}

TEST(Protocol, RejectsKeysMisplacedAcrossOps)
{
    // The whitelist is per-op: a key that is legal for *some* op
    // must still be rejected on an op it does not belong to, never
    // silently dropped.
    struct Case
    {
        const char *line;
        const char *key;
    } cases[] = {
        {R"({"op":"figure","id":"m1","figure":"fig1","scale":"full"})",
         "scale"},
        {R"({"op":"sim","id":"m2","workload":"bfs","target":"x"})",
         "target"},
        {R"({"op":"sim","id":"m3","workload":"bfs","figure":"fig1"})",
         "figure"},
        {R"({"op":"stats","id":"m4","deadline_ms":100})",
         "deadline_ms"},
        {R"({"op":"cancel","id":"m5","target":"t","config":{}})",
         "config"},
        {R"({"op":"ping","figure":"fig1"})", "figure"},
        {R"({"op":"sim","id":"m6","workload":"bfs","sweep":[{}]})",
         "sweep"},
        {R"({"op":"sim","id":"m7","workload":"bfs","weight":3})",
         "weight"},
    };
    for (const Case &c : cases) {
        Request req;
        std::string err;
        EXPECT_FALSE(service::parseRequest(c.line, req, err))
            << "accepted: " << c.line;
        EXPECT_NE(err.find(c.key), std::string::npos) << err;
    }
}

TEST(Protocol, RejectsUnknownConfigField)
{
    Request req;
    std::string err;
    EXPECT_FALSE(service::parseRequest(
        R"({"op":"sim","id":"r4","workload":"bfs",)"
        R"("config":{"numSMs":16}})",
        req, err));
    EXPECT_NE(err.find("numSMs"), std::string::npos) << err;
}

TEST(Protocol, RejectsConfigTheModelRefuses)
{
    // Clamps alone cannot save this one: l2Enabled with a zero-byte
    // L2 passes every per-field range but fails SimConfig::check().
    Request req;
    std::string err;
    EXPECT_FALSE(service::parseRequest(
        R"({"op":"sim","id":"r5","workload":"bfs",)"
        R"("config":{"l2Enabled":true,"l2Bytes":0}})",
        req, err));
    EXPECT_NE(err.find("l2"), std::string::npos) << err;
}

TEST(Protocol, RejectsMalformedJson)
{
    const char *cases[] = {
        "",                                  // empty
        "{",                                 // truncated
        R"({"op":"ping"} trailing)",         // trailing bytes
        R"({"op":"ping","op":"ping"})",      // duplicate key
        R"([1,2,3])",                        // not an object
        R"({"op":"figure","id":"x","figure":12}})", // extra brace
        R"({"op":"figure","id":"x","figure":"\ud800"})", // lone
                                                         // surrogate
        "{\"op\":\"figure\",\"id\":\"x\",\"figure\":\"fig\x01\"}",
        R"({"op":nope})",                    // bad literal
    };
    for (const char *line : cases) {
        Request req;
        std::string err;
        EXPECT_FALSE(service::parseRequest(line, req, err))
            << "accepted: " << line;
        EXPECT_FALSE(err.empty()) << line;
    }
}

TEST(Protocol, RejectsWrongFieldTypes)
{
    Request req;
    std::string err;
    EXPECT_FALSE(service::parseRequest(
        R"({"op":"figure","id":"r6","figure":7})", req, err));
    EXPECT_EQ(req.id, "r6");
    EXPECT_FALSE(service::parseRequest(
        R"({"op":"sim","id":"r7","workload":"bfs","deadline_ms":"x"})",
        req, err));
    EXPECT_FALSE(service::parseRequest(
        R"({"op":"sim","id":"r8","workload":"bfs","scale":"huge"})",
        req, err));
}

TEST(Protocol, ChunkRoundTripSurvivesEscaping)
{
    // Payload bytes that exercise every escape path: quotes,
    // backslash, newline, tab, control chars, and multi-byte UTF-8.
    std::string payload = "a\"b\\c\nd\te\x01f\xc3\xa9|";
    std::string line = service::renderChunk("r9", 3, payload);
    ASSERT_EQ(line.back(), '\n');
    Json root;
    std::string err;
    ASSERT_TRUE(Json::parse(line.substr(0, line.size() - 1), root,
                            err))
        << err;
    EXPECT_EQ(root.get("id")->string(), "r9");
    EXPECT_EQ(root.get("type")->string(), "chunk");
    EXPECT_DOUBLE_EQ(root.get("seq")->number(), 3.0);
    EXPECT_EQ(root.get("data")->string(), payload);
}

TEST(Protocol, DepthCapStopsHostileNesting)
{
    std::string deep;
    for (int i = 0; i < 64; ++i)
        deep += "{\"k\":";
    deep += "1";
    for (int i = 0; i < 64; ++i)
        deep += "}";
    Json root;
    std::string err;
    EXPECT_FALSE(Json::parse(deep, root, err));
    EXPECT_NE(err.find("deep"), std::string::npos) << err;
}

TEST(Protocol, CoalescedDoneRenderRoundTrip)
{
    Json root;
    std::string err;
    std::string d = service::renderDone("b", "cold", 4, 1000, 5, true);
    ASSERT_EQ(d.back(), '\n');
    ASSERT_TRUE(Json::parse(d.substr(0, d.size() - 1), root, err))
        << err;
    EXPECT_EQ(root.get("type")->string(), "done");
    EXPECT_DOUBLE_EQ(root.get("coalesced")->number(), 1.0);
}

// ---------------------------------------------------------------
// SimConfig::check() — the non-fatal boundary validator.
// ---------------------------------------------------------------

TEST(SimConfigCheck, DefaultConfigIsSound)
{
    gpusim::SimConfig cfg;
    EXPECT_EQ(cfg.check(), "");
}

TEST(SimConfigCheck, ReportsViolationWithoutAborting)
{
    gpusim::SimConfig cfg;
    cfg.numSms = 0;
    std::string err = cfg.check();
    EXPECT_NE(err.find("numSms"), std::string::npos) << err;
}

// ---------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------

TEST(Admission, PerClientQuotaIsEnforced)
{
    AdmissionPolicy policy;
    policy.perClientInFlight = 2;
    AdmissionController ac(policy);
    EXPECT_EQ(ac.admit("a", Lane::Cold), Verdict::Admit);
    EXPECT_EQ(ac.admit("a", Lane::Warm), Verdict::Admit);
    EXPECT_EQ(ac.admit("a", Lane::Cold), Verdict::RejectQuota);
    // Another client is unaffected — that is the fairness point.
    EXPECT_EQ(ac.admit("b", Lane::Cold), Verdict::Admit);
    // finish() releases quota.
    ac.started(Lane::Warm);
    ac.finish("a", Lane::Warm, true);
    EXPECT_EQ(ac.admit("a", Lane::Cold), Verdict::Admit);
}

TEST(Admission, QueueCapRejectsOverload)
{
    AdmissionPolicy policy;
    policy.maxColdQueue = 2;
    policy.perClientInFlight = 100;
    AdmissionController ac(policy);
    EXPECT_EQ(ac.admit("a", Lane::Cold), Verdict::Admit);
    EXPECT_EQ(ac.admit("b", Lane::Cold), Verdict::Admit);
    EXPECT_EQ(ac.admit("c", Lane::Cold), Verdict::RejectOverload);
    // The warm lane has its own cap — a full cold queue does not
    // reject warm work.
    EXPECT_EQ(ac.admit("c", Lane::Warm), Verdict::Admit);
    // Dequeue (start) frees the queue slot even though the request
    // is still in flight.
    ac.started(Lane::Cold);
    EXPECT_EQ(ac.admit("c", Lane::Cold), Verdict::Admit);
}

TEST(Admission, SnapshotCountsEveryVerdict)
{
    AdmissionPolicy policy;
    policy.perClientInFlight = 1;
    policy.maxColdQueue = 1;
    AdmissionController ac(policy);
    ASSERT_EQ(ac.admit("a", Lane::Cold), Verdict::Admit);
    ASSERT_EQ(ac.admit("a", Lane::Cold), Verdict::RejectQuota);
    ASSERT_EQ(ac.admit("b", Lane::Cold), Verdict::RejectOverload);
    ac.started(Lane::Cold);
    ac.finish("a", Lane::Cold, false);

    auto snap = ac.snapshot();
    EXPECT_EQ(snap["a"].admitted, 1u);
    EXPECT_EQ(snap["a"].rejectedQuota, 1u);
    EXPECT_EQ(snap["a"].failed, 1u);
    EXPECT_EQ(snap["a"].inFlight, 0u);
    EXPECT_EQ(snap["b"].rejectedOverload, 1u);
    EXPECT_EQ(ac.queueDepth(Lane::Cold), 0u);
}

// ---------------------------------------------------------------
// End-to-end over a real socket.
// ---------------------------------------------------------------

TEST(Service, PingPong)
{
    ScratchDir scratch("ping");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    ASSERT_TRUE(c.sendPing());
    service::Event ev = c.readEvent();
    EXPECT_EQ(ev.type, service::Event::Type::Pong);
    svc.stop();
}

TEST(Service, ColdSimServesParseablePayload)
{
    ScratchDir scratch("coldsim");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    ASSERT_TRUE(c.sendSim("s1", "backprop", "tiny", "{}"));
    Outcome out = c.await("s1");
    ASSERT_TRUE(out.ok()) << out.detail;
    EXPECT_EQ(out.lane, "cold");
    gpusim::KernelStats stats;
    EXPECT_TRUE(gpusim::parseKernelStats(out.payload, stats))
        << out.payload.substr(0, 200);
    svc.stop();
}

TEST(Service, SecondIdenticalSimIsWarmAndRunsZeroSims)
{
    ScratchDir scratch("warmsim");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    ASSERT_TRUE(c.sendSim("cold", "backprop", "tiny", "{}"));
    Outcome first = c.await("cold");
    ASSERT_TRUE(first.ok()) << first.detail;

    // The service shares this process's metrics registry, so the
    // acceptance criterion is directly checkable: a warm hit must
    // not run a single simulation.
    uint64_t simsBefore = simsRun();
    ASSERT_TRUE(c.sendSim("warm", "backprop", "tiny", "{}"));
    Outcome second = c.await("warm");
    ASSERT_TRUE(second.ok()) << second.detail;
    EXPECT_EQ(second.lane, "warm");
    EXPECT_EQ(simsRun(), simsBefore);
    EXPECT_EQ(second.payload, first.payload);
    svc.stop();
}

TEST(Service, FreshDaemonRoutesFiguresByTheirDeclaredInputs)
{
    // A figure request takes the warm lane only when every input it
    // declares is warm. A first daemon fills the store. On a fresh
    // daemon fig1's sims are all published, so it is warm and served
    // without a recording or a sim. fig2 reads trace analyses, which
    // the lane probe takes from the memo alone: cold once, then warm.
    // table1 and ablation_simt declare no inputs and stay cold, and a
    // CPU figure is warm once its characterizations are memoized.
    PrimaryScaleGuard tiny(core::Scale::Tiny);
    ScratchDir scratch("figlanes");
    const ServiceConfig cfg = testConfig(scratch);
    auto ask = [](ServiceClient &c, const std::string &id,
                  const std::string &figure) {
        EXPECT_TRUE(c.sendFigure(id, figure));
        Outcome out = c.await(id);
        EXPECT_TRUE(out.ok()) << id << ": " << out.detail;
        return out;
    };
    std::string fig1;
    {
        ExperimentService svc(cfg);
        ASSERT_TRUE(svc.start());
        ServiceClient c;
        ASSERT_TRUE(c.connect(cfg.socketPath));
        fig1 = ask(c, "fill1", "fig1").payload;
        EXPECT_EQ(ask(c, "fill2", "fig2").lane, "cold");
        EXPECT_EQ(ask(c, "fill10", "fig10").lane, "cold");
        svc.stop();
    }

    ExperimentService svc(cfg);
    ASSERT_TRUE(svc.start());
    ServiceClient c;
    ASSERT_TRUE(c.connect(cfg.socketPath));
    const uint64_t records0 = recordings();
    const uint64_t sims0 = simsRun();
    Outcome out = ask(c, "fig1", "fig1");
    EXPECT_EQ(out.lane, "warm");
    EXPECT_EQ(out.payload, fig1);
    EXPECT_EQ(recordings(), records0);
    EXPECT_EQ(simsRun(), sims0);

    EXPECT_EQ(ask(c, "fig2a", "fig2").lane, "cold");
    EXPECT_EQ(ask(c, "fig2b", "fig2").lane, "warm");
    EXPECT_EQ(recordings(), records0);
    EXPECT_EQ(ask(c, "fig10a", "fig10").lane, "cold");
    EXPECT_EQ(ask(c, "fig10b", "fig10").lane, "warm");
    for (const char *figure : {"table1", "ablation_simt"})
        for (const char *round : {"a", "b"})
            EXPECT_EQ(ask(c, std::string(figure) + round, figure).lane,
                      "cold")
                << figure << round;
    svc.stop();
}

TEST(Service, StatsReportsClientsAndQueues)
{
    ScratchDir scratch("stats");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    ASSERT_TRUE(c.sendSim("s1", "backprop", "tiny", "{}"));
    ASSERT_TRUE(c.await("s1").ok());
    ASSERT_TRUE(c.sendStats("st"));
    Outcome out = c.await("st");
    ASSERT_TRUE(out.ok());

    Json root;
    std::string err;
    ASSERT_TRUE(Json::parse(out.payload, root, err))
        << err << "\n"
        << out.payload.substr(0, 400);
    ASSERT_NE(root.get("clients"), nullptr);
    const Json *c1 = root.get("clients")->get("c1");
    ASSERT_NE(c1, nullptr);
    EXPECT_DOUBLE_EQ(c1->get("served")->number(), 1.0);
    ASSERT_NE(root.get("queue"), nullptr);
    // The full metrics registry rides along as a sub-object.
    ASSERT_NE(root.get("metrics"), nullptr);
    EXPECT_NE(root.get("metrics")->get("stable"), nullptr);
    svc.stop();
}

TEST(Service, BadRequestsDoNotPoisonTheConnection)
{
    ScratchDir scratch("fuzz");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));

    // Unparseable JSON: rejected with no recoverable id.
    ASSERT_TRUE(c.sendRaw("this is not json\n"));
    service::Event ev = c.readEvent();
    EXPECT_EQ(ev.type, service::Event::Type::Rejected);
    EXPECT_EQ(ev.reason, "bad-request");

    // Structurally valid JSON, semantically broken: id recovered.
    ASSERT_TRUE(
        c.sendRaw(R"({"op":"sim","id":"bad1","workload":42})"
                  "\n"));
    ev = c.readEvent();
    EXPECT_EQ(ev.type, service::Event::Type::Rejected);
    EXPECT_EQ(ev.id, "bad1");

    // Unknown figure and unknown workload are per-request
    // rejections, not parse errors.
    ASSERT_TRUE(c.sendFigure("bad2", "fig99"));
    ev = c.readEvent();
    EXPECT_EQ(ev.type, service::Event::Type::Rejected);
    EXPECT_EQ(ev.reason, "bad-request");
    ASSERT_TRUE(c.sendSim("bad3", "nosuchworkload", "tiny", "{}"));
    ev = c.readEvent();
    EXPECT_EQ(ev.type, service::Event::Type::Rejected);

    // Ops the daemon does not serve are rejected as unknown ops.
    ASSERT_TRUE(c.sendRaw(R"({"op":"batch","id":"bad4",)"
                          R"("workload":"backprop","sweep":[{}]})"
                          "\n"));
    ASSERT_TRUE(
        c.sendRaw(R"({"op":"hello","id":"bad5","weight":4})"
                  "\n"));
    for (const char *id : {"bad4", "bad5"}) {
        ev = c.readEvent();
        EXPECT_EQ(ev.type, service::Event::Type::Rejected) << id;
        EXPECT_EQ(ev.id, id);
        EXPECT_EQ(ev.reason, "bad-request") << id;
        EXPECT_NE(ev.detail.find("unknown op"), std::string::npos)
            << ev.detail;
    }

    // Oversized line: rejected and the excess discarded.
    std::string big(service::kMaxRequestBytes + 100, 'x');
    big += "\n";
    ASSERT_TRUE(c.sendRaw(big));
    ev = c.readEvent();
    EXPECT_EQ(ev.type, service::Event::Type::Rejected);
    EXPECT_NE(ev.detail.find("exceeds"), std::string::npos)
        << ev.detail;

    // After all that abuse the stream still serves real work.
    ASSERT_TRUE(c.sendSim("good", "backprop", "tiny", "{}"));
    EXPECT_TRUE(c.await("good").ok());
    svc.stop();
}

TEST(Client, MalformedResponseLinesAreSkippedNotFatal)
{
    // A hand-rolled "daemon" that answers with one unparseable line
    // and one future-protocol line before the real terminal
    // response: the client must skip both and still complete the
    // request, reserving ConnectionLost for the actual hangup.
    ScratchDir scratch("malresp");
    int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::string path = scratch.socket();
    ASSERT_LT(path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    std::thread fakeDaemon([&] {
        int cfd = ::accept(lfd, nullptr, nullptr);
        EXPECT_GE(cfd, 0);
        std::string lines =
            "certainly not json\n"
            "{\"id\":\"q\",\"type\":\"from-the-future\"}\n"
            "{\"id\":\"q\",\"type\":\"done\",\"lane\":\"warm\","
            "\"chunks\":0,\"bytes\":0,\"wall_us\":1}\n";
        ssize_t wn = ::write(cfd, lines.data(), lines.size());
        EXPECT_EQ(size_t(wn), lines.size());
        ::close(cfd);
    });

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    service::Event ev = c.readEvent();
    EXPECT_EQ(ev.type, service::Event::Type::Malformed);
    Outcome out = c.await("q"); // skips the unknown-type line
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.lane, "warm");
    // Only the real hangup reports as a lost connection.
    EXPECT_EQ(c.readEvent().type,
              service::Event::Type::ConnectionLost);
    fakeDaemon.join();
    ::close(lfd);
}

TEST(Service, DisconnectedClientsDoNotLeakFds)
{
    if (!std::filesystem::exists("/proc/self/fd"))
        GTEST_SKIP() << "needs /proc to count open fds";
    ScratchDir scratch("fdleak");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    auto cycle = [&] {
        ServiceClient c;
        ASSERT_TRUE(c.connect(scratch.socket()));
        ASSERT_TRUE(c.sendPing());
        EXPECT_EQ(c.readEvent().type, service::Event::Type::Pong);
    };
    auto openFds = [] {
        size_t n = 0;
        for ([[maybe_unused]] const auto &e :
             std::filesystem::directory_iterator("/proc/self/fd"))
            ++n;
        return n;
    };

    cycle(); // prime: the newest disconnect is always reaped lazily
    size_t baseline = openFds();
    for (int i = 0; i < 32; ++i)
        cycle();
    // Each accept reaps earlier disconnected conns and ~Conn closes
    // their fds; only the most recent disconnect (plus one
    // slow-reader race) may still be open. Before the destructor
    // existed this grew by one fd per cycle.
    EXPECT_LE(openFds(), baseline + 3);
    svc.stop();
}

TEST(Service, TruncatedLineAtDisconnectIsDropped)
{
    ScratchDir scratch("trunc");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    {
        // A request with no terminating newline, then hangup:
        // never parsed, never executed, daemon unharmed.
        ServiceClient half;
        ASSERT_TRUE(half.connect(scratch.socket()));
        ASSERT_TRUE(half.sendRaw(
            R"({"op":"sim","id":"x","workload":"backprop")"));
        half.close();
    }
    // The daemon still accepts and serves new connections.
    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    ASSERT_TRUE(c.sendPing());
    EXPECT_EQ(c.readEvent().type, service::Event::Type::Pong);
    svc.stop();
}

TEST(Service, MidStreamDisconnectCancelsInFlightWork)
{
    ScratchDir scratch("hangup");
    ServiceConfig cfg = testConfig(scratch);
    cfg.coldWorkers = 1;
    ExperimentService svc(cfg);
    ASSERT_TRUE(svc.start());

    {
        ServiceClient doomed;
        ASSERT_TRUE(doomed.connect(scratch.socket()));
        // Full-scale sims are slow enough that the hangup lands
        // while they are queued or executing.
        ASSERT_TRUE(doomed.sendSim("d1", "bfs", "full", "{}"));
        ASSERT_TRUE(doomed.sendSim("d2", "bfs", "full",
                                   R"({"gmemLatencyCycles":500})"));
        service::Event ev = doomed.readEvent();
        EXPECT_EQ(ev.type, service::Event::Type::Accepted);
        doomed.close();
    }
    // The accounting must converge back to zero in flight (the
    // reaper cancels the dropped client's work), and the daemon
    // keeps serving others.
    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    ASSERT_TRUE(c.sendSim("ok", "backprop", "tiny", "{}"));
    EXPECT_TRUE(c.await("ok").ok());
    for (int i = 0; i < 200; ++i) {
        uint64_t inFlight = 0;
        for (const auto &[name, cs] : svc.admission().snapshot())
            inFlight += cs.inFlight;
        if (inFlight == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    uint64_t inFlight = 0;
    for (const auto &[name, cs] : svc.admission().snapshot())
        inFlight += cs.inFlight;
    EXPECT_EQ(inFlight, 0u);
    svc.stop();
}

TEST(Service, CancelAbortsQueuedRequest)
{
    ScratchDir scratch("cancel");
    ServiceConfig cfg = testConfig(scratch);
    cfg.coldWorkers = 1;
    ExperimentService svc(cfg);
    ASSERT_TRUE(svc.start());

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    // One slow sim occupies the only cold worker; the second waits
    // in queue, where the cancel (processed inline on the reader
    // thread) reaches it long before a worker does.
    ASSERT_TRUE(c.sendSim("busy", "bfs", "full", "{}"));
    ASSERT_TRUE(c.sendSim("victim", "srad", "full", "{}"));
    ASSERT_TRUE(c.sendCancel("kill", "victim"));

    Outcome ack = c.await("kill");
    ASSERT_TRUE(ack.ok()) << ack.detail;
    Outcome victim = c.await("victim");
    EXPECT_EQ(victim.status, Outcome::Status::Error);
    EXPECT_EQ(victim.errorClass, "cancelled");
    // Cancelling an unknown id is a bad request, not a crash.
    ASSERT_TRUE(c.sendCancel("kill2", "nosuchrequest"));
    Outcome miss = c.await("kill2");
    EXPECT_EQ(miss.status, Outcome::Status::Rejected);
    // The busy request is unaffected.
    EXPECT_TRUE(c.await("busy").ok());
    svc.stop();
}

TEST(Service, DeadlineCancelsSlowRequest)
{
    ScratchDir scratch("deadline");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    // A full-scale cold sim takes hundreds of milliseconds; a 1 ms
    // deadline expires while the sim is queued or before an early
    // cancellation checkpoint.
    ASSERT_TRUE(c.sendSim("late", "bfs", "full", "{}", 1.0));
    Outcome out = c.await("late");
    ASSERT_EQ(out.status, Outcome::Status::Error) << out.lane;
    EXPECT_EQ(out.errorClass, "deadline");
    EXPECT_NE(out.detail.find("deadline"), std::string::npos)
        << out.detail;
    svc.stop();
}

TEST(Service, RequestExpiredInQueueNeverReachesTheContext)
{
    ScratchDir scratch("expired");
    ServiceConfig cfg = testConfig(scratch);
    cfg.coldWorkers = 1;
    ExperimentService svc(cfg);
    ASSERT_TRUE(svc.start());

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    // One slow sim holds the only cold worker, so the second request's
    // 1 ms deadline passes while it is queued. The worker that takes
    // it refuses it at dequeue: srad is never recorded.
    uint64_t recordedBefore = recordings();
    ASSERT_TRUE(c.sendSim("busy", "bfs", "full", "{}"));
    ASSERT_TRUE(c.sendSim("expired", "srad", "full", "{}", 1.0));
    Outcome expired = c.await("expired");
    ASSERT_EQ(expired.status, Outcome::Status::Error) << expired.lane;
    EXPECT_EQ(expired.errorClass, "deadline");
    EXPECT_EQ(expired.detail,
              "deadline: request 'expired' exceeded its deadline");
    EXPECT_TRUE(c.await("busy").ok());
    EXPECT_EQ(recordings(), recordedBefore + 1);
    svc.stop();
}

TEST(Service, QuotaRejectsFloodWithinOneClient)
{
    ScratchDir scratch("quota");
    ServiceConfig cfg = testConfig(scratch);
    cfg.coldWorkers = 1;
    cfg.admission.perClientInFlight = 1;
    ExperimentService svc(cfg);
    ASSERT_TRUE(svc.start());

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    ASSERT_TRUE(c.sendSim("s1", "bfs", "full", "{}"));
    ASSERT_TRUE(c.sendSim("s2", "bfs", "full",
                          R"({"gmemLatencyCycles":510})"));
    Outcome second = c.await("s2");
    EXPECT_EQ(second.status, Outcome::Status::Rejected);
    EXPECT_EQ(second.reason, "quota");
    EXPECT_TRUE(c.await("s1").ok());
    svc.stop();
}

TEST(Service, ColdQueueCapSheds)
{
    ScratchDir scratch("overload");
    ServiceConfig cfg = testConfig(scratch);
    cfg.coldWorkers = 1;
    cfg.admission.maxColdQueue = 1;
    ExperimentService svc(cfg);
    ASSERT_TRUE(svc.start());

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    // 6 distinct slow sims against 1 worker and a queue of 1: some
    // are admitted, and at least one must shed as overload.
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(c.sendSim(
            std::string("f").append(std::to_string(i)), "bfs", "full",
            "{\"gmemLatencyCycles\":" + std::to_string(520 + i) +
                "}"));
    int served = 0, overload = 0;
    for (int i = 0; i < 6; ++i) {
        Outcome out = c.await(std::string("f").append(std::to_string(i)));
        if (out.ok())
            ++served;
        else if (out.reason == "overload")
            ++overload;
    }
    EXPECT_GE(served, 1);
    EXPECT_GE(overload, 1);
    svc.stop();
}

TEST(Service, StopSettlesRequestsThatArriveDuringShutdown)
{
    ScratchDir scratch("stoprace");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    ASSERT_TRUE(c.sendSim("prime", "backprop", "tiny", "{}"));
    ASSERT_TRUE(c.await("prime").ok());

    // One client loops warm sims until the connection goes, so
    // stop() lands on requests in every stage: being read, queued,
    // executing, and admitted after the lane workers have exited.
    std::atomic<uint64_t> served{0};
    uint64_t answered = 0, unanswered = 0;
    std::thread loop([&] {
        for (int i = 0;; ++i) {
            std::string id = std::string("w").append(std::to_string(i));
            if (!c.sendSim(id, "backprop", "tiny", "{}"))
                return;
            Outcome out = c.await(id);
            if (out.status == Outcome::Status::Lost) {
                // Lost after "accepted" = admitted, never answered.
                unanswered += out.lane.empty() ? 0 : 1;
                return;
            }
            answered += 1;
            if (out.ok())
                served += 1;
            else
                EXPECT_EQ(out.errorClass, "shutdown") << out.detail;
        }
    });
    EXPECT_TRUE(eventually([&] { return served.load() >= 100; }));
    svc.stop();
    loop.join();

    EXPECT_EQ(unanswered, 0u) << answered << " answered";
    EXPECT_EQ(totalInFlight(svc), 0u);
    EXPECT_EQ(svc.admission().queueDepth(Lane::Warm), 0u);
}

// ---------------------------------------------------------------
// The isolation property: a cold flood from one client must not
// move another client's warm-hit latency.
// ---------------------------------------------------------------

TEST(Service, WarmHitsAreIsolatedFromColdFlood)
{
    ScratchDir scratch("isolation");
    ServiceConfig cfg = testConfig(scratch);
    cfg.coldWorkers = 1; // one worker the flood can saturate
    cfg.warmWorkers = 1;
    cfg.admission.maxColdQueue = 64;
    ExperimentService svc(cfg);
    ASSERT_TRUE(svc.start());

    // Prime: client B's result becomes warm.
    ServiceClient b;
    ASSERT_TRUE(b.connect(scratch.socket()));
    ASSERT_TRUE(b.sendSim("prime", "backprop", "tiny", "{}"));
    ASSERT_TRUE(b.await("prime").ok());

    // Client A floods the cold lane with distinct full-scale sims,
    // pipelined so the cold worker and queue stay saturated for the
    // whole measurement window.
    ServiceClient a;
    ASSERT_TRUE(a.connect(scratch.socket()));
    const int kFlood = 12;
    for (int i = 0; i < kFlood; ++i)
        ASSERT_TRUE(a.sendSim(
            "flood" + std::to_string(i), "bfs", "full",
            "{\"gmemLatencyCycles\":" + std::to_string(600 + i) +
                "}"));

    // Meanwhile client B replays its warm hit and records latency.
    std::vector<uint64_t> latUs;
    for (int i = 0; i < 40; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        std::string id = "warm" + std::to_string(i);
        ASSERT_TRUE(b.sendSim(id, "backprop", "tiny", "{}"));
        Outcome out = b.await(id);
        auto us = uint64_t(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        ASSERT_TRUE(out.ok()) << out.detail;
        EXPECT_EQ(out.lane, "warm") << id;
        latUs.push_back(us);
    }
    std::sort(latUs.begin(), latUs.end());
    uint64_t p99 = latUs[(latUs.size() * 99) / 100];

    // Pinned bound: a warm hit is a memo lookup plus one socket
    // round trip — microseconds of work. 100 ms of headroom absorbs
    // scheduler noise while still being orders of magnitude below
    // the multi-second backlog the cold queue carries right now.
    EXPECT_LT(p99, 100000u) << "warm p99 " << p99
                            << "us under cold flood";

    // The flood itself must see real backpressure semantics: every
    // response is either served or an explicit overload rejection.
    int aServed = 0;
    for (int i = 0; i < kFlood; ++i) {
        Outcome out = a.await("flood" + std::to_string(i));
        if (out.ok())
            ++aServed;
        else
            EXPECT_EQ(out.reason, "overload");
    }
    EXPECT_GE(aServed, 1);
    svc.stop();
}

TEST(Service, LaneServesRequestsInArrivalOrder)
{
    ScratchDir scratch("fifo");
    ServiceConfig cfg = testConfig(scratch);
    cfg.coldWorkers = 1; // span start order = service order
    driver::TraceCollector trace;
    driver::TraceCollector::install(&trace);
    struct Uninstall
    {
        ~Uninstall() { driver::TraceCollector::install(nullptr); }
    } uninstall; // outlives svc, so no worker records past it
    ExperimentService svc(cfg);
    ASSERT_TRUE(svc.start());

    // A slow full-scale gate holds the only cold worker while both
    // clients queue their requests behind it.
    ServiceClient gate;
    ASSERT_TRUE(gate.connect(scratch.socket()));
    ASSERT_TRUE(gate.sendSim("gate", "srad", "full", "{}"));
    ASSERT_TRUE(eventually([&] {
        return totalInFlight(svc) == 1 &&
               svc.admission().queueDepth(Lane::Cold) == 0;
    })) << "gate never started";

    // Client A queues 4 distinct tiny sims, then client B queues 2.
    // Distinct workloads so each span's "what" names its client.
    ServiceClient a, b;
    ASSERT_TRUE(a.connect(scratch.socket()));
    ASSERT_TRUE(b.connect(scratch.socket()));
    auto id = [](char who, int i) {
        return std::string(1, who).append(std::to_string(i));
    };
    auto config = [](int latency) {
        return "{\"gmemLatencyCycles\":" + std::to_string(latency) + "}";
    };
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(
            a.sendSim(id('a', i), "backprop", "tiny", config(430 + i)));
    ASSERT_TRUE(eventually([&] {
        return svc.admission().queueDepth(Lane::Cold) == 4;
    }));
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(b.sendSim(id('b', i), "bfs", "tiny", config(450 + i)));
    ASSERT_TRUE(eventually([&] {
        return svc.admission().queueDepth(Lane::Cold) == 6;
    }));

    EXPECT_TRUE(gate.await("gate").ok());
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(a.await(id('a', i)).ok());
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(b.await(id('b', i)).ok());
    svc.stop();

    // Service order, gate excluded, from the start times of the
    // service "sim" spans (one per request, one line each).
    std::vector<std::pair<uint64_t, char>> started;
    std::istringstream lines(trace.render());
    for (std::string line; std::getline(lines, line);) {
        if (line.find(R"("cat":"service","name":"sim")") ==
            std::string::npos)
            continue;
        size_t ts = line.find(R"("ts":)");
        ASSERT_NE(ts, std::string::npos) << line;
        uint64_t start = std::stoull(line.substr(ts + 5));
        if (line.find(R"("what":"backprop")") != std::string::npos)
            started.emplace_back(start, 'a');
        else if (line.find(R"("what":"bfs")") != std::string::npos)
            started.emplace_back(start, 'b');
    }
    std::sort(started.begin(), started.end());
    std::string order;
    for (const auto &[start, who] : started)
        order += who;
    EXPECT_EQ(order, "aaaabb");
}

// ---------------------------------------------------------------
// Child-process smoke: a real experimentd serving golden-checked
// traffic to concurrent clients (the CI service-smoke lane runs
// exactly this).
// ---------------------------------------------------------------

TEST(ServiceSmoke, DaemonServesGoldenTrafficToConcurrentClients)
{
    ScratchDir scratch("smoke");
    std::string sock = scratch.socket();
    // c_str() pointers handed to execv must outlive this statement —
    // a temporary from scratch.cache() would dangle by exec time.
    std::string cacheDir = scratch.cache();

    std::ifstream in(std::string(RODINIA_GOLDEN_DIR) + "/fig1.txt",
                     std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream golden;
    golden << in.rdbuf();
    const std::string fig1 = golden.str();

    pid_t daemon = fork();
    ASSERT_GE(daemon, 0);
    if (daemon == 0) {
        const char *argv[] = {RODINIA_EXPERIMENTD_BIN, "--socket",
                              sock.c_str(),  "--cache-dir",
                              cacheDir.c_str(), nullptr};
        execv(argv[0], const_cast<char **>(argv));
        _exit(127);
    }

    // Two clients, each closed loop over the same fixed mix: fig1
    // figure requests alternate with backprop Tiny sims, each sim
    // with a config no other request uses, so every one simulates.
    constexpr int kClients = 2;
    constexpr int kRequests = 4;
    std::vector<std::vector<std::string>> failures(kClients);
    std::vector<int> served(kClients, 0);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            auto &failed = failures[size_t(c)];
            ServiceClient conn;
            if (!conn.connect(sock)) {
                failed.push_back("cannot connect");
                return;
            }
            for (int r = 0; r < kRequests; ++r) {
                std::string id = std::string("c")
                                     .append(std::to_string(c))
                                     .append("-r")
                                     .append(std::to_string(r));
                bool figure = r % 2 == 0;
                bool sent =
                    figure
                        ? conn.sendFigure(id, "fig1")
                        : conn.sendSim(
                              id, "backprop", "tiny",
                              "{\"gmemLatencyCycles\":" +
                                  std::to_string(400 + c * kRequests +
                                                 r) +
                                  "}");
                Outcome out = sent ? conn.await(id) : Outcome{};
                if (!out.ok()) {
                    failed.push_back(id + " not served: " +
                                     out.reason + out.errorClass +
                                     " " + out.detail);
                    continue;
                }
                served[size_t(c)] += 1;
                if (figure && out.payload != fig1)
                    failed.push_back(id + " differs from fig1.txt");
            }
        });
    for (auto &t : clients)
        t.join();
    for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(served[size_t(c)], kRequests) << "client " << c;
        for (const auto &f : failures[size_t(c)])
            ADD_FAILURE() << f;
    }

    int st = 0;
    kill(daemon, SIGTERM);
    ASSERT_EQ(waitpid(daemon, &st, 0), daemon);
    ASSERT_TRUE(WIFEXITED(st));
    EXPECT_EQ(WEXITSTATUS(st), 0);
}
