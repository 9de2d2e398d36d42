/**
 * @file
 * Service stress and fairness layer (the service-stress CI lane).
 *
 * Three suites, named so the service-smoke lane's filter does not
 * pick them up:
 *
 *  - Wfq: deficit-round-robin properties of WfqQueue — served-share
 *    proportionality, the starvation regression (a weight-1 client
 *    progresses every round no matter how heavy the competing
 *    flood), idle-credit forfeiture, no mid-round barging, quantum
 *    scaling, composition with the per-client quota, and a
 *    deterministic end-to-end served-order check read from the
 *    daemon's service spans.
 *
 *  - SingleFlight: coalescing edge cases over a live daemon —
 *    followers receive the leader's bytes while exactly one sim
 *    runs, a follower's cancel or deadline never disturbs the
 *    leader, a leader failure propagates its error class to every
 *    follower (and the next identical request re-executes), and
 *    serial identical requests never count as coalesced.
 *
 *  - Stress: a seeded multi-client flood (mixed warm/cold/batch/
 *    cancel plus a mid-stream disconnect) asserting the acceptance
 *    criterion directly: sims computed == distinct fingerprints
 *    requested, responses byte-identical across every client, and
 *    accounting settled to zero after the drain.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/context.hh"
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
using service::Lane;
using service::Outcome;
using service::ServiceClient;
using service::ServiceConfig;
using service::Verdict;
using service::WfqQueue;

namespace {

/** Fresh scratch directory under the system temp dir. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path(std::filesystem::temp_directory_path() /
               ("rodinia_service_stress_" + tag))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }

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
metric(const char *name, const char *label = "")
{
    return support::metrics::Registry::global().snapshot().value(name,
                                                                 label);
}

uint64_t
simsRun()
{
    return metric("gpusim.sims_run");
}

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
// Wfq: deficit-round-robin properties (single-threaded, exact).
// ---------------------------------------------------------------

TEST(Wfq, ServedShareMatchesWeightsUnderSaturation)
{
    WfqQueue<int> q;
    q.setWeight("heavy", 3);
    q.setWeight("light", 1);
    // Both clients stay backlogged for the whole window, so each
    // full round serves exactly quantum x weight items per client:
    // the 3:1 served-share ratio is exact, not approximate.
    for (int i = 0; i < 30; ++i)
        q.push("heavy", 100 + i);
    for (int i = 0; i < 10; ++i)
        q.push("light", 200 + i);

    std::map<std::string, int> served;
    std::map<std::string, int> nextVal = {{"heavy", 100},
                                          {"light", 200}};
    int item = 0;
    std::string who;
    for (int i = 0; i < 24; ++i) { // 6 full rounds of 4
        ASSERT_TRUE(q.pop(item, &who));
        served[who] += 1;
        // FIFO within one client's sub-queue.
        EXPECT_EQ(item, nextVal[who]++);
    }
    EXPECT_EQ(served["heavy"], 18); // 3/4 of 24
    EXPECT_EQ(served["light"], 6);  // 1/4 of 24
    EXPECT_EQ(q.size(), 16u);
}

TEST(Wfq, WeightOneClientIsNeverStarvedByAFlood)
{
    // The starvation regression: under the old FIFO lane queue a
    // client with a deep backlog monopolized the workers until it
    // drained. Under DRR the weight-1 client is served at least
    // once per round — within every window of (8 + 1) pops.
    WfqQueue<std::string> q;
    q.setWeight("flood", 8);
    q.setWeight("meek", 1);
    for (int i = 0; i < 800; ++i)
        q.push("flood", std::string("f").append(std::to_string(i)));
    for (int i = 0; i < 10; ++i)
        q.push("meek", std::string("m").append(std::to_string(i)));

    std::string item, who;
    int sinceMeek = 0, meekServed = 0;
    for (int i = 0; i < 9 * 10; ++i) {
        ASSERT_TRUE(q.pop(item, &who));
        if (who == "meek") {
            meekServed += 1;
            sinceMeek = 0;
        } else {
            sinceMeek += 1;
            // Never more than one full flood allotment between two
            // meek servings.
            EXPECT_LE(sinceMeek, 8) << "starved at pop " << i;
        }
    }
    EXPECT_EQ(meekServed, 10); // meek drained inside 10 rounds
}

TEST(Wfq, IdleCreditIsForfeitedNotBanked)
{
    // A client whose sub-queue drains mid-allotment forfeits the
    // leftover credit: going idle must never buy a burst later.
    WfqQueue<int> q;
    q.setWeight("a", 4);
    q.setWeight("b", 1);
    q.push("a", 1);
    q.push("a", 2);
    int item = 0;
    std::string who;
    ASSERT_TRUE(q.pop(item, &who)); // a drains with 2 credits left
    ASSERT_TRUE(q.pop(item, &who));
    EXPECT_TRUE(q.empty());

    // Re-backlogged against b: a's round allotment is still exactly
    // 4 — the forfeited credits are gone.
    for (int i = 0; i < 8; ++i)
        q.push("a", 10 + i);
    for (int i = 0; i < 4; ++i)
        q.push("b", 20 + i);
    std::vector<std::string> order;
    while (q.pop(item, &who))
        order.push_back(who);
    std::vector<std::string> want = {"a", "a", "a", "a", "b", //
                                     "a", "a", "a", "a", "b", //
                                     "b", "b"};
    EXPECT_EQ(order, want);
}

TEST(Wfq, NewcomerJoinsTheRoundTailNotMidRound)
{
    WfqQueue<int> q;
    q.setWeight("a", 2);
    q.setWeight("b", 2);
    for (int i = 0; i < 4; ++i)
        q.push("a", i);
    int item = 0;
    std::string who;
    ASSERT_TRUE(q.pop(item, &who));
    EXPECT_EQ(who, "a");
    // b arrives while a's allotment is half used: it must wait for
    // the allotment to finish, never barge in mid-round.
    for (int i = 0; i < 2; ++i)
        q.push("b", 10 + i);
    std::vector<std::string> order;
    while (q.pop(item, &who))
        order.push_back(who);
    std::vector<std::string> want = {"a", "b", "b", "a", "a"};
    EXPECT_EQ(order, want);
}

TEST(Wfq, QuantumScalesEveryAllotment)
{
    WfqQueue<int> q(3); // quantum 3: weight-1 clients get 3/round
    q.setWeight("a", 2);
    // b keeps the default weight 1.
    for (int i = 0; i < 12; ++i)
        q.push("a", i);
    for (int i = 0; i < 6; ++i)
        q.push("b", 100 + i);
    std::map<std::string, int> first9;
    int item = 0;
    std::string who;
    for (int i = 0; i < 9; ++i) { // one full round: 6 a + 3 b
        ASSERT_TRUE(q.pop(item, &who));
        first9[who] += 1;
    }
    EXPECT_EQ(first9["a"], 6);
    EXPECT_EQ(first9["b"], 3);
}

TEST(Wfq, PopOnEmptyIsFalseAndWeightsPersistAcrossIdle)
{
    WfqQueue<int> q;
    int item = 0;
    EXPECT_FALSE(q.pop(item));
    q.setWeight("a", 5);
    q.push("a", 1);
    ASSERT_TRUE(q.pop(item));
    EXPECT_FALSE(q.pop(item));
    // The weight declared before the idle period still holds.
    EXPECT_EQ(q.weight("a"), 5u);
    EXPECT_EQ(q.weight("never-seen"), 1u);
}

TEST(Wfq, ComposesWithPerClientQuota)
{
    // The quota bounds how deep a backlog ANY weight can amplify: a
    // weight-8 client with a quota of 2 gets at most 2 items into
    // the queue, so its round allotment is moot beyond that.
    AdmissionPolicy policy;
    policy.perClientInFlight = 2;
    AdmissionController ac(policy);
    WfqQueue<std::string> q;
    q.setWeight("hog", 8);
    q.setWeight("small", 1);

    int hogQueued = 0;
    for (int i = 0; i < 5; ++i) {
        if (ac.admit("hog", Lane::Cold) == Verdict::Admit) {
            q.push("hog", std::string("h").append(std::to_string(i)));
            ++hogQueued;
        }
    }
    EXPECT_EQ(hogQueued, 2); // quota, not weight, set the depth
    ASSERT_EQ(ac.admit("small", Lane::Cold), Verdict::Admit);
    q.push("small", "s0");

    std::vector<std::string> order;
    std::string item, who;
    while (q.pop(item, &who)) {
        order.push_back(who);
        ac.started(Lane::Cold);
        ac.finish(who, Lane::Cold, true);
    }
    std::vector<std::string> want = {"hog", "hog", "small"};
    EXPECT_EQ(order, want);
    // Everything settled: the quota is fully released again.
    EXPECT_EQ(ac.admit("hog", Lane::Cold), Verdict::Admit);
}

// ---------------------------------------------------------------
// Wfq end to end: served ORDER over a live daemon. Every request
// records one service span from the moment a worker takes it, and
// with one cold worker span start order == DRR service order.
// ---------------------------------------------------------------

TEST(Wfq, ServedShareTracksWeightsEndToEnd)
{
    ScratchDir scratch("wfq_e2e");
    ServiceConfig cfg = testConfig(scratch);
    cfg.coldWorkers = 1; // serialize: span start order = DRR order
    driver::TraceCollector trace;
    driver::TraceCollector::install(&trace);
    struct Uninstall
    {
        ~Uninstall() { driver::TraceCollector::install(nullptr); }
    } uninstall; // outlives svc, so no worker records past it
    ExperimentService svc(cfg);
    ASSERT_TRUE(svc.start());

    // A slow full-scale gate occupies the only cold worker while
    // both competitors enqueue their whole backlog.
    ServiceClient gate;
    ASSERT_TRUE(gate.connect(scratch.socket()));
    ASSERT_TRUE(gate.sendSim("gate", "srad", "full", "{}"));
    ASSERT_TRUE(eventually([&] {
        return totalInFlight(svc) == 1 &&
               svc.admission().queueDepth(Lane::Cold) == 0;
    })) << "gate never started";

    // Heavy (weight 4) backlogs 8 distinct tiny sims; light (weight
    // 1) backlogs 2. Distinct workloads so the spans' "what" names
    // the client that issued them.
    ServiceClient heavy, light;
    ASSERT_TRUE(heavy.connect(scratch.socket()));
    ASSERT_TRUE(light.connect(scratch.socket()));
    ASSERT_TRUE(heavy.sendHello("hh", 4));
    ASSERT_TRUE(heavy.await("hh").ok());
    ASSERT_TRUE(light.sendHello("lh", 1));
    ASSERT_TRUE(light.await("lh").ok());
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(heavy.sendSim(
            "h" + std::to_string(i), "backprop", "tiny",
            "{\"gmemLatencyCycles\":" + std::to_string(430 + i) +
                "}"));
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(light.sendSim(
            "l" + std::to_string(i), "bfs", "tiny",
            "{\"gmemLatencyCycles\":" + std::to_string(450 + i) +
                "}"));
    ASSERT_TRUE(eventually([&] {
        return svc.admission().queueDepth(Lane::Cold) == 10;
    })) << "backlog never fully enqueued; depth "
        << svc.admission().queueDepth(Lane::Cold);

    EXPECT_TRUE(gate.await("gate").ok());
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(heavy.await("h" + std::to_string(i)).ok());
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(light.await("l" + std::to_string(i)).ok());

    svc.stop();

    // Service order, gate excluded, from the start times of the
    // service "sim" spans (one per request, one line each): with
    // weights 4:1 and both clients backlogged, every DRR round serves
    // 4 heavy + 1 light, so each window of 5 holds exactly one light
    // sim.
    std::vector<std::pair<uint64_t, std::string>> started;
    std::istringstream lines(trace.render());
    for (std::string line; std::getline(lines, line);) {
        if (line.find(R"("cat":"service","name":"sim")") ==
            std::string::npos)
            continue;
        size_t ts = line.find(R"("ts":)");
        ASSERT_NE(ts, std::string::npos) << line;
        uint64_t start = std::stoull(line.substr(ts + 5));
        if (line.find(R"("what":"backprop")") != std::string::npos)
            started.emplace_back(start, "heavy");
        else if (line.find(R"("what":"bfs")") != std::string::npos)
            started.emplace_back(start, "light");
    }
    std::sort(started.begin(), started.end());
    std::vector<std::string> order;
    for (const auto &[start, who] : started)
        order.push_back(who);
    ASSERT_EQ(order.size(), 10u);
    int lightFirst5 = 0, lightSecond5 = 0;
    for (int i = 0; i < 5; ++i)
        lightFirst5 += order[size_t(i)] == "light";
    for (int i = 5; i < 10; ++i)
        lightSecond5 += order[size_t(i)] == "light";
    EXPECT_EQ(lightFirst5, 1) << "round 1 violated the 4:1 share";
    EXPECT_EQ(lightSecond5, 1) << "round 2 violated the 4:1 share";
}

// ---------------------------------------------------------------
// SingleFlight: coalescing edge cases over a live daemon.
// ---------------------------------------------------------------

namespace {

/** A distinct full-scale config per test so flights never collide
 *  across tests sharing the process-global metrics. */
std::string
slowConfig(int salt)
{
    return "{\"gmemLatencyCycles\":" + std::to_string(900 + salt) +
           "}";
}

} // namespace

TEST(SingleFlight, FollowersGetLeaderBytesAndOneSimRuns)
{
    ScratchDir scratch("sf_bytes");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    ServiceClient a, b;
    ASSERT_TRUE(a.connect(scratch.socket()));
    ASSERT_TRUE(b.connect(scratch.socket()));
    uint64_t sims0 = simsRun();
    uint64_t followers0 = metric("service.coalesce.followers");

    ASSERT_TRUE(a.sendSim("lead", "bfs", "full", slowConfig(0)));
    // Only send the identical request once the leader's flight is
    // registered, so B deterministically joins as a follower.
    ASSERT_TRUE(eventually(
        [&] { return svc.context().simFlightsInFlight() == 1; }))
        << "leader flight never registered";
    ASSERT_TRUE(b.sendSim("follow", "bfs", "full", slowConfig(0)));

    Outcome lead = a.await("lead");
    Outcome follow = b.await("follow");
    ASSERT_TRUE(lead.ok()) << lead.detail;
    ASSERT_TRUE(follow.ok()) << follow.detail;
    // N identical in-flight requests, ONE execution: the follower
    // streams the leader's bytes and says so.
    EXPECT_EQ(simsRun(), sims0 + 1);
    EXPECT_EQ(metric("service.coalesce.followers"), followers0 + 1);
    EXPECT_FALSE(lead.coalesced);
    EXPECT_TRUE(follow.coalesced);
    EXPECT_EQ(follow.payload, lead.payload);
    gpusim::KernelStats stats;
    EXPECT_TRUE(gpusim::parseKernelStats(follow.payload, stats));
    // The registry drained once the flight completed.
    EXPECT_TRUE(eventually(
        [&] { return svc.context().simFlightsInFlight() == 0; }));
    svc.stop();
}

TEST(SingleFlight, FollowerCancelLeavesLeaderUndisturbed)
{
    ScratchDir scratch("sf_fcancel");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    ServiceClient a, b;
    ASSERT_TRUE(a.connect(scratch.socket()));
    ASSERT_TRUE(b.connect(scratch.socket()));
    uint64_t sims0 = simsRun();

    ASSERT_TRUE(a.sendSim("lead", "bfs", "full", slowConfig(1)));
    ASSERT_TRUE(eventually(
        [&] { return svc.context().simFlightsInFlight() == 1; }));
    ASSERT_TRUE(b.sendSim("follow", "bfs", "full", slowConfig(1)));
    ASSERT_TRUE(b.sendCancel("kill", "follow"));
    ASSERT_TRUE(b.await("kill").ok());

    Outcome follow = b.await("follow");
    EXPECT_EQ(follow.status, Outcome::Status::Error);
    EXPECT_EQ(follow.errorClass, "cancelled");
    // The leader never noticed: it serves, and exactly one sim ran.
    Outcome lead = a.await("lead");
    ASSERT_TRUE(lead.ok()) << lead.detail;
    EXPECT_FALSE(lead.coalesced);
    EXPECT_EQ(simsRun(), sims0 + 1);
    svc.stop();
}

TEST(SingleFlight, FollowerDeadlineExpiresWhileLeaderContinues)
{
    ScratchDir scratch("sf_fdl");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    ServiceClient a, b;
    ASSERT_TRUE(a.connect(scratch.socket()));
    ASSERT_TRUE(b.connect(scratch.socket()));
    uint64_t sims0 = simsRun();

    ASSERT_TRUE(a.sendSim("lead", "bfs", "full", slowConfig(2)));
    ASSERT_TRUE(eventually(
        [&] { return svc.context().simFlightsInFlight() == 1; }));
    // A 1 ms deadline expires while the follower waits on the
    // flight; its own token aborts the wait, the leader's does not.
    ASSERT_TRUE(
        b.sendSim("follow", "bfs", "full", slowConfig(2), 1.0));
    Outcome follow = b.await("follow");
    EXPECT_EQ(follow.status, Outcome::Status::Error);
    EXPECT_EQ(follow.errorClass, "deadline");

    Outcome lead = a.await("lead");
    ASSERT_TRUE(lead.ok()) << lead.detail;
    EXPECT_EQ(simsRun(), sims0 + 1);
    svc.stop();
}

TEST(SingleFlight, LeaderFailurePropagatesErrorClassToFollowers)
{
    ScratchDir scratch("sf_lfail");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    ServiceClient a, b;
    ASSERT_TRUE(a.connect(scratch.socket()));
    ASSERT_TRUE(b.connect(scratch.socket()));
    uint64_t joins0 = metric("memo.joins", "stats");

    ASSERT_TRUE(a.sendSim("lead", "bfs", "full", slowConfig(3)));
    ASSERT_TRUE(eventually(
        [&] { return svc.context().simFlightsInFlight() == 1; }));
    ASSERT_TRUE(b.sendSim("follow", "bfs", "full", slowConfig(3)));
    // Wait until the follower has demonstrably JOINED the flight —
    // cancelling the leader first would just let the follower start
    // a flight of its own and serve.
    ASSERT_TRUE(eventually([&] {
        return metric("memo.joins", "stats") == joins0 + 1;
    })) << "follower never joined the leader's flight";
    // Kill the LEADER: the follower must inherit the leader's error
    // class rather than hang or fabricate a success.
    ASSERT_TRUE(a.sendCancel("kill", "lead"));
    ASSERT_TRUE(a.await("kill").ok());
    Outcome lead = a.await("lead");
    EXPECT_EQ(lead.status, Outcome::Status::Error);
    EXPECT_EQ(lead.errorClass, "cancelled");
    Outcome follow = b.await("follow");
    EXPECT_EQ(follow.status, Outcome::Status::Error);
    EXPECT_EQ(follow.errorClass, "cancelled");

    // The failed flight retired without poisoning the key: the next
    // identical request re-executes and serves.
    uint64_t sims0 = simsRun();
    ASSERT_TRUE(b.sendSim("retry", "bfs", "full", slowConfig(3)));
    Outcome retry = b.await("retry");
    ASSERT_TRUE(retry.ok()) << retry.detail;
    EXPECT_EQ(simsRun(), sims0 + 1);
    svc.stop();
}

TEST(SingleFlight, SerialIdenticalRequestsNeverCountAsCoalesced)
{
    // The coalescing metrics must distinguish overlap from replay: a
    // serial replay of the same sim is a warm memo hit (zero
    // followers), while the parallel case (covered above) yields
    // followers == N-1. Both cost exactly one execution.
    ScratchDir scratch("sf_serial");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    ServiceClient c;
    ASSERT_TRUE(c.connect(scratch.socket()));
    uint64_t sims0 = simsRun();
    uint64_t followers0 = metric("service.coalesce.followers");

    ASSERT_TRUE(c.sendSim("one", "backprop", "tiny", slowConfig(4)));
    Outcome one = c.await("one");
    ASSERT_TRUE(one.ok()) << one.detail;
    ASSERT_TRUE(c.sendSim("two", "backprop", "tiny", slowConfig(4)));
    Outcome two = c.await("two");
    ASSERT_TRUE(two.ok()) << two.detail;

    EXPECT_EQ(two.lane, "warm");
    EXPECT_FALSE(one.coalesced);
    EXPECT_FALSE(two.coalesced);
    EXPECT_EQ(two.payload, one.payload);
    EXPECT_EQ(simsRun(), sims0 + 1);
    EXPECT_EQ(metric("service.coalesce.followers"), followers0);
    svc.stop();
}

// ---------------------------------------------------------------
// Stress: seeded multi-client flood.
// ---------------------------------------------------------------

TEST(Stress, SeededFloodRunsEachDistinctSimExactlyOnce)
{
    ScratchDir scratch("flood");
    ExperimentService svc(testConfig(scratch));
    ASSERT_TRUE(svc.start());

    // Prime one warm sim (the flood's warm traffic) and take the
    // baseline AFTER, so the acceptance criterion is exact: the
    // flood's cold pool has kPool distinct fingerprints, so the
    // flood may run exactly kPool simulations — memoization plus
    // single flight make every other serving free.
    {
        ServiceClient p;
        ASSERT_TRUE(p.connect(scratch.socket()));
        ASSERT_TRUE(p.sendSim("prime", "backprop", "tiny", "{}"));
        ASSERT_TRUE(p.await("prime").ok());
    }
    const int kClients = 8;
    const int kOps = 12;
    const int kPool = 6;
    auto poolConfig = [](int v) {
        return "{\"gmemLatencyCycles\":" + std::to_string(460 + v) +
               "}";
    };
    uint64_t sims0 = simsRun();

    // pool payloads seen, per variant, across every client — the
    // byte-identity assertion after the drain.
    std::mutex seenMu;
    std::vector<std::vector<std::string>> seen(kPool);
    std::vector<int> failures(kClients, 0);

    auto client = [&](int idx) {
        ServiceClient c;
        if (!c.connect(scratch.socket())) {
            failures[size_t(idx)] = 1000;
            return;
        }
        std::mt19937 rng(1000u + uint32_t(idx));
        // Client kClients-1 is the saboteur: warm-only traffic, then
        // a truncated line and a mid-stream hangup. Its teardown
        // must never cancel a pool execution some other client's
        // response depends on (warm requests touch no flight).
        bool saboteur = idx == kClients - 1;
        for (int r = 0; r < kOps; ++r) {
            std::string id = std::string("c")
                                 .append(std::to_string(idx))
                                 .append("r")
                                 .append(std::to_string(r));
            if (saboteur) {
                if (r == kOps / 2) {
                    c.sendRaw(R"({"op":"sim","id":"trunc")");
                    c.close();
                    return;
                }
                if (!c.sendSim(id, "backprop", "tiny", "{}") ||
                    !c.await(id).ok())
                    failures[size_t(idx)] += 1;
                continue;
            }
            // Every client covers the whole pool (op r hits variant
            // r % kPool), interleaved with seeded warm/stats/cancel
            // noise — so all kPool fingerprints are requested by all
            // clients and the exactly-once assertion is tight.
            switch (rng() % 4) {
            case 0: { // warm sim
                if (!c.sendSim(id, "backprop", "tiny", "{}") ||
                    !c.await(id).ok())
                    failures[size_t(idx)] += 1;
                break;
            }
            case 1: { // stats
                if (!c.sendStats(id) || !c.await(id).ok())
                    failures[size_t(idx)] += 1;
                break;
            }
            case 2: { // cancel of an already-finished id: rejected,
                      // never fatal, and never touches a flight
                if (!c.sendCancel(id, "no-such-" + id)) {
                    failures[size_t(idx)] += 1;
                    break;
                }
                if (c.await(id).status != Outcome::Status::Rejected)
                    failures[size_t(idx)] += 1;
                break;
            }
            default:
                break; // fall through to the pool sim below
            }
            int v = r % kPool;
            std::string sid = id + "p";
            bool batch = rng() % 3 == 0;
            if (batch) {
                // A 2-point sweep over pool variants: same dedup
                // rules, one admission unit.
                std::vector<std::string> sweep = {
                    poolConfig(v), poolConfig((v + 1) % kPool)};
                if (!c.sendBatch(sid, "backprop", "tiny", sweep)) {
                    failures[size_t(idx)] += 1;
                    continue;
                }
                Outcome out = c.await(sid);
                if (!out.ok() || out.points.size() != 2 ||
                    !out.points[0].ok || !out.points[1].ok) {
                    failures[size_t(idx)] += 1;
                    continue;
                }
                std::lock_guard<std::mutex> lock(seenMu);
                seen[size_t(v)].push_back(out.points[0].payload);
                seen[size_t((v + 1) % kPool)].push_back(
                    out.points[1].payload);
            } else {
                if (!c.sendSim(sid, "backprop", "tiny",
                               poolConfig(v))) {
                    failures[size_t(idx)] += 1;
                    continue;
                }
                Outcome out = c.await(sid);
                if (!out.ok()) {
                    failures[size_t(idx)] += 1;
                    continue;
                }
                std::lock_guard<std::mutex> lock(seenMu);
                seen[size_t(v)].push_back(out.payload);
            }
        }
    };

    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back(client, i);
    for (auto &t : threads)
        t.join();
    for (int i = 0; i < kClients; ++i)
        EXPECT_EQ(failures[size_t(i)], 0) << "client " << i;

    // Zero duplicate cold executions: sims computed == distinct
    // fingerprints in the pool.
    EXPECT_EQ(simsRun(), sims0 + uint64_t(kPool));
    // Byte-identical responses for every variant, across clients and
    // the single/batch paths.
    for (int v = 0; v < kPool; ++v) {
        ASSERT_FALSE(seen[size_t(v)].empty()) << "variant " << v;
        for (const auto &payload : seen[size_t(v)])
            EXPECT_EQ(payload, seen[size_t(v)].front())
                << "variant " << v << " diverged";
    }
    // Accounting settles to zero after the drain (the saboteur's
    // teardown included).
    EXPECT_TRUE(eventually([&] { return totalInFlight(svc) == 0; }))
        << totalInFlight(svc) << " still in flight";
    EXPECT_EQ(svc.admission().queueDepth(Lane::Cold), 0u);
    EXPECT_EQ(svc.admission().queueDepth(Lane::Warm), 0u);
    EXPECT_EQ(svc.context().simFlightsInFlight(), 0u);
    svc.stop();
}
