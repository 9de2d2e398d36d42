/**
 * @file
 * Service stress layer (the service-stress CI lane).
 *
 * Two suites, named so the service-smoke lane's filter does not pick
 * them up:
 *
 *  - SingleFlight: coalescing edge cases over a live daemon —
 *    followers receive the leader's bytes while exactly one sim
 *    runs, a follower's cancel or deadline never disturbs the
 *    leader, a leader failure propagates its error class to every
 *    follower (and the next identical request re-executes), and
 *    serial identical requests never count as coalesced.
 *
 *  - Stress: a seeded multi-client flood (mixed warm/cold/pipelined/
 *    cancel plus a mid-stream disconnect) asserting the acceptance
 *    criterion directly: sims computed == distinct fingerprints
 *    requested, responses byte-identical across every client, and
 *    accounting settled to zero after the drain.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "driver/context.hh"
#include "gpusim/timing.hh"
#include "service/admission.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "support/metrics.hh"

using namespace rodinia;
using service::ExperimentService;
using service::Lane;
using service::Outcome;
using service::ServiceClient;
using service::ServiceConfig;

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
    uint64_t records0 = metric("gpusim.record.calls");

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
            bool pipelined = rng() % 3 == 0;
            if (pipelined) {
                // Two pool sims in flight on one connection, awaited
                // in reverse order: the client buffers the first
                // one's responses while it waits for the second.
                int w = (v + 1) % kPool;
                std::string sid2 = id + "q";
                if (!c.sendSim(sid, "backprop", "tiny", poolConfig(v)) ||
                    !c.sendSim(sid2, "backprop", "tiny",
                               poolConfig(w))) {
                    failures[size_t(idx)] += 1;
                    continue;
                }
                Outcome second = c.await(sid2);
                Outcome first = c.await(sid);
                if (!first.ok() || !second.ok()) {
                    failures[size_t(idx)] += 1;
                    continue;
                }
                std::lock_guard<std::mutex> lock(seenMu);
                seen[size_t(v)].push_back(first.payload);
                seen[size_t(w)].push_back(second.payload);
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
    // No recording outlives its request, so each executed sim may
    // record the kernel, but never more than once; sims in flight
    // together share one recording.
    EXPECT_LE(metric("gpusim.record.calls"), records0 + uint64_t(kPool));
    // Byte-identical responses for every variant, across clients.
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
