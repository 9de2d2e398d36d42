#include "workloads/parsec/parsec.hh"

#include <atomic>
#include <mutex>

#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "canneal",
    "Canneal",
    core::Suite::Parsec,
    "Unstructured Grid",
    "Engineering",
    "65536 netlist elements, 8192 swaps/thread",
    "Simulated-annealing routing-cost minimization of a netlist",
    "262144 elements, 16384 swaps/thread",
};

} // namespace

const core::WorkloadInfo &
Canneal::info() const
{
    return kInfo;
}

void
Canneal::runCpu(trace::TraceSession &session, core::Scale scale)
{
    int elements, swapsPerThread;
    switch (scale) {
      case core::Scale::Tiny:
        elements = 4096;
        swapsPerThread = 512;
        break;
      case core::Scale::Small:
        elements = 16384;
        swapsPerThread = 2048;
        break;
      case core::Scale::Paper:
        elements = 262144;
        swapsPerThread = 16384;
        break;
      default:
        elements = 65536;
        swapsPerThread = 8192;
        break;
    }
    const int fanout = 4;

    Rng rng(0xCA2);
    // Placement: x/y location per element; netlist: random fanout.
    std::vector<int> locX(elements), locY(elements);
    std::vector<int> nets(size_t(elements) * fanout);
    for (int i = 0; i < elements; ++i) {
        locX[i] = int(rng.below(1024));
        locY[i] = int(rng.below(1024));
        for (int f = 0; f < fanout; ++f)
            nets[size_t(i) * fanout + f] =
                int(rng.below(uint64_t(elements)));
    }
    // Striped locks, as canneal's lock-free swaps would contend.
    constexpr int kLocks = 64;
    std::mutex locks[kLocks];
    // Cost evaluations read placements without the locks while other
    // threads swap them under theirs, as canneal does: every placement
    // access is a relaxed atomic, so the reads race benignly.
    auto swapAt = [](std::vector<int> &v, int a, int b) {
        std::atomic_ref<int> ra(v[size_t(a)]), rb(v[size_t(b)]);
        int va = ra.load(std::memory_order_relaxed);
        ra.store(rb.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
        rb.store(va, std::memory_order_relaxed);
    };

    auto wireCost = [&](trace::ThreadCtx &ctx, int e) {
        int cost = 0;
        int ex = ctx.ldShared(&locX[e]);
        int ey = ctx.ldShared(&locY[e]);
        for (int f = 0; f < fanout; ++f) {
            int o = ctx.ld(&nets[size_t(e) * fanout + f]);
            int ox = ctx.ldShared(&locX[o]);
            int oy = ctx.ldShared(&locY[o]);
            ctx.alu(6);
            cost += std::abs(ex - ox) + std::abs(ey - oy);
        }
        return cost;
    };

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(40 * 1024);
        const int t = ctx.tid();
        Rng local(0xA43E + t);
        double temperature = 100.0;

        for (int s = 0; s < swapsPerThread; ++s) {
            int a = int(local.below(uint64_t(elements)));
            int b = int(local.below(uint64_t(elements)));
            if (a == b)
                continue;
            ctx.alu(4);

            int before = wireCost(ctx, a) + wireCost(ctx, b);
            // Tentatively swap under the striped locks.
            std::scoped_lock lock(locks[a % kLocks],
                                  locks[(b % kLocks) == (a % kLocks)
                                            ? (b % kLocks + 1) % kLocks
                                            : b % kLocks]);
            swapAt(locX, a, b);
            swapAt(locY, a, b);
            ctx.store(&locX[a], 4);
            ctx.store(&locX[b], 4);
            ctx.store(&locY[a], 4);
            ctx.store(&locY[b], 4);
            int after = wireCost(ctx, a) + wireCost(ctx, b);

            ctx.branch();
            // Draw the acceptance variate unconditionally: a
            // short-circuited draw would advance the RNG stream only
            // when the (cross-thread, timing-dependent) cost delta is
            // unfavorable, and every later swap's addresses depend on
            // the stream position.
            double u = local.uniform();
            bool accept = after < before ||
                          u < std::exp((before - after) / temperature);
            if (!accept) {
                swapAt(locX, a, b);
                swapAt(locY, a, b);
            }
            // Final-placement write-back: the same four stores are
            // recorded whether the swap committed or reverted, so
            // the recorded trace is a pure function of the
            // thread-local RNG stream even though acceptance reads
            // cross-thread placement values whose timing races.
            ctx.store(&locX[a], 4);
            ctx.store(&locX[b], 4);
            ctx.store(&locY[a], 4);
            ctx.store(&locY[b], 4);
            temperature *= 0.9995;
        }
    });

    // Deterministic *structure*, thread-interleaving-dependent values:
    // digest over the final total cost bucketed coarsely.
    long long total = 0;
    for (int i = 0; i < elements; ++i) {
        for (int f = 0; f < fanout; ++f) {
            int o = nets[size_t(i) * fanout + f];
            total += std::abs(locX[i] - locX[o]) +
                     std::abs(locY[i] - locY[o]);
        }
    }
    digest = uint64_t(total / 1000000);
}

void
registerCanneal()
{
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<Canneal>(); });
}

} // namespace workloads
} // namespace rodinia
