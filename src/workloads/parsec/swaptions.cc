#include "workloads/parsec/parsec.hh"

#include <cmath>

#include "support/alloc_align.hh"
#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "swaptions",
    "Swaptions",
    core::Suite::Parsec,
    "MapReduce",
    "Financial Analysis",
    "16 swaptions, 1024 paths each",
    "Monte-Carlo swaption pricing over simulated HJM rate paths",
    "64 swaptions, 8192 paths (simlarge)",
};

} // namespace

const core::WorkloadInfo &
Swaptions::info() const
{
    return kInfo;
}

void
Swaptions::runCpu(trace::TraceSession &session, core::Scale scale)
{
    int numSwaptions, paths;
    const int steps = 20, tenors = 8;
    switch (scale) {
      case core::Scale::Tiny:
        numSwaptions = 4;
        paths = 128;
        break;
      case core::Scale::Small:
        numSwaptions = 8;
        paths = 512;
        break;
      case core::Scale::Paper:
        numSwaptions = 64;
        paths = 8192;
        break;
      default:
        numSwaptions = 16;
        paths = 1024;
        break;
    }

    Rng rng(0x5A3);
    struct Swaption
    {
        float strike;
        float maturity;
        float vol;
    };
    // Every traced array gets a page to itself (support/alloc_align).
    auto swaptions = support::pageAlignedVector<Swaption>(numSwaptions);
    for (auto &s : swaptions) {
        s.strike = float(rng.uniform(0.02, 0.08));
        s.maturity = float(rng.uniform(1.0, 5.0));
        s.vol = float(rng.uniform(0.05, 0.25));
    }
    auto forward = support::pageAlignedVector<float>(tenors);
    for (auto &f : forward)
        f = float(rng.uniform(0.02, 0.06));
    auto prices = support::pageAlignedVector<double>(numSwaptions);
    const int nt = session.numThreads();
    const int work = numSwaptions * paths;

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(30 * 1024);
        const int t = ctx.tid();
        const int lo = work * t / nt;
        const int hi = work * (t + 1) / nt;
        std::vector<double> local(numSwaptions, 0.0);
        float rates[tenors];

        for (int w = lo; w < hi; ++w) {
            int sw = w / paths;
            int path = w % paths;
            ctx.load(&swaptions[sw], 12);
            Rng prng(uint64_t(sw) * 100003 + path);

            for (int k = 0; k < tenors; ++k) {
                ctx.load(&forward[k], 4);
                rates[k] = forward[k];
            }
            // Evolve the forward curve (HJM-style lognormal shocks).
            float dt = swaptions[sw].maturity / steps;
            for (int s = 0; s < steps; ++s) {
                float z = float(prng.gaussian());
                ctx.fp(4 * tenors + 2);
                for (int k = 0; k < tenors; ++k) {
                    float drift = 0.5f * swaptions[sw].vol *
                                  swaptions[sw].vol * dt;
                    rates[k] *= std::exp(
                        (drift - 0.0f) +
                        swaptions[sw].vol * std::sqrt(dt) * z *
                            (1.0f - 0.05f * k));
                }
            }
            // Payoff: positive part of the par-swap spread.
            float swapRate = 0.0f;
            for (int k = 0; k < tenors; ++k) {
                ctx.fp(1);
                swapRate += rates[k];
            }
            swapRate /= float(tenors);
            float payoff =
                std::max(0.0f, swapRate - swaptions[sw].strike);
            float discount =
                std::exp(-rates[0] * swaptions[sw].maturity);
            ctx.fp(6);
            local[sw] += double(payoff) * discount;
            ctx.branch();
        }

        ctx.barrier();
        // Deterministic reduction: thread 0 would need local arrays;
        // instead each thread adds under an implied order using the
        // barrier ladder (thread k adds at step k).
        for (int turn = 0; turn < ctx.numThreads(); ++turn) {
            if (turn == t) {
                for (int sw = 0; sw < numSwaptions; ++sw) {
                    ctx.load(&prices[sw], 8);
                    ctx.fp(1);
                    prices[sw] += local[sw];
                    ctx.store(&prices[sw], 8);
                }
            }
            ctx.barrier();
        }
    });

    for (auto &p : prices)
        p /= paths;
    digest = core::hashRange(prices.begin(), prices.end());
}

void
registerSwaptions()
{
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<Swaptions>(); });
}

} // namespace workloads
} // namespace rodinia
