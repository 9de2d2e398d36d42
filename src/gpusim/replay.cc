#include "gpusim/replay.hh"

#include "gpusim/recorder.hh"

namespace rodinia {
namespace gpusim {

WarpReplayer::WarpReplayer(const BlockRecord &block, int warp_start,
                           int warp_size)
{
    int lanes = block.blockDim - warp_start;
    if (lanes > warp_size)
        lanes = warp_size;
    for (int l = 0; l < lanes; ++l) {
        cur[size_t(l)] = block.lane(warp_start + l);
        if (cur[size_t(l)].next(ev[size_t(l)]))
            live |= 1u << l;
    }
}

double
TraceStats::avgWarpOccupancy() const
{
    if (!warpInstructions)
        return 0.0;
    return double(threadInstructions) / double(warpInstructions);
}

std::array<double, 4>
TraceStats::occupancyFractions() const
{
    std::array<double, 4> out{};
    uint64_t total = 0;
    for (auto b : occupancyBuckets)
        total += b;
    if (!total)
        return out;
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = double(occupancyBuckets[i]) / double(total);
    return out;
}

std::array<double, 7>
TraceStats::memOpFractions() const
{
    std::array<double, 7> out{};
    uint64_t total = 0;
    for (auto m : memOps)
        total += m;
    if (!total)
        return out;
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = double(memOps[i]) / double(total);
    return out;
}

void
TraceStats::add(const TraceStats &o)
{
    warpInstructions += o.warpInstructions;
    threadInstructions += o.threadInstructions;
    for (size_t i = 0; i < occupancyBuckets.size(); ++i)
        occupancyBuckets[i] += o.occupancyBuckets[i];
    for (size_t i = 0; i < memOps.size(); ++i)
        memOps[i] += o.memOps[i];
}

namespace {

void
accumulate(TraceStats &stats, const KernelRecording &rec, int warp_size)
{
    WarpInst inst;
    for (const auto &block : rec.blocks) {
        for (int w = 0; w < warpsPerBlock(block.blockDim, warp_size); ++w) {
            WarpReplayer rep(block, w * warp_size, warp_size);
            while (rep.next(inst))
                stats.tally(inst);
        }
    }
}

} // namespace

TraceStats
analyzeTrace(const KernelRecording &rec, int warp_size)
{
    TraceStats stats;
    accumulate(stats, rec, warp_size);
    return stats;
}

TraceStats
analyzeTrace(const LaunchSequence &seq, int warp_size)
{
    TraceStats stats;
    for (const auto &rec : seq.launches)
        accumulate(stats, rec, warp_size);
    return stats;
}

} // namespace gpusim
} // namespace rodinia
