#include "gpusim/warptrace.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "gpusim/recorder.hh"
#include "support/cancel.hh"
#include "support/logging.hh"

namespace rodinia {
namespace gpusim {

namespace {

/**
 * Append one instruction to a warp stream (see the file comment).
 * @p mask and @p base carry the stream's state between calls.
 */
void
encode(std::vector<uint8_t> &out, const WarpInst &inst, uint32_t &mask,
       uint64_t &base)
{
    uint8_t tag = uint8_t(uint8_t(inst.op) | (uint8_t(inst.space) << 3));
    if (inst.activeMask != mask)
        tag |= WarpTrace::kNewMask;
    if (inst.count != 1)
        tag |= WarpTrace::kCount;
    out.push_back(tag);
    if (tag & WarpTrace::kNewMask) {
        mask = inst.activeMask;
        support::putVarint(out, mask);
    }
    if (tag & WarpTrace::kCount)
        support::putVarint(out, inst.count);
    if (inst.op != GOp::Load && inst.op != GOp::Store)
        return;
    support::putVarint(out, inst.size);
    uint64_t prev = base;
    for (uint32_t m = mask; m; m &= m - 1) {
        uint64_t a = inst.addrs[size_t(__builtin_ctz(m))];
        support::putVarint(out, support::zigzag(int64_t(a - prev)));
        if (m == mask)
            base = a;
        prev = a;
    }
}

} // namespace

WarpTrace::Block::Block(const BlockRecord &rec, int warp_size,
                        std::vector<uint8_t> &scratch, TraceStats &stats)
    : blockDim(rec.blockDim), sharedBytes(rec.sharedBytes),
      nWarps(warpsPerBlock(rec.blockDim, warp_size))
{
    std::vector<uint32_t> ends(static_cast<size_t>(nWarps));
    scratch.clear();
    WarpInst inst;
    for (int w = 0; w < nWarps; ++w) {
        WarpReplayer rep(rec, w * warp_size, warp_size);
        uint32_t mask = 0;
        uint64_t base = 0;
        while (rep.next(inst)) {
            stats.tally(inst);
            encode(scratch, inst, mask, base);
        }
        if (scratch.size() > std::numeric_limits<uint32_t>::max())
            fatal("warp trace: a block's instructions exceed 4 GiB");
        ends[size_t(w)] = uint32_t(scratch.size());
    }
    size_t payloadWords = (scratch.size() + 3) / 4;
    words = std::make_unique<uint32_t[]>(size_t(nWarps) + payloadWords);
    std::copy(ends.begin(), ends.end(), words.get());
    if (!scratch.empty())
        std::memcpy(words.get() + nWarps, scratch.data(), scratch.size());
}

WarpTrace::WarpTrace(const KernelRecording &rec, int warp_size)
    : warpSize(warp_size)
{
    blocks.reserve(rec.blocks.size());
    std::vector<uint8_t> scratch;
    for (const auto &block : rec.blocks) {
        support::checkpointCancellation();
        blocks.emplace_back(block, warp_size, scratch, stats);
    }
}

uint64_t
WarpTrace::encodedBytes() const
{
    uint64_t n = 0;
    for (const auto &b : blocks)
        n += b.encodedBytes();
    return n;
}

uint64_t
WarpTrace::allocatedBytes() const
{
    uint64_t n = blocks.capacity() * sizeof(Block);
    for (const auto &b : blocks)
        n += b.allocatedBytes();
    return n;
}

SequenceTrace::SequenceTrace(const LaunchSequence &seq, int warp_size)
    : warpSize(warp_size)
{
    launches.reserve(seq.launches.size());
    for (const auto &rec : seq.launches) {
        launches.emplace_back(rec, warp_size);
        stats.add(launches.back().stats);
    }
}

uint64_t
SequenceTrace::encodedBytes() const
{
    uint64_t n = 0;
    for (const auto &l : launches)
        n += l.encodedBytes();
    return n;
}

uint64_t
SequenceTrace::allocatedBytes() const
{
    uint64_t n = launches.capacity() * sizeof(WarpTrace);
    for (const auto &l : launches)
        n += l.allocatedBytes();
    return n;
}

} // namespace gpusim
} // namespace rodinia
