#include "gpusim/devicemem.hh"

#include <algorithm>
#include <unordered_map>

#include "support/logging.hh"

namespace rodinia {
namespace gpusim {

void
DeviceSpace::add(const void *p, size_t bytes)
{
    if (p == nullptr || bytes == 0)
        return;
    Buffer b;
    b.base = uint64_t(uintptr_t(p));
    b.bytes = bytes;
    b.canonical = top;
    top = (top + bytes + kAlign - 1) / kAlign * kAlign;

    auto it = std::upper_bound(buffers.begin(), buffers.end(), b,
                               [](const Buffer &x, const Buffer &y) {
                                   return x.base < y.base;
                               });
    // Overlap would make the address -> buffer lookup ambiguous; it
    // means a registered buffer died and its storage was reused.
    if (it != buffers.end() && b.base + b.bytes > it->base)
        fatal("DeviceSpace: buffer overlaps a later registration");
    if (it != buffers.begin()) {
        const Buffer &prev = *(it - 1);
        if (prev.base + prev.bytes > b.base)
            fatal("DeviceSpace: buffer overlaps an earlier registration");
    }
    buffers.insert(it, b);
}

void
DeviceSpace::rewrite(LaunchSequence &seq) const
{
    // First-touch page map for addresses in no registered buffer
    // (stack scalars referenced via ctx.param(&x) and the like).
    std::unordered_map<uint64_t, uint64_t> hostPages;

    // One-entry buffer cache: consecutive events overwhelmingly hit
    // the same registered buffer, so try the previous match before
    // paying the binary search.
    const Buffer *lastBuf = nullptr;
    auto remap = [&](uint64_t addr) -> uint64_t {
        if (lastBuf && addr - lastBuf->base < lastBuf->bytes)
            return lastBuf->canonical + (addr - lastBuf->base);
        // Registered buffer: canonical base + offset.
        auto it = std::upper_bound(
            buffers.begin(), buffers.end(), addr,
            [](uint64_t a, const Buffer &x) { return a < x.base; });
        if (it != buffers.begin()) {
            const Buffer &b = *(it - 1);
            if (addr - b.base < b.bytes) {
                lastBuf = &b;
                return b.canonical + (addr - b.base);
            }
        }
        // Fallback: deterministic page-granular relocation.
        uint64_t page = addr >> 12;
        auto [slot, fresh] =
            hostPages.try_emplace(page, kHostBase >> 12);
        if (fresh)
            slot->second = (kHostBase >> 12) + hostPages.size() - 1;
        return (slot->second << 12) | (addr & 0xfff);
    };

    // Each block is decoded lane by lane, remapped and re-encoded
    // into a fresh sealed block that replaces it, so the rewrite
    // holds at most one extra block at a time.
    std::vector<LaneStream> lanes;
    GEvent e;
    for (auto &launch : seq.launches) {
        for (auto &block : launch.blocks) {
            lanes.resize(size_t(block.blockDim));
            for (int l = 0; l < block.blockDim; ++l) {
                LaneStream &out = lanes[size_t(l)];
                out.clear();
                for (LaneStream::Cursor c = block.lane(l); c.next(e);) {
                    if ((e.op == GOp::Load || e.op == GOp::Store) &&
                        e.space != Space::Shared && e.space != Space::None)
                        e.addr = remap(e.addr);
                    out.append(e);
                }
            }
            block = BlockRecord(lanes, block.sharedBytes);
        }
    }
}

} // namespace gpusim
} // namespace rodinia
