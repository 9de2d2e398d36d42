/**
 * @file
 * Scoped global allocation alignment for reproducible address
 * grouping.
 *
 * The characterization pipeline canonicalizes raw addresses by
 * first-touch order (trace::TraceSession::normalizeAddresses), which
 * makes page/line *identities* process-independent. What it cannot
 * repair is *grouping*: whether a 12-byte access straddles a 64 B
 * line, or whether two small arrays share a 4 kB page, is decided by
 * each allocation's base address modulo the line/page size — and
 * glibc hands threads malloc arenas by a timing-dependent trylock
 * race, so an allocation's phase drifts with scheduling history.
 *
 * These operator new replacements pin the phase instead of the
 * address: while a support::DeterministicAllocScope is alive, every
 * allocation of 64 bytes or more is page-aligned (so no two
 * allocations ever share a page), and smaller ones are line-aligned
 * (so no two ever share a 64 B line). Line-straddle splits and
 * page/line grouping are then pure functions of the allocation's
 * internal layout, independent of which arena served it — except
 * which page a small allocation lands on, so a traced array that can
 * be shorter than 64 B is built with pageAlignedVector.
 *
 * The alignment is scoped — core::characterizeCpu holds a scope
 * across the traced workload run — because pinning is not free:
 * page-aligning every vector in the process roughly doubles the GPU
 * simulator's wall clock (posix_memalign over-allocates, and
 * same-page locality between small hot allocations is lost). Only
 * traced CPU-workload data needs pinned phase; everything else runs
 * on plain malloc.
 *
 * Linked into every binary via the anchor referenced from
 * logging.cc (a plain static-archive member with no referenced
 * symbol would be dropped by the linker).
 */

#include "support/alloc_align.hh"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "support/faultinject.hh"

namespace {

std::atomic<int> liveScopes{0};

} // namespace

namespace rodinia {
namespace support {

// Referenced from logging.cc purely to pull this object file out of
// the static archive.
int allocAlignAnchor = 0;

DeterministicAllocScope::DeterministicAllocScope()
{
    liveScopes.fetch_add(1, std::memory_order_relaxed);
}

DeterministicAllocScope::~DeterministicAllocScope()
{
    liveScopes.fetch_sub(1, std::memory_order_relaxed);
}

bool
deterministicAllocationActive()
{
    return liveScopes.load(std::memory_order_relaxed) > 0;
}

} // namespace support
} // namespace rodinia

namespace {

constexpr std::size_t kLine = 64;
constexpr std::size_t kPage = 4096;

void *
alignedAlloc(std::size_t size, std::size_t minAlign)
{
    // Injected allocation failure (armed per-thread by the executor
    // around job bodies; a no-op single thread-local read otherwise).
    // Bypasses the new_handler loop: an injected failure models
    // exhaustion that no handler could relieve.
    if (rodinia::support::FaultInjector::shouldFailAlloc())
        return nullptr;
    if (size == 0)
        size = 1;
    std::size_t align = minAlign;
    if (rodinia::support::deterministicAllocationActive()) {
        std::size_t pin =
            size < rodinia::support::kPageAlignedMinBytes ? kLine : kPage;
        if (align < pin)
            align = pin;
    }
    for (;;) {
        void *p = nullptr;
        if (align <= alignof(std::max_align_t)) {
            p = std::malloc(size);
            if (p)
                return p;
        } else if (posix_memalign(&p, align, size) == 0) {
            return p;
        }
        std::new_handler h = std::get_new_handler();
        if (!h)
            return nullptr;
        h();
    }
}

} // namespace

void *
operator new(std::size_t size)
{
    void *p = alignedAlloc(size, alignof(std::max_align_t));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    void *p = alignedAlloc(size, std::size_t(align));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return alignedAlloc(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return alignedAlloc(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return alignedAlloc(size, std::size_t(align));
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return alignedAlloc(size, std::size_t(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
