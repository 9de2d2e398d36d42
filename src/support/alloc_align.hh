/**
 * @file
 * Scoped deterministic allocation alignment.
 *
 * See alloc_align.cc for the full rationale. While at least one
 * DeterministicAllocScope is alive anywhere in the process, the
 * global operator new replacements pin every allocation's line/page
 * phase (under 64 B: line-aligned; otherwise page-aligned), making
 * line-straddle splits and page co-tenancy of traced addresses
 * process-independent (for arrays that may be under 64 B, see
 * pageAlignedVector). Outside any scope, allocation falls through
 * to plain malloc at full speed — the GPU simulator and the
 * statistics pipeline get their determinism from address rewriting
 * (gpusim::DeviceSpace) and need no help from the allocator.
 */

#ifndef RODINIA_SUPPORT_ALLOC_ALIGN_HH
#define RODINIA_SUPPORT_ALLOC_ALIGN_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace rodinia {
namespace support {

/** Under a scope, allocations of at least this many bytes are
 *  page-aligned; smaller ones are only line-aligned. */
inline constexpr std::size_t kPageAlignedMinBytes = 64;

/**
 * RAII guard enabling deterministic allocation alignment. Scopes
 * nest and may overlap across threads (the state is a process-wide
 * counter): alignment is active while any guard lives, so a CPU
 * characterization holds one across its whole workload run and
 * worker-thread allocations inside it are covered too.
 */
class DeterministicAllocScope
{
  public:
    DeterministicAllocScope();
    ~DeterministicAllocScope();
    DeterministicAllocScope(const DeterministicAllocScope &) = delete;
    DeterministicAllocScope &
    operator=(const DeterministicAllocScope &) = delete;
};

/** True while any DeterministicAllocScope is alive. */
bool deterministicAllocationActive();

/**
 * @p n value-initialized elements in a buffer of at least
 * kPageAlignedMinBytes, so that under a scope it is page-aligned and
 * shares no page with another allocation. For traced workload arrays
 * that can be shorter than that: a shorter buffer is only
 * line-aligned, and whether it lands on the page of another traced
 * array depends on the malloc arena's history, which moved the data
 * footprint (Figure 12) from run to run.
 */
template <typename T>
std::vector<T>
pageAlignedVector(std::size_t n)
{
    std::vector<T> v;
    v.reserve(std::max(n, (kPageAlignedMinBytes + sizeof(T) - 1) /
                              sizeof(T)));
    v.resize(n);
    return v;
}

} // namespace support
} // namespace rodinia

#endif // RODINIA_SUPPORT_ALLOC_ALIGN_HH
