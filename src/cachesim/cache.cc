#include "cachesim/cache.hh"

#include "cachesim/sweep.hh"
#include "support/logging.hh"
#include "trace/trace.hh"

namespace rodinia {
namespace cachesim {

namespace {

bool
isPow2(uint64_t v)
{
    return v && (v & (v - 1)) == 0;
}

} // namespace

void
CacheConfig::validate() const
{
    if (assoc <= 0 || lineBytes <= 0)
        fatal("CacheConfig: assoc (", assoc, ") and line size (",
              lineBytes, ") must be positive");
    if (!isPow2(uint64_t(lineBytes)))
        fatal("CacheConfig: line size ", lineBytes,
              " B must be a power of two");
    uint64_t set_bytes = uint64_t(assoc) * uint64_t(lineBytes);
    if (sizeBytes == 0 || sizeBytes % set_bytes != 0)
        fatal("CacheConfig: size ", sizeBytes,
              " B is not a positive multiple of assoc * line = ",
              set_bytes, " B (the set count would truncate)");
    if (!isPow2(sizeBytes / set_bytes))
        fatal("CacheConfig: ", sizeBytes / set_bytes,
              " sets; the set count must be a power of two for the "
              "masked index mapping");
}

uint64_t
CacheConfig::numSets() const
{
    validate();
    return sizeBytes / (uint64_t(assoc) * lineBytes);
}

std::vector<CacheStats>
sweepCacheSizes(const trace::TraceSession &session,
                const std::vector<uint64_t> &sizes_bytes, int assoc,
                int line_bytes)
{
    SweepConfig cfg;
    cfg.sizesBytes = sizes_bytes;
    cfg.assoc = assoc;
    cfg.lineBytes = line_bytes;
    return runSweep(session, cfg).stats;
}

std::vector<uint64_t>
paperCacheSizes()
{
    std::vector<uint64_t> sizes;
    for (uint64_t s = 128 * 1024; s <= 16 * 1024 * 1024; s *= 2)
        sizes.push_back(s);
    return sizes;
}

} // namespace cachesim
} // namespace rodinia
