#include "gpusim/simconfig.hh"

#include <sstream>

#include "support/logging.hh"

namespace rodinia {
namespace gpusim {

namespace {

bool
isPow2(uint64_t v)
{
    return v && (v & (v - 1)) == 0;
}

} // namespace

std::string
SimConfig::check() const
{
    auto msg = [](auto &&...parts) {
        return detail::concatMessage(
            std::forward<decltype(parts)>(parts)...);
    };
    if (numSms <= 0)
        return msg("SimConfig: numSms (", numSms,
                   ") must be positive");
    if (warpSize <= 0 || warpSize > 32)
        return msg("SimConfig: warpSize (", warpSize,
                   ") must be in [1, 32] (the replayer models 32 "
                   "lanes)");
    if (simdWidth <= 0)
        return msg("SimConfig: simdWidth (", simdWidth,
                   ") must be positive");
    if (warpSize % simdWidth != 0)
        return msg("SimConfig: warpSize (", warpSize,
                   ") must be a multiple of simdWidth (", simdWidth,
                   ") for a whole number of issue cycles");
    if (maxThreadsPerSm <= 0 || maxCtasPerSm <= 0)
        return msg("SimConfig: maxThreadsPerSm (", maxThreadsPerSm,
                   ") and maxCtasPerSm (", maxCtasPerSm,
                   ") must be positive");
    if (regFileSize <= 0 || regsPerThread <= 0)
        return msg("SimConfig: regFileSize (", regFileSize,
                   ") and regsPerThread (", regsPerThread,
                   ") must be positive");
    if (sharedBanks <= 0)
        return msg("SimConfig: sharedBanks (", sharedBanks,
                   ") must be positive (bank index is addr mod "
                   "banks)");
    if (coreClockGhz <= 0.0 || memClockGhz <= 0.0)
        return msg("SimConfig: clocks (core ", coreClockGhz,
                   " GHz, mem ", memClockGhz, " GHz) must be "
                   "positive");
    if (addressAluPerMem < 0)
        return msg("SimConfig: addressAluPerMem (", addressAluPerMem,
                   ") must be non-negative");
    if (numChannels <= 0)
        return msg("SimConfig: numChannels (", numChannels,
                   ") must be positive (channel index is addr mod "
                   "channels)");
    if (dramBusBytes <= 0)
        return msg("SimConfig: dramBusBytes (", dramBusBytes,
                   ") must be positive");
    if (!isPow2(uint64_t(coalesceBytes)))
        return msg("SimConfig: coalesceBytes (", coalesceBytes,
                   ") must be a power of two (transaction "
                   "segmentation)");
    if (gmemLatencyCycles < 0 || launchOverheadCycles < 0)
        return msg("SimConfig: latencies must be non-negative");
    if (texCacheBytes == 0 || constCacheBytes == 0)
        return msg("SimConfig: texture and constant caches must "
                   "have non-zero capacity (every SM instantiates "
                   "them)");
    if (l1Enabled && !isPow2(uint64_t(l1LineBytes)))
        return msg("SimConfig: l1LineBytes (", l1LineBytes,
                   ") must be a power of two");
    if (l2Enabled && !isPow2(uint64_t(l2LineBytes)))
        return msg("SimConfig: l2LineBytes (", l2LineBytes,
                   ") must be a power of two");
    if (l1Enabled && l1Bytes + sharedMemPerSm != 64 * 1024)
        return msg("SimConfig: inconsistent Fermi split — l1Bytes (",
                   l1Bytes, ") + sharedMemPerSm (", sharedMemPerSm,
                   ") must equal the 64 kB configurable SM memory");
    if (l2Enabled && l2Bytes == 0)
        return msg("SimConfig: l2Enabled with zero l2Bytes");
    if (simThreads < 0)
        return msg("SimConfig: simThreads (", simThreads,
                   ") must be non-negative (0 = one per SM)");
    return "";
}

void
SimConfig::validate() const
{
    if (std::string err = check(); !err.empty())
        fatal(err);
}

std::string
SimConfig::fingerprint() const
{
    // Stable key=value list covering EVERY architectural field; ints
    // and bools print exactly, clocks are scaled to integral MHz
    // (every preset and sweep uses whole MHz) so no float formatting
    // is involved. simThreads is a runtime option, not architecture:
    // the engine is bit-identical at every lane-runner count, so
    // including it would only split the store key space for equal
    // results.
    std::ostringstream os;
    os << "sms=" << numSms << ";warp=" << warpSize
       << ";simd=" << simdWidth << ";thr=" << maxThreadsPerSm
       << ";ctas=" << maxCtasPerSm << ";regs=" << regFileSize
       << ";rpt=" << regsPerThread << ";smem=" << sharedMemPerSm
       << ";bank=" << (bankConflictsEnabled ? 1 : 0)
       << ";banks=" << sharedBanks
       << ";core=" << int64_t(coreClockGhz * 1000.0 + 0.5)
       << ";mem=" << int64_t(memClockGhz * 1000.0 + 0.5)
       << ";alu=" << addressAluPerMem << ";ch=" << numChannels
       << ";bus=" << dramBusBytes << ";coal=" << coalesceBytes
       << ";glat=" << gmemLatencyCycles
       << ";launch=" << launchOverheadCycles
       << ";tex=" << texCacheBytes << ";cst=" << constCacheBytes
       << ";texlat=" << texHitLatency << ";cstlat=" << constHitLatency
       << ";l1=" << (l1Enabled ? 1 : 0) << ";l1b=" << l1Bytes
       << ";l1line=" << l1LineBytes << ";l1lat=" << l1HitLatency
       << ";l2=" << (l2Enabled ? 1 : 0) << ";l2b=" << l2Bytes
       << ";l2line=" << l2LineBytes << ";l2lat=" << l2HitLatency;
    return os.str();
}

SimConfig
SimConfig::gpgpusimDefault()
{
    return SimConfig{};
}

SimConfig
SimConfig::shaders(int num_sms)
{
    SimConfig cfg;
    cfg.numSms = num_sms;
    return cfg;
}

SimConfig
SimConfig::gtx280()
{
    SimConfig cfg;
    cfg.numSms = 30;
    cfg.coreClockGhz = 1.3;
    cfg.memClockGhz = 2.2;
    cfg.sharedMemPerSm = 16 * 1024;
    cfg.numChannels = 8;
    cfg.l1Enabled = false;
    cfg.l2Enabled = false;
    return cfg;
}

SimConfig
SimConfig::gtx480(bool l1_bias)
{
    SimConfig cfg;
    cfg.numSms = 15;
    cfg.coreClockGhz = 1.4;
    cfg.memClockGhz = 3.6;
    cfg.maxThreadsPerSm = 1536;
    cfg.regFileSize = 32768;
    cfg.numChannels = 6;
    cfg.l1Enabled = true;
    cfg.l2Enabled = true;
    cfg.l2Bytes = 768 * 1024;
    if (l1_bias) {
        cfg.l1Bytes = 48 * 1024;
        cfg.sharedMemPerSm = 16 * 1024;
    } else {
        cfg.l1Bytes = 16 * 1024;
        cfg.sharedMemPerSm = 48 * 1024;
    }
    return cfg;
}

} // namespace gpusim
} // namespace rodinia
