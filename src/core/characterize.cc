#include "core/characterize.hh"

#include "support/alloc_align.hh"
#include "support/logging.hh"

namespace rodinia {
namespace core {

std::vector<double>
CpuCharacterization::instrMixFeatures() const
{
    double total = double(mix.total());
    if (total <= 0.0)
        return {0.0, 0.0, 0.0, 0.0, 0.0};
    return {
        mix.intOps / total,   mix.fpOps / total, mix.branches / total,
        mix.loads / total,    mix.stores / total,
    };
}

std::vector<double>
CpuCharacterization::workingSetFeatures() const
{
    std::vector<double> out;
    out.reserve(sweep.size());
    for (const auto &s : sweep)
        out.push_back(s.missRate());
    return out;
}

std::vector<double>
CpuCharacterization::sharingFeatures() const
{
    std::vector<double> out;
    out.reserve(sweep.size() * 2);
    for (const auto &s : sweep)
        out.push_back(s.sharedLineFraction());
    for (const auto &s : sweep)
        out.push_back(s.sharedAccessFraction());
    return out;
}

std::vector<double>
CpuCharacterization::allFeatures() const
{
    std::vector<double> out = instrMixFeatures();
    auto ws = workingSetFeatures();
    auto sh = sharingFeatures();
    out.insert(out.end(), ws.begin(), ws.end());
    out.insert(out.end(), sh.begin(), sh.end());
    return out;
}

std::vector<std::string>
CpuCharacterization::instrMixFeatureNames()
{
    return {"int", "fp", "branch", "load", "store"};
}

namespace {

std::string
sizeLabel(uint64_t bytes)
{
    if (bytes >= 1024 * 1024)
        return std::to_string(bytes / (1024 * 1024)) + "MB";
    return std::to_string(bytes / 1024) + "kB";
}

} // namespace

std::vector<std::string>
CpuCharacterization::workingSetFeatureNames(
    const std::vector<uint64_t> &sizes)
{
    std::vector<std::string> out;
    for (uint64_t s : sizes)
        out.push_back("miss@" + sizeLabel(s));
    return out;
}

std::vector<std::string>
CpuCharacterization::sharingFeatureNames(const std::vector<uint64_t> &sizes)
{
    std::vector<std::string> out;
    for (uint64_t s : sizes)
        out.push_back("shline@" + sizeLabel(s));
    for (uint64_t s : sizes)
        out.push_back("shacc@" + sizeLabel(s));
    return out;
}

CpuCharacterization
characterizeCpu(Workload &workload, Scale scale, int threads)
{
    CpuCharacterization out;
    out.name = workload.info().name;
    out.suite = workload.info().suite;
    out.threads = threads;

    trace::TraceSession session(threads, true);
    {
        // Pin every workload allocation's line/page phase so the
        // traced addresses group (straddle lines, share pages) the
        // same way in every process; see support/alloc_align.hh.
        support::DeterministicAllocScope alignScope;
        workload.runCpu(session, scale);
    }
    // Canonical page layout: metrics must not depend on where the
    // heap landed this run (ASLR), only on what the workload did.
    session.normalizeAddresses();

    out.mix = session.totalMix();
    out.memEvents = session.totalEvents();
    out.instructionSites = session.instructionSites();
    out.instructionBlocks = session.instructionFootprintBlocks();
    out.dataPages = session.dataFootprintPages();
    out.checksum = workload.checksum();

    out.cacheSizes = cachesim::paperCacheSizes();
    cachesim::SweepConfig sweep_cfg;
    sweep_cfg.sizesBytes = out.cacheSizes;
    cachesim::SweepResult swept = cachesim::runSweep(session, sweep_cfg);
    out.sweep = std::move(swept.stats);
    out.sweepLineAccesses = swept.lineAccesses;
    out.sweepReplaySeconds = swept.replaySeconds;
    return out;
}

GpuCharacterization
characterizeGpu(Workload &workload, Scale scale,
                const gpusim::SimConfig &config, int version)
{
    if (workload.gpuVersions() < version)
        fatal("workload '", workload.info().name,
              "' has no GPU version ", version);

    GpuCharacterization out;
    out.name = workload.info().name;
    out.version = version;

    gpusim::TimingSim sim(config);
    // One replay serves both: the trace carries its own analysis. The
    // recording is freed once the trace is built.
    gpusim::SequenceTrace trace(workload.runGpu(scale, version),
                                config.warpSize);
    out.trace = trace.stats;
    out.timing = sim.simulate(trace);
    return out;
}

std::string
suiteTag(Suite suite)
{
    switch (suite) {
      case Suite::Rodinia:
        return "(R)";
      case Suite::Parsec:
        return "(P)";
      case Suite::Both:
      default:
        return "(R, P)";
    }
}

} // namespace core
} // namespace rodinia
