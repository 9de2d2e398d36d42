/**
 * @file
 * StreamCluster online clustering (shared by Rodinia and Parsec;
 * Dense Linear Algebra dwarf).
 *
 * The pgain kernel of the streaming k-median heuristic: for each
 * candidate center, every point evaluates whether switching to the
 * candidate lowers its assignment cost; per-candidate gains decide
 * whether to open the center. Candidate coordinates live in shared
 * memory on the GPU. The paper includes StreamCluster in both suites
 * ("streamcluster(R, P)" in Fig. 6).
 */

#ifndef RODINIA_WORKLOADS_RODINIA_STREAMCLUSTER_HH
#define RODINIA_WORKLOADS_RODINIA_STREAMCLUSTER_HH

#include <vector>

#include "core/workload.hh"
// For streamcluster.cc's pageAlignedVector. Included here because
// that file's line numbers key its GPU kernel's recorded
// instructions (gpusim/kernel.hh): a line added there changes the
// kernel's content hash and every store key derived from it.
#include "support/alloc_align.hh"

namespace rodinia {
namespace workloads {

class StreamCluster : public core::Workload
{
  public:
    struct Params
    {
        int n;          //!< points per block
        int d;          //!< dimensions
        int candidates; //!< candidate centers evaluated
    };

    static Params params(core::Scale scale);

    const core::WorkloadInfo &info() const override;
    void runCpu(trace::TraceSession &session, core::Scale scale) override;
    int gpuVersions() const override { return 1; }
    gpusim::LaunchSequence runGpu(core::Scale scale, int version) override;
    uint64_t checksum() const override { return digest; }

  private:
    uint64_t digest = 0;
};

void registerStreamcluster();

} // namespace workloads
} // namespace rodinia

#endif // RODINIA_WORKLOADS_RODINIA_STREAMCLUSTER_HH
