/**
 * @file
 * The paper's figures and tables as driver experiments.
 *
 * Every figure/table reproduced from the paper is one FigureDef: an
 * id for the CLI, the bench harness title, the figure's declared
 * inputs, and a render function. A GPU figure declares each input
 * once, as points: the (workload, scale, version, SimConfig) timing
 * simulations — every one of its sim kernels under every one of its
 * configs — and the trace analyses it reads. A CPU figure declares
 * that it consumes the 25 characterizations. The render function
 * turns the memoized results of those inputs into the figure text;
 * it reads results in declaration order, so no config list is
 * written twice.
 *
 * The points are what the callers schedule. The experiments CLI
 * merges the points of every selected figure into one `gpu:` job per
 * distinct kernel (kernelWork, Context::settle) and one job per CPU
 * characterization, and makes each figure job depend on its inputs;
 * buildFigure runs the same per-kernel pass for the daemon and the
 * tests. A render therefore never records and never simulates: the
 * results it reads are settled before it runs.
 *
 * Renders assemble output in a fixed order from per-point results, so
 * the pool's schedule cannot change the produced text.
 */

#ifndef RODINIA_DRIVER_FIGURES_HH
#define RODINIA_DRIVER_FIGURES_HH

#include <string>
#include <vector>

#include "driver/context.hh"

namespace rodinia {
namespace driver {

/**
 * The problem-size tier the figure builders characterize and replay
 * (defaults to Scale::Full). The experiments CLI sets this from its
 * --scale flag before building anything; ablation and sensitivity
 * figures that intentionally run at Scale::Small are unaffected.
 * Not synchronized: set it once at startup, before the pool runs.
 */
core::Scale primaryScale();
void setPrimaryScale(core::Scale scale);

/** One GPU kernel a figure reads: a workload's recording at a scale. */
struct GpuDep
{
    std::string workload;
    core::Scale scale = core::Scale::Full;
    int version = 0; //!< 0 = shipped (most optimized) version
};

/** One reproducible figure/table of the paper. */
struct FigureDef
{
    std::string id;    //!< CLI id, e.g. "fig4"
    std::string title; //!< harness title, e.g. "fig4/channels"
    /** The figure text, from the memoized results of the declared
     *  inputs (see the file comment). */
    std::string (*render)(Context &ctx, const FigureDef &def) = nullptr;
    bool needsAllCpu = false; //!< consumes the 25 characterizations
    /** The timing sims: each of simKernels under each of simConfigs,
     *  kernel-major — the order the render reads them in. */
    std::vector<GpuDep> simKernels;
    std::vector<gpusim::SimConfig> simConfigs;
    std::vector<GpuDep> traces; //!< trace analyses, in render order
    /** The distinct kernels of the sims and traces, in first-use
     *  order (derived from them; versions as declared). */
    std::vector<GpuDep> gpuDeps;
};

/**
 * Every figure in paper order, for the current primaryScale().
 * Thread-safe: each scale's table is built exactly once, and the
 * returned references stay valid for the process's lifetime.
 */
const std::vector<FigureDef> &allFigures();

/** Find by CLI id; nullptr if unknown. */
const FigureDef *findFigure(const std::string &id);

/**
 * The distinct kernels @p figures read, each with every sim config
 * and whether a trace analysis is needed, in first-use order.
 * Versions are resolved (gpuVersion), so the shipped version and its
 * explicit number are one kernel.
 */
std::vector<KernelWork>
kernelWork(const std::vector<const FigureDef *> &figures);

/**
 * Would buildFigure() be served without computing anything? True
 * when the figure declares inputs and each is warm: every kernel of
 * kernelWork() passes Context::settleWarm and, for a CPU figure,
 * every characterization is memoized. A figure with no declared
 * inputs (table1, ablation_simt) is never warm.
 */
bool figureWarm(const FigureDef &def, Context &ctx);

/**
 * Build one figure: settle its kernels (Context::settle, fanned out
 * across the pool; a no-op when they are settled already, as in the
 * experiments CLI), then render. Observability: a "figure" trace
 * span named after the figure id, a figures.built counter, and a
 * per-figure wall-time gauge (figures.wall_us, labeled by id).
 * Instrumentation never alters the figure text.
 */
std::string buildFigure(const FigureDef &def, Context &ctx);

/**
 * Render an ASCII scatter plot (Figures 7-9): Rodinia points print
 * as 'x', Parsec as 'o', StreamCluster (both suites) as '#'; a
 * legend lists the exact coordinates.
 */
std::string renderScatter(const std::vector<double> &xs,
                          const std::vector<double> &ys,
                          const std::vector<std::string> &labels,
                          const std::vector<core::Suite> &suites,
                          int width = 64, int height = 20);

} // namespace driver
} // namespace rodinia

#endif // RODINIA_DRIVER_FIGURES_HH
