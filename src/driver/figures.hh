/**
 * @file
 * The paper's figures and tables as driver experiments.
 *
 * Every figure/table reproduced from the paper is one FigureDef: an
 * id for the CLI, the bench harness title, a builder that renders
 * the figure text from a shared Context, and the figure's inputs
 * (whether it consumes the 25 CPU characterizations, and which GPU
 * launch recordings it replays). The experiments CLI turns those
 * declared inputs into job-graph dependencies so characterizations
 * and recordings are shared across figures; the bench binaries call
 * the same builders one figure at a time, which is what keeps the
 * two execution paths byte-identical.
 *
 * Builders write per-iteration results into preallocated slots and
 * assemble output in a fixed order, so running them on the pool
 * (Context::parallelFor) cannot change the produced text.
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

/** One GPU launch recording a figure replays. */
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
    std::string (*build)(Context &ctx);
    bool needsAllCpu = false;     //!< consumes the 25 characterizations
    std::vector<GpuDep> gpuDeps;  //!< recordings the builder replays
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
 * Run a figure's builder with observability: a "figure" trace span
 * named after the figure id, a figures.built counter, and a
 * per-figure wall-time gauge (figures.wall_us, labeled by id).
 * Returns exactly def.build(ctx) — instrumentation never alters the
 * figure text, so this wrapper and a direct builder call stay
 * byte-identical.
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
