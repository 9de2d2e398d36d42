#include "driver/figures.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <tuple>

#include "driver/tracing.hh"
#include "gpusim/recorder.hh"
#include "gpusim/replay.hh"
#include "gpusim/timing.hh"
#include "stats/cluster.hh"
#include "stats/pca.hh"
#include "stats/plackett_burman.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "support/table.hh"

namespace rodinia {
namespace driver {

namespace {

core::Scale &
primaryScaleSlot()
{
    static core::Scale scale = core::Scale::Full;
    return scale;
}

} // namespace

core::Scale
primaryScale()
{
    return primaryScaleSlot();
}

void
setPrimaryScale(core::Scale scale)
{
    primaryScaleSlot() = scale;
}

std::string
renderScatter(const std::vector<double> &xs,
              const std::vector<double> &ys,
              const std::vector<std::string> &labels,
              const std::vector<core::Suite> &suites, int width,
              int height)
{
    if (xs.empty())
        return "";
    double xmin = xs[0], xmax = xs[0], ymin = ys[0], ymax = ys[0];
    for (size_t i = 0; i < xs.size(); ++i) {
        xmin = std::min(xmin, xs[i]);
        xmax = std::max(xmax, xs[i]);
        ymin = std::min(ymin, ys[i]);
        ymax = std::max(ymax, ys[i]);
    }
    double xspan = std::max(xmax - xmin, 1e-9);
    double yspan = std::max(ymax - ymin, 1e-9);

    std::vector<std::string> grid(height, std::string(width, ' '));
    for (size_t i = 0; i < xs.size(); ++i) {
        int cx = int((xs[i] - xmin) / xspan * (width - 1) + 0.5);
        int cy = int((ys[i] - ymin) / yspan * (height - 1) + 0.5);
        char mark = suites[i] == core::Suite::Rodinia ? 'x'
                    : suites[i] == core::Suite::Parsec ? 'o'
                                                       : '#';
        char &cell = grid[height - 1 - cy][cx];
        cell = (cell == ' ') ? mark : '*';
    }

    std::ostringstream os;
    os << "  PC2 ^   (x = Rodinia, o = Parsec, # = both, * = overlap)\n";
    for (const auto &row : grid)
        os << "      |" << row << "\n";
    os << "      +" << std::string(width, '-') << "> PC1\n\n";
    for (size_t i = 0; i < labels.size(); ++i) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "  %-14s %-6s (%7.2f, %7.2f)\n",
                      labels[i].c_str(),
                      core::suiteTag(suites[i]).c_str(), xs[i], ys[i]);
        os << buf;
    }
    return os.str();
}

namespace {

// ---------------------------------------------------------------
// Table I / IV / V: suite inventory from the registry metadata.
// ---------------------------------------------------------------

std::string
renderTable1(Context &, const FigureDef &)
{
    core::registerAllWorkloads();
    auto &reg = core::Registry::instance();
    std::ostringstream os;

    Table t1("Table I: Rodinia applications and kernels");
    t1.setHeader({"Application", "Dwarf", "Domain", "Problem size"});
    for (const auto &info : reg.all()) {
        if (info.suite == core::Suite::Rodinia ||
            info.suite == core::Suite::Both)
            t1.addRow({info.displayName, info.dwarf, info.domain,
                       info.problemSize});
    }
    os << t1.render() << "\n";

    Table t5("Table V: Parsec applications (analog implementations)");
    t5.setHeader({"Application", "Domain", "Problem size",
                  "Description"});
    for (const auto &info : reg.all()) {
        if (info.suite == core::Suite::Parsec ||
            info.suite == core::Suite::Both)
            t5.addRow({info.displayName, info.domain, info.problemSize,
                       info.description});
    }
    os << t5.render() << "\n";

    Table t4("Table IV: suite comparison");
    t4.setHeader({"Feature", "Parsec", "Rodinia"});
    t4.addRow({"Platform", "CPU", "CPU and GPU"});
    t4.addRow({"Machine Model", "Shared Memory",
               "Shared Memory and Offloading"});
    t4.addRow({"Application Count", "13 workloads", "12 workloads"});
    t4.addRow({"Incremental Versions", "No",
               "Yes (NW, SRAD, Leukocyte, LUD)"});
    t4.addRow({"Memory Space", "HW Cache", "HW and SW Caches"});
    t4.addRow({"Synchronization", "Barriers, Locks, Pipelines",
               "Barriers"});
    os << t4.render();
    return os.str();
}

/** The stats of the figure's sims, kernel-major (memo reads: the
 *  points are settled before a render runs). */
std::vector<const gpusim::KernelStats *>
simResults(Context &ctx, const FigureDef &def)
{
    std::vector<const gpusim::KernelStats *> out;
    out.reserve(def.simKernels.size() * def.simConfigs.size());
    for (const auto &k : def.simKernels)
        for (const auto &cfg : def.simConfigs)
            out.push_back(
                &ctx.gpuStats(k.workload, k.scale, k.version, cfg));
    return out;
}

/** The trace analyses of def.traces, in declaration order. */
std::vector<const gpusim::TraceStats *>
traceResults(Context &ctx, const FigureDef &def)
{
    std::vector<const gpusim::TraceStats *> out;
    out.reserve(def.traces.size());
    for (const auto &d : def.traces)
        out.push_back(&ctx.traceStats(d.workload, d.scale, d.version));
    return out;
}

/** The 12 shipped kernels in figure order. */
std::vector<GpuDep>
figureOrderDeps(core::Scale scale)
{
    std::vector<GpuDep> deps;
    for (const auto &[name, label] : figureOrder())
        deps.push_back({name, scale, 0});
    return deps;
}

// ---------------------------------------------------------------
// Figure 1: IPC on the 8- and 28-shader configurations.
// ---------------------------------------------------------------

std::vector<gpusim::SimConfig>
fig1Configs()
{
    return {gpusim::SimConfig::shaders(8), gpusim::SimConfig::shaders(28)};
}

std::string
renderFig1(Context &ctx, const FigureDef &def)
{
    const auto &order = figureOrder();
    auto st = simResults(ctx, def);
    auto ipc = [&](size_t b, size_t si) { return st[b * 2 + si]->ipc(); };

    Table t("Figure 1: IPC, 8-shader vs 28-shader configurations");
    t.setHeader({"Benchmark", "IPC(8)", "IPC(28)", "Scaling"});
    std::ostringstream bars;
    double maxIpc = 0.0;
    for (size_t b = 0; b < order.size(); ++b)
        maxIpc = std::max(maxIpc, ipc(b, 1));

    for (size_t b = 0; b < order.size(); ++b) {
        const auto &label = order[b].second;
        double i8 = ipc(b, 0), i28 = ipc(b, 1);
        t.addRow({label, Table::fmt(i8, 1), Table::fmt(i28, 1),
                  Table::fmt(i28 / std::max(i8, 1e-9), 2) + "x"});
        bars << barRow(label + " (28)", i28, maxIpc) << "\n";
        bars << barRow(label + " (8)", i8, maxIpc) << "\n";
    }
    return t.render() + "\n" + bars.str();
}

// ---------------------------------------------------------------
// Figure 2: memory-operation breakdown by space.
// ---------------------------------------------------------------

std::string
renderFig2(Context &ctx, const FigureDef &def)
{
    using gpusim::Space;
    const auto &order = figureOrder();
    auto stats = traceResults(ctx, def);
    Table t("Figure 2: memory operation breakdown (percent)");
    t.setHeader({"Benchmark", "Shared", "Tex", "Const", "Param",
                 "Global/Local"});
    for (size_t b = 0; b < order.size(); ++b) {
        auto f = stats[b]->memOpFractions();
        double globloc =
            f[size_t(Space::Global)] + f[size_t(Space::Local)];
        t.addRow({order[b].second, Table::pct(f[size_t(Space::Shared)]),
                  Table::pct(f[size_t(Space::Tex)]),
                  Table::pct(f[size_t(Space::Const)]),
                  Table::pct(f[size_t(Space::Param)]),
                  Table::pct(globloc)});
    }
    return t.render();
}

// ---------------------------------------------------------------
// Figure 3: warp-occupancy histogram.
// ---------------------------------------------------------------

std::string
renderFig3(Context &ctx, const FigureDef &def)
{
    const auto &order = figureOrder();
    auto stats = traceResults(ctx, def);
    Table t("Figure 3: warp occupancy (percent of warp instructions)");
    t.setHeader({"Benchmark", "1-8", "9-16", "17-24", "25-32",
                 "avg active"});
    for (size_t b = 0; b < order.size(); ++b) {
        auto f = stats[b]->occupancyFractions();
        t.addRow({order[b].second, Table::pct(f[0]), Table::pct(f[1]),
                  Table::pct(f[2]), Table::pct(f[3]),
                  Table::fmt(stats[b]->avgWarpOccupancy(), 1)});
    }
    return t.render();
}

// ---------------------------------------------------------------
// Figure 4: speedup vs memory channels (4, 6 and 8 channels).
// ---------------------------------------------------------------

std::vector<gpusim::SimConfig>
fig4Configs()
{
    std::vector<gpusim::SimConfig> configs;
    for (int channels : {4, 6, 8}) {
        gpusim::SimConfig cfg = gpusim::SimConfig::gpgpusimDefault();
        cfg.numChannels = channels;
        configs.push_back(cfg);
    }
    return configs;
}

std::string
renderFig4(Context &ctx, const FigureDef &def)
{
    const auto &order = figureOrder();
    auto st = simResults(ctx, def);
    auto cycles = [&](size_t b, size_t ci) {
        return double(st[b * 3 + ci]->cycles);
    };

    Table t("Figure 4: speedup vs channels (normalized to 4 channels)");
    t.setHeader({"Benchmark", "4ch", "6ch", "8ch", "BW util @4ch"});
    for (size_t b = 0; b < order.size(); ++b) {
        t.addRow({order[b].second, "1.00",
                  Table::fmt(cycles(b, 0) / cycles(b, 1), 2),
                  Table::fmt(cycles(b, 0) / cycles(b, 2), 2),
                  Table::pct(st[b * 3]->bwUtilization())});
    }
    return t.render();
}

// ---------------------------------------------------------------
// Figure 5: Fermi (GTX 480, shared- and L1-biased) vs GTX 280.
// ---------------------------------------------------------------

std::vector<gpusim::SimConfig>
fig5Configs()
{
    return {gpusim::SimConfig::gtx280(), gpusim::SimConfig::gtx480(false),
            gpusim::SimConfig::gtx480(true)};
}

std::string
renderFig5(Context &ctx, const FigureDef &def)
{
    const auto &order = figureOrder();
    auto st = simResults(ctx, def);

    Table t("Figure 5: kernel time normalized to GTX 280");
    t.setHeader({"Benchmark", "GTX280", "GTX480 shared-bias",
                 "GTX480 L1-bias", "L1-bias gain"});
    for (size_t b = 0; b < order.size(); ++b) {
        double t280 = st[b * 3]->timeUs();
        double tShared = st[b * 3 + 1]->timeUs();
        double tL1 = st[b * 3 + 2]->timeUs();
        double gain = (tShared - tL1) / tShared;
        t.addRow({order[b].second, "1.00",
                  Table::fmt(tShared / t280, 2),
                  Table::fmt(tL1 / t280, 2), Table::pct(gain)});
    }
    return t.render();
}

// ---------------------------------------------------------------
// Table III: incrementally optimized versions. srad/leukocyte
// first, then the nw/lud incremental versions the release also
// ships; each (benchmark, version) reads one sim and its analysis.
// ---------------------------------------------------------------

std::vector<GpuDep>
table3Kernels(core::Scale scale)
{
    std::vector<GpuDep> kernels;
    for (const char *name : {"srad", "leukocyte", "nw", "lud"})
        for (int version : {1, 2})
            kernels.push_back({name, scale, version});
    return kernels;
}

std::string
renderTable3(Context &ctx, const FigureDef &def)
{
    using gpusim::Space;
    auto st = simResults(ctx, def);
    auto traces = traceResults(ctx, def);

    Table t("Table III: incrementally optimized SRAD and Leukocyte");
    t.setHeader({"Benchmark", "Version", "IPC", "BW util", "Shared",
                 "Global", "Const", "Tex"});
    for (size_t i = 0; i < def.traces.size(); ++i) {
        const GpuDep &k = def.traces[i];
        auto mix = traces[i]->memOpFractions();
        t.addRow({k.workload,
                  std::string("v").append(std::to_string(k.version)),
                  Table::fmt(st[i]->ipc(), 0),
                  Table::pct(st[i]->bwUtilization(), 0),
                  Table::pct(mix[size_t(Space::Shared)]),
                  Table::pct(mix[size_t(Space::Global)]),
                  Table::pct(mix[size_t(Space::Const)]),
                  Table::pct(mix[size_t(Space::Tex)])});
    }
    return t.render();
}

// ---------------------------------------------------------------
// Section III-E: Plackett-Burman sensitivity. 12 benchmarks x 12
// design runs at Small scale; effect ranking and the Borda
// aggregation are serial and ordered.
// ---------------------------------------------------------------

const std::vector<std::string> &
pbFactorNames()
{
    static const std::vector<std::string> names = {
        "core-clock",   "simd-width",  "shared-size",
        "bank-conflict", "regfile",    "threads/SM",
        "mem-clock",    "channels",    "bus-width",
    };
    return names;
}

gpusim::SimConfig
pbConfigFor(const std::vector<int> &signs)
{
    gpusim::SimConfig cfg = gpusim::SimConfig::gpgpusimDefault();
    cfg.coreClockGhz = signs[0] > 0 ? 1.5 : 1.2;
    cfg.simdWidth = signs[1] > 0 ? 32 : 16;
    cfg.sharedMemPerSm = signs[2] > 0 ? 32 * 1024 : 16 * 1024;
    cfg.bankConflictsEnabled = signs[3] > 0;
    cfg.regFileSize = signs[4] > 0 ? 32768 : 16384;
    cfg.maxThreadsPerSm = signs[5] > 0 ? 2048 : 1024;
    cfg.memClockGhz = signs[6] > 0 ? 2.0 : 1.6;
    cfg.numChannels = signs[7] > 0 ? 8 : 4;
    cfg.dramBusBytes = signs[8] > 0 ? 16 : 8;
    return cfg;
}

std::vector<gpusim::SimConfig>
pbConfigs()
{
    std::vector<gpusim::SimConfig> configs;
    for (const auto &signs :
         stats::pbDesign(int(pbFactorNames().size())).signs)
        configs.push_back(pbConfigFor(signs));
    return configs;
}

std::string
renderPbSensitivity(Context &ctx, const FigureDef &def)
{
    const auto &factors = pbFactorNames();
    auto design = stats::pbDesign(int(factors.size()));
    const auto &order = figureOrder();
    const size_t runs = size_t(design.runs);
    auto st = simResults(ctx, def);

    Table t("Plackett-Burman sensitivity: top-3 factors per benchmark");
    t.setHeader({"Benchmark", "#1", "#2", "#3"});
    std::vector<double> rankScore(factors.size(), 0.0);

    for (size_t b = 0; b < order.size(); ++b) {
        // The paper's response variable is total execution cycles
        // (Section III-E).
        std::vector<double> responses(runs);
        for (size_t r = 0; r < runs; ++r)
            responses[r] = double(st[b * runs + r]->cycles);
        auto effects = stats::pbEffects(design, responses, factors);
        t.addRow({order[b].second, effects[0].name, effects[1].name,
                  effects[2].name});
        // Aggregate: Borda-style rank points.
        for (size_t i = 0; i < effects.size(); ++i)
            rankScore[size_t(effects[i].factor)] +=
                double(effects.size() - i);
    }

    std::vector<std::pair<double, std::string>> agg;
    for (size_t i = 0; i < factors.size(); ++i)
        agg.emplace_back(rankScore[i], factors[i]);
    std::sort(agg.rbegin(), agg.rend());

    Table t2("Aggregate factor importance across the suite");
    t2.setHeader({"Rank", "Factor", "Score"});
    for (size_t i = 0; i < agg.size(); ++i)
        t2.addRow({std::to_string(i + 1), agg[i].second,
                   Table::fmt(agg[i].first, 0)});

    return t.render() + "\n" + t2.render();
}

// ---------------------------------------------------------------
// Figure 6: hierarchical-clustering dendrogram.
// ---------------------------------------------------------------

std::string
renderFig6(Context &ctx, const FigureDef &)
{
    auto chars = ctx.allCpu(primaryScale());

    std::vector<std::vector<double>> rows;
    std::vector<std::string> labels;
    for (const auto &c : chars) {
        rows.push_back(c.allFeatures());
        labels.push_back(c.name + core::suiteTag(c.suite));
    }

    auto pca = stats::runPca(stats::Matrix::fromRows(rows));
    size_t keep = pca.componentsForVariance(0.9);
    auto scores = stats::pcaProject(pca, keep);

    auto lk = stats::hierarchicalCluster(scores,
                                         stats::LinkageMethod::Average);
    std::ostringstream os;
    os << "Figure 6: dendrogram over " << keep
       << " principal components (90% variance)\n\n";
    os << stats::renderDendrogram(lk, labels);

    os << "\nFlat clustering at k=8:\n";
    auto cut = lk.cut(8);
    for (int cl = 0; cl < 8; ++cl) {
        os << "  cluster " << cl << ":";
        for (size_t i = 0; i < labels.size(); ++i)
            if (cut[i] == cl)
                os << " " << labels[i];
        os << "\n";
    }
    return os.str();
}

// ---------------------------------------------------------------
// Figures 7-9: PCA scatters over one feature group each.
// ---------------------------------------------------------------

std::string
renderPcaScatter(Context &ctx, const char *caption,
                std::vector<double> (core::CpuCharacterization::*features)()
                    const)
{
    auto chars = ctx.allCpu(primaryScale());
    std::vector<std::vector<double>> rows;
    std::vector<std::string> labels;
    std::vector<core::Suite> suites;
    for (const auto &c : chars) {
        rows.push_back((c.*features)());
        labels.push_back(c.name);
        suites.push_back(c.suite);
    }
    auto pca = stats::runPca(stats::Matrix::fromRows(rows));
    std::vector<double> xs, ys;
    for (size_t i = 0; i < rows.size(); ++i) {
        xs.push_back(pca.scores.at(i, 0));
        ys.push_back(pca.scores.at(i, 1));
    }
    std::string head =
        std::string(caption) + " (PC1 explains " +
        std::to_string(int(pca.explained[0] * 100)) + "%, PC2 " +
        std::to_string(int(pca.explained[1] * 100)) + "%)\n\n";
    return head + renderScatter(xs, ys, labels, suites);
}

std::string
renderFig7(Context &ctx, const FigureDef &)
{
    return renderPcaScatter(ctx, "Figure 7: instruction-mix PCA",
                           &core::CpuCharacterization::instrMixFeatures);
}

std::string
renderFig8(Context &ctx, const FigureDef &)
{
    return renderPcaScatter(
        ctx, "Figure 8: working-set PCA",
        &core::CpuCharacterization::workingSetFeatures);
}

std::string
renderFig9(Context &ctx, const FigureDef &)
{
    return renderPcaScatter(ctx, "Figure 9: sharing-behavior PCA",
                           &core::CpuCharacterization::sharingFeatures);
}

// ---------------------------------------------------------------
// Figure 10: miss rates at a 4 MB shared cache.
// ---------------------------------------------------------------

std::string
renderFig10(Context &ctx, const FigureDef &)
{
    auto chars = ctx.allCpu(primaryScale());

    // Find the 4 MB sweep index.
    size_t idx4mb = 0;
    for (size_t i = 0; i < chars[0].cacheSizes.size(); ++i)
        if (chars[0].cacheSizes[i] == 4ull * 1024 * 1024)
            idx4mb = i;

    std::vector<std::tuple<double, std::string, core::Suite>> rows;
    for (const auto &c : chars)
        rows.emplace_back(c.sweep[idx4mb].missRate(), c.name, c.suite);
    std::sort(rows.rbegin(), rows.rend());

    double maxRate = std::get<0>(rows.front());
    std::ostringstream os;
    os << "Figure 10: miss rate per memory reference @ 4 MB shared "
          "cache\n\n";
    for (const auto &[rate, name, suite] : rows)
        os << barRow(name + core::suiteTag(suite), rate,
                     std::max(maxRate, 1e-9), 40, 4)
           << "\n";
    return os.str();
}

// ---------------------------------------------------------------
// Figure 11: instruction footprint.
// ---------------------------------------------------------------

std::string
renderFig11(Context &ctx, const FigureDef &)
{
    auto chars = ctx.allCpu(primaryScale());
    std::vector<std::tuple<double, std::string, core::Suite>> rows;
    for (const auto &c : chars)
        rows.emplace_back(double(c.instructionBlocks), c.name, c.suite);
    std::sort(rows.rbegin(), rows.rend());

    double maxBlocks = std::get<0>(rows.front());
    std::ostringstream os;
    os << "Figure 11: instruction footprint (64 B blocks touched)\n\n";
    for (const auto &[blocks, name, suite] : rows)
        os << barRow(name + core::suiteTag(suite), blocks, maxBlocks,
                     40, 0)
           << "\n";

    double rodiniaAvg = 0, parsecAvg = 0;
    int nr = 0, np = 0;
    for (const auto &c : chars) {
        if (c.suite != core::Suite::Parsec) {
            rodiniaAvg += double(c.instructionBlocks);
            ++nr;
        }
        if (c.suite != core::Suite::Rodinia) {
            parsecAvg += double(c.instructionBlocks);
            ++np;
        }
    }
    os << "\n  suite averages: Rodinia " << Table::fmt(rodiniaAvg / nr, 1)
       << " blocks, Parsec " << Table::fmt(parsecAvg / np, 1)
       << " blocks\n";
    return os.str();
}

// ---------------------------------------------------------------
// Figure 12: data footprint.
// ---------------------------------------------------------------

std::string
renderFig12(Context &ctx, const FigureDef &)
{
    auto chars = ctx.allCpu(primaryScale());
    std::vector<std::tuple<double, std::string, core::Suite>> rows;
    for (const auto &c : chars)
        rows.emplace_back(double(c.dataPages), c.name, c.suite);
    std::sort(rows.rbegin(), rows.rend());

    double maxPages = std::get<0>(rows.front());
    std::ostringstream os;
    os << "Figure 12: data footprint (4 kB pages touched)\n\n";
    for (const auto &[pages, name, suite] : rows)
        os << barRow(name + core::suiteTag(suite), pages, maxPages, 40,
                     0)
           << "\n";
    return os.str();
}

// ---------------------------------------------------------------
// Ablation: SIMT loop-iteration path keys.
// ---------------------------------------------------------------

std::string
renderAblationSimt(Context &, const FigureDef &)
{
    using namespace rodinia::gpusim;

    // Per-thread trip counts drawn from a skewed distribution, like
    // query lengths in MUMmer.
    Rng rng(0xAB1);
    std::vector<int> trips(2048);
    for (auto &t : trips)
        t = 1 + int(rng.below(64));
    std::vector<float> data(1 << 16, 1.0f);

    LaunchConfig launch;
    launch.gridDim = 16;
    launch.blockDim = 128;

    // The loop body takes a data-dependent branch, like an edge
    // comparison in a tree walk: lanes on different iterations sit
    // at the same then/else PCs, which naive min-PC would merge.
    auto body = [&](KernelCtx &ctx2, float &acc, int i) {
        if (ctx2.branch(((ctx2.globalId() * 31 + i) % 3) == 0)) {
            acc += ctx2.ldg(&data[(ctx2.globalId() * 67 + i) %
                                  int(data.size())]);
            ctx2.fp(4);
        } else {
            ctx2.alu(2);
        }
    };
    auto makeRec = [&](bool use_keys) {
        return recordKernel(launch, [&](KernelCtx &ctx2) {
            int n = trips[ctx2.globalId()];
            float acc = 0.0f;
            for (int i = 0; i < n; ++i) {
                if (use_keys) {
                    LoopIter li(ctx2, i);
                    body(ctx2, acc, i);
                } else {
                    body(ctx2, acc, i);
                }
            }
            ctx2.stg(&data[ctx2.globalId()], acc);
        });
    };

    auto withKeys = analyzeTrace(makeRec(true));
    auto without = analyzeTrace(makeRec(false));

    Table t("SIMT ablation: loop path keys vs naive min-PC merge");
    t.setHeader({"Model", "avg active threads", "warp insts",
                 "1-8 bucket"});
    auto row = [&](const char *name, const TraceStats &s) {
        t.addRow({name, Table::fmt(s.avgWarpOccupancy(), 2),
                  Table::fmtInt(s.warpInstructions),
                  Table::pct(s.occupancyFractions()[0])});
    };
    row("loop path keys (default)", withKeys);
    row("naive min-PC (no keys)", without);

    std::ostringstream os;
    os << t.render() << "\n"
       << "Without path keys, different loop iterations of different\n"
       << "lanes merge at the same PC, inflating occupancy and\n"
       << "deflating the serialized warp-instruction count on\n"
       << "trip-count-divergent kernels (MUMmer, BFS).\n";
    return os.str();
}

// ---------------------------------------------------------------
// Ablation: coalescing granularity.
// ---------------------------------------------------------------

std::vector<GpuDep>
coalesceKernels()
{
    return {{"kmeans", core::Scale::Small, 0},
            {"cfd", core::Scale::Small, 0},
            {"bfs", core::Scale::Small, 0}};
}

std::vector<gpusim::SimConfig>
coalesceConfigs()
{
    std::vector<gpusim::SimConfig> configs;
    for (int granule : {32, 64, 128}) {
        gpusim::SimConfig cfg = gpusim::SimConfig::gpgpusimDefault();
        cfg.coalesceBytes = granule;
        configs.push_back(cfg);
    }
    return configs;
}

std::string
renderAblationCoalesce(Context &ctx, const FigureDef &def)
{
    auto st = simResults(ctx, def);
    Table t("Coalescing-granularity ablation (normalized to 64 B)");
    t.setHeader({"Benchmark", "Metric", "32B", "64B", "128B"});
    for (size_t b = 0; b < 3; ++b) {
        auto cycles = [&](size_t gi) {
            return double(st[b * 3 + gi]->cycles);
        };
        auto trans = [&](size_t gi) {
            return double(st[b * 3 + gi]->dramTransactions);
        };
        t.addRow({def.simKernels[b].workload, "cycles",
                  Table::fmt(cycles(0) / cycles(1), 2), "1.00",
                  Table::fmt(cycles(2) / cycles(1), 2)});
        t.addRow({"", "transactions", Table::fmt(trans(0) / trans(1), 2),
                  "1.00", Table::fmt(trans(2) / trans(1), 2)});
    }
    return t.render();
}

/** A figure with its GPU inputs declared; gpuDeps is derived. */
FigureDef
gpuFigure(std::string id, std::string title,
          std::string (*render)(Context &, const FigureDef &),
          std::vector<GpuDep> simKernels,
          std::vector<gpusim::SimConfig> simConfigs,
          std::vector<GpuDep> traces = {})
{
    FigureDef f{std::move(id),         std::move(title),
                render,                false,
                std::move(simKernels), std::move(simConfigs),
                std::move(traces),     {}};
    for (const auto *list : {&f.simKernels, &f.traces})
        for (const auto &d : *list) {
            bool have = false;
            for (const auto &g : f.gpuDeps)
                have = have || (g.workload == d.workload &&
                                g.scale == d.scale && g.version == d.version);
            if (!have)
                f.gpuDeps.push_back(d);
        }
    return f;
}

/** Every figure in paper order, its primary GPU inputs at @p scale. */
std::vector<FigureDef>
figureTable(core::Scale scale)
{
    auto cpuFigure = [](std::string id, std::string title,
                        std::string (*render)(Context &,
                                              const FigureDef &)) {
        return FigureDef{std::move(id), std::move(title), render, true,
                         {}, {}, {}, {}};
    };
    std::vector<FigureDef> f;
    f.push_back({"table1", "table1/inventory", renderTable1, false, {}, {},
                 {}, {}});
    f.push_back(gpuFigure("fig1", "fig1/ipc", renderFig1,
                          figureOrderDeps(scale), fig1Configs()));
    f.push_back(gpuFigure("fig2", "fig2/memmix", renderFig2, {}, {},
                          figureOrderDeps(scale)));
    f.push_back(gpuFigure("fig3", "fig3/occupancy", renderFig3, {}, {},
                          figureOrderDeps(scale)));
    f.push_back(gpuFigure("fig4", "fig4/channels", renderFig4,
                          figureOrderDeps(scale), fig4Configs()));
    f.push_back(gpuFigure("fig5", "fig5/fermi", renderFig5,
                          figureOrderDeps(scale), fig5Configs()));
    f.push_back(gpuFigure("table3", "table3/incremental", renderTable3,
                          table3Kernels(scale),
                          {gpusim::SimConfig::gpgpusimDefault()},
                          table3Kernels(scale)));
    f.push_back(gpuFigure("pb", "sec3e/plackett_burman",
                          renderPbSensitivity,
                          figureOrderDeps(core::Scale::Small), pbConfigs()));
    f.push_back(cpuFigure("fig6", "fig6/dendrogram", renderFig6));
    f.push_back(cpuFigure("fig7", "fig7/instmix_pca", renderFig7));
    f.push_back(cpuFigure("fig8", "fig8/workingset_pca", renderFig8));
    f.push_back(cpuFigure("fig9", "fig9/sharing_pca", renderFig9));
    f.push_back(cpuFigure("fig10", "fig10/missrates", renderFig10));
    f.push_back(cpuFigure("fig11", "fig11/ifootprint", renderFig11));
    f.push_back(cpuFigure("fig12", "fig12/dfootprint", renderFig12));
    f.push_back({"ablation_simt", "ablation/simt_keys",
                 renderAblationSimt, false, {}, {}, {}, {}});
    f.push_back(gpuFigure("ablation_coalesce", "ablation/coalesce",
                          renderAblationCoalesce, coalesceKernels(),
                          coalesceConfigs()));
    return f;
}

} // namespace

const std::vector<FigureDef> &
allFigures()
{
    // One table per primary scale (the GPU dependency lists embed
    // it), each built exactly once: the daemon looks figures up from
    // one reader thread per connection, so first lookups may race.
    struct Slot
    {
        std::once_flag once;
        std::vector<FigureDef> figures;
    };
    static std::array<Slot, size_t(core::Scale::Paper) + 1> slots;
    const core::Scale scale = primaryScale();
    Slot &slot = slots[size_t(scale)];
    std::call_once(slot.once,
                   [&] { slot.figures = figureTable(scale); });
    return slot.figures;
}

const FigureDef *
findFigure(const std::string &id)
{
    for (const auto &f : allFigures())
        if (f.id == id)
            return &f;
    return nullptr;
}

std::vector<KernelWork>
kernelWork(const std::vector<const FigureDef *> &figures)
{
    std::vector<KernelWork> out;
    std::map<std::string, size_t> kernelAt; // resolved key -> out index
    std::set<std::pair<size_t, std::string>> sims; // (index, fingerprint)
    auto kernel = [&](const GpuDep &d) {
        int version = gpuVersion(d.workload, d.version);
        auto [it, fresh] = kernelAt.try_emplace(
            recordingKey(d.workload, d.scale, version), out.size());
        if (fresh)
            out.push_back({d.workload, d.scale, version, {}, false});
        return it->second;
    };
    for (const auto *def : figures) {
        // In gpuDeps order, so a figure's kernels start in the order
        // it declared them.
        for (const auto &d : def->gpuDeps)
            kernel(d);
        for (const auto &d : def->simKernels) {
            size_t k = kernel(d);
            for (const auto &cfg : def->simConfigs)
                if (sims.emplace(k, cfg.fingerprint()).second)
                    out[k].sims.push_back(cfg);
        }
        for (const auto &d : def->traces)
            out[kernel(d)].trace = true;
    }
    return out;
}

bool
figureWarm(const FigureDef &def, Context &ctx)
{
    if (!def.needsAllCpu && def.gpuDeps.empty())
        return false;
    if (def.needsAllCpu)
        for (const auto &name : allCpuWorkloads())
            if (!ctx.cpuMemoized(name, primaryScale()))
                return false;
    for (const auto &k : kernelWork({&def}))
        if (!ctx.settleWarm(k))
            return false;
    return true;
}

std::string
buildFigure(const FigureDef &def, Context &ctx)
{
    auto t0 = std::chrono::steady_clock::now();
    auto kernels = kernelWork({&def});
    ctx.parallelFor(kernels.size(),
                    [&](size_t i) { ctx.settle(kernels[i]); });
    std::string out = def.render(ctx, def);
    auto t1 = std::chrono::steady_clock::now();
    support::metrics::count("figures.built");
    support::metrics::gaugeLabeled(
        "figures.wall_us", def.id,
        uint64_t(std::chrono::duration_cast<
                     std::chrono::microseconds>(t1 - t0)
                     .count()));
    if (auto *tc = TraceCollector::active())
        tc->record("figure", def.id, "{}", t0, t1);
    return out;
}

} // namespace driver
} // namespace rodinia
