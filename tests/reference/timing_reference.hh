/**
 * @file
 * Reference GPU timing model: the serial cycle-by-cycle engine the
 * production epoch engine (src/gpusim/timing.cc) must match bit for
 * bit.
 *
 * Each cycle it visits the SMs in index order and lets each issue at
 * most one warp instruction, touching the shared L2/DRAM model and
 * the global block counter as it goes — the canonical order the
 * epoch engine reproduces with per-SM lanes and deferred shared
 * accesses. It keeps its own copy of the per-instruction helpers
 * (coalescing, constant words, bank conflicts, channel map) so it
 * shares no timing code with the engine it checks. It reports no
 * metrics, does not poll cancellation and never fails fast on an
 * oversubscribed CTA: it is a test oracle, not a production path.
 */

#ifndef RODINIA_TESTS_REFERENCE_TIMING_REFERENCE_HH
#define RODINIA_TESTS_REFERENCE_TIMING_REFERENCE_HH

#include "gpusim/recorder.hh"
#include "gpusim/simconfig.hh"
#include "gpusim/timing.hh"

namespace rodinia {
namespace gpusim {
namespace reference {

/** Simulate one kernel launch on the serial reference engine. */
KernelStats simulate(const SimConfig &cfg, const KernelRecording &rec);

/**
 * Simulate a launch sequence: launches add up with
 * launchOverheadCycles each, exactly as TimingSim::simulate does.
 */
KernelStats simulate(const SimConfig &cfg, const LaunchSequence &seq);

} // namespace reference
} // namespace gpusim
} // namespace rodinia

#endif // RODINIA_TESTS_REFERENCE_TIMING_REFERENCE_HH
