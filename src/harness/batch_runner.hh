/**
 * @file
 * Lockstep experiment driver for the batch-of-cells lane engine.
 *
 * runExperimentBatch streams any number of independent static-buffer
 * experiments through sim::BatchStepper::kMaxLanes lockstep lanes, and
 * the whole step loop -- not just the physics -- is lane-major:
 *
 *  - trace sampling and converter evaluation are hoisted to lane
 *    admission: each lane's frontend is precompiled into run-length
 *    power spans (HarvesterFrontend::compileStepSpans), so the hot
 *    loop's "frontend" is one counter decrement per lane per step
 *    instead of a divide-and-index trace lookup plus a virtual
 *    converter call;
 *  - lanes are *refilled*: when a cell finishes, its lane is
 *    immediately re-admitted for the next queued cell (which starts
 *    from t = 0 on its own per-lane clock), so a long cell never
 *    idles seven lanes behind it -- utilization approaches 100% of
 *    sum-of-steps / kMaxLanes regardless of duration spread;
 *  - power-gate threshold checks run as a lane mask
 *    (sim::GateLaneBank): one compare pair per lane, with the
 *    authoritative PowerGate objects updated only on actual
 *    transitions;
 *  - the backend load current is re-queried only when it can have
 *    changed (gate transitions and benchmark ticks), not every step;
 *  - the four physics phases run vectorized across all lanes at once
 *    (scalar/AVX2/AVX-512 kernels, sim/batch_stepper.hh), steps where
 *    no lane harvests or draws load collapse to the quiet-step
 *    peephole (leak only -- bit-identical, see BatchStepper::step),
 *    and a nearly drained batch (at most two live cells) steps those
 *    lanes scalar instead of running the full-width kernel over
 *    frozen no-op lanes (BatchStepper::stepLane);
 *  - the per-lane control plane is *event-driven*: a gate-off lane
 *    sleeps -- zero per-step control work beyond one shared clock
 *    advance and two SoA wake compares -- until a gate flip (caught by
 *    the bank's vector compare), its next span roll, its settle-exit
 *    step, or a trace-end/hard-end crossing, all of which are
 *    precomputed wake targets (see Engine in batch_runner.cc for the
 *    equivalence argument).
 *
 * Every lane's result -- counters, ledger, conservation audit, and the
 * CRC-32 stateDigest -- is bit-identical to runExperiment() running
 * that cell alone: the physics kernel replays the exact scalar
 * operation sequence, the span table replays the exact per-step
 * trace/converter arithmetic, and the control plane is the same code
 * -- each lane owns an ExperimentRun
 * (harness/experiment.hh) and calls its begin, gateEdge, tick and
 * finished steps, and finalizeExperiment, in runExperiment's order.
 * Only the settle count differs in form: an integer run of off steps
 * replaying runExperiment's float off-streak.
 * Cells that finish early are frozen in place until their lane
 * refills, so batch composition, batch size, ragged tails, and refill
 * order provably do not affect any cell's numbers
 * (tests/test_batch_stepper.cc holds the proof).
 *
 * Admissibility: the lane engine covers the cells its callers send --
 * the paper's fault-free static columns: a StaticBuffer, no fault
 * plan, no rail recording, no checkpointing, no simulated crash.
 * Anything else falls back to runExperiment, which remains the
 * semantics reference.
 */

#ifndef REACT_HARNESS_BATCH_RUNNER_HH
#define REACT_HARNESS_BATCH_RUNNER_HH

#include "buffers/static_buffer.hh"
#include "harness/experiment.hh"
#include "sim/batch_stepper.hh"

namespace react {
namespace harness {

/** One cell of a lockstep batch (all pointers non-owning; benchmark may
 *  be null, as in runExperiment). */
struct BatchCell
{
    buffer::StaticBuffer *buffer = nullptr;
    workload::Benchmark *benchmark = nullptr;
    const harvest::HarvesterFrontend *frontend = nullptr;
    ExperimentResult *result = nullptr;
};

/**
 * Can this buffer/config pair run on the lane engine bit-identically?
 * False for non-static buffers, a fault plan, rail recording, any
 * checkpoint/resume involvement, or a simulated crash.
 */
bool batchAdmissible(const buffer::EnergyBuffer &buffer,
                     const ExperimentConfig &config);

/**
 * Optional per-phase wall-time breakdown of one batch run -- the
 * Amdahl split bench/hot_loop.cc --json reports.  The phase clock is
 * the TSC where available (cheap enough to read per phase boundary
 * without distorting the split), converted to nanoseconds against a
 * steady_clock calibration pair bracketing the run; refill admissions
 * fall outside the phase windows, so the four totals cover
 * steady-state stepping only.  The control flow is identical either
 * way -- instrumentation only adds the per-iteration clock reads --
 * but gated perf numbers still run uninstrumented (stats == nullptr
 * reads no clocks at all).
 */
struct BatchPhaseStats
{
    /** Pre-physics control plane: span sweep, gate lane masks, load
     *  refresh. */
    uint64_t frontendNs = 0;
    /** The vectorized physics step (sim::BatchStepper::step). */
    uint64_t physicsNs = 0;
    /** Post-physics workload section: on-time accounting and
     *  benchmark ticks. */
    uint64_t workloadNs = 0;
    /** Exit checks and lane finalization. */
    uint64_t bookkeepingNs = 0;
    /** Step-loop iterations timed. */
    uint64_t steps = 0;
};

/**
 * Stream @p count admissible cells through the lockstep lane engine,
 * in array order, refilling lanes as cells finish.  Each cell's
 * *result receives exactly what runExperiment(buffer, benchmark,
 * frontend, config) would have produced.
 *
 * @param cells Cell array; every entry must satisfy batchAdmissible.
 * @param count Number of cells (>= 1; any size -- cells beyond the
 *        first kMaxLanes queue for lane refill).
 * @param config Shared runner options (grid sweeps share one config).
 * @param kernel Scalar, Avx2, or Avx512 (typically
 *        sim::simd::selectedKernel()).
 * @param stats Optional phase-timing sink; null (the default and the
 *        perf-run configuration) reads no clocks at all.
 */
void runExperimentBatch(const BatchCell *cells, int count,
                        const ExperimentConfig &config,
                        sim::simd::Kernel kernel,
                        BatchPhaseStats *stats = nullptr);

} // namespace harness
} // namespace react

#endif // REACT_HARNESS_BATCH_RUNNER_HH
