/**
 * @file
 * The evaluation grid as a library: stable cell identities, shared trace
 * cache, and the one-cell runner.
 *
 * Historically this lived in bench/bench_common.hh, which made the grid
 * reachable only from bench binaries.  The experiment service (reactd)
 * and the soak harness need to run exactly the same cells from library
 * code -- the byte-identity contract between a served job and a direct
 * run only holds if both sides call the same function with the same
 * seeding -- so the cell machinery lives here and bench_common forwards
 * to it.
 *
 * Determinism contract (unchanged from PR 3): every cell's randomness is
 * seeded from its *stable identity* (gridCellKey()), never from thread
 * identity or execution order, so the same cell reproduces the same
 * numbers in every sweep, every thread count, and every transport.
 */

#ifndef REACT_HARNESS_GRID_HH
#define REACT_HARNESS_GRID_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/paper_setup.hh"
#include "sim/simd.hh"
#include "trace/paper_traces.hh"

namespace react {
namespace harness {

/** Drain allowance used by the table benches (run-until-drain, S 5). */
constexpr double kGridDrainAllowance = 900.0;

/** Base seed of the evaluation; cell streams derive from it via
 *  cellSeed(). */
constexpr uint64_t kEvaluationSeed = 42;

/**
 * Stable identity of one evaluation-grid cell, e.g. "DE:RF Cart:REACT".
 * Deliberately excludes the figure that runs the cell: the same cell
 * must produce the same numbers wherever it appears.
 */
std::string gridCellKey(BenchmarkKind bench_kind,
                        trace::PaperTrace trace_kind,
                        BufferKind buffer_kind);

/**
 * Lazily built, shared copies of the five Table-3 traces.  Thread-safe:
 * the builds run under a lock, so concurrent cells may block on first
 * access but always observe a fully built trace.  Parallel callers run
 * prewarmEvaluationTraces() first so no cell pays the build.
 */
const trace::PowerTrace &evaluationTrace(trace::PaperTrace which);

/** Build all five evaluation traces up front (serially, deterministic
 *  order) so parallel cells only ever read the cache. */
void prewarmEvaluationTraces();

/**
 * Run one cell of the evaluation grid; the workload seed derives from
 * the cell's stable identity and @p base_seed.  With REACT_CHECKPOINT_DIR
 * set the cell checkpoints/resumes against a snapshot named after that
 * identity (see harness/checkpoint.hh); callers that manage their own
 * checkpoint location (reactd) set config.checkpointPath before calling.
 */
ExperimentResult runGridCell(BufferKind buffer_kind,
                             BenchmarkKind bench_kind,
                             trace::PaperTrace trace_kind,
                             const ExperimentConfig &config =
                                 ExperimentConfig(),
                             uint64_t base_seed = kEvaluationSeed);

struct BatchPhaseStats;

/** One grid cell for the lane engine: its identity plus the slot its
 *  result lands in. */
struct GridBatchCell
{
    BufferKind bufferKind;
    BenchmarkKind benchKind;
    trace::PaperTrace traceKind;
    ExperimentResult *slot;
};

/**
 * Run a set of grid cells on the batch-of-cells lane engine
 * (sim/batch_stepper.hh) as one lane-refilled stream, admitted longest
 * trace first (the LPT schedule; see grid.cc).  Construction and
 * seeding are identical to runGridCell -- workload seeds derive from
 * each cell's stable identity, never from batch composition or
 * admission order -- and every slot receives bit-identical numbers to
 * a runGridCell call.
 * Cells the lane engine cannot take (non-static buffers, a fault plan,
 * rail recording, the checkpoint env -- see batchAdmissible -- or a
 * Disabled kernel) fall back to runGridCell semantics inline.
 * @p kernel defaults to the process-wide REACT_SIMD selection; benches
 * that compare engines in one process (parallel_sweep's lane_engine
 * section) pass it explicitly.  @p stats, when non-null,
 * accumulates the per-phase wall-time split of the streaming run (see
 * harness/batch_runner.hh; cells that fell back to runExperiment are not
 * timed) -- pass null for gated perf runs so the loop reads no clocks.
 */
void runGridCellBatch(const std::vector<GridBatchCell> &cells,
                      const ExperimentConfig &config = ExperimentConfig(),
                      uint64_t base_seed = kEvaluationSeed,
                      sim::simd::Kernel kernel = sim::simd::selectedKernel(),
                      BatchPhaseStats *stats = nullptr);

/** @name Name <-> enum lookups (CLI / wire protocol)
 *
 * Accept the exact display name ("Sol. Camp.") case-sensitively.
 * Return false on an unknown name, leaving @p out untouched.
 * @{ */
bool parseBenchmarkKind(const std::string &name, BenchmarkKind *out);
bool parsePaperTrace(const std::string &name, trace::PaperTrace *out);
bool parseBufferKind(const std::string &name, BufferKind *out);
/** @} */

} // namespace harness
} // namespace react

#endif // REACT_HARNESS_GRID_HH
