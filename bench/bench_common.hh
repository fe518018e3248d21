/**
 * @file
 * Shared helpers for the reproduction benches: run one
 * buffer x benchmark x trace cell, fan whole evaluation grids across the
 * parallel runner, format paper-vs-measured rows, cache the five
 * evaluation traces, and emit deterministic CSV artifacts for the golden
 * regression suite.
 *
 * Determinism contract: every cell's randomness is seeded from its
 * *stable identity* (gridCellKey()), never from thread identity or
 * execution order, so a bench produces bit-identical numbers at any
 * REACT_THREADS setting -- and the same evaluation cell reproduces the
 * same numbers in every bench that contains it (Table 2's DE row equals
 * Fig. 7's DE input, the fault sweep's severity-0 row equals the
 * fault-free cell, ...).
 */

#ifndef REACT_BENCH_COMMON_HH
#define REACT_BENCH_COMMON_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/grid.hh"
#include "harness/paper_setup.hh"
#include "harness/parallel_runner.hh"
#include "sim/batch_stepper.hh"
#include "sim/simd.hh"
#include "trace/paper_traces.hh"
#include "util/json.hh"
#include "util/table.hh"

namespace react {
namespace bench {

/** Drain allowance used by the table benches (run-until-drain, S 5). */
constexpr double kDrainAllowance = harness::kGridDrainAllowance;

/** Base seed of the evaluation; cell streams derive from it via
 *  harness::cellSeed. */
constexpr uint64_t kEvaluationSeed = harness::kEvaluationSeed;

/** The grid machinery proper lives in harness/grid.hh so reactd and the
 *  soak harness run byte-identical cells; the bench names stay for the
 *  existing call sites. */
using harness::evaluationTrace;
using harness::gridCellKey;
using harness::prewarmEvaluationTraces;

/** Run one cell of the evaluation grid; the workload seed derives from
 *  the cell's stable identity.  With REACT_CHECKPOINT_DIR set the cell
 *  checkpoints/resumes against a snapshot named after that identity, so
 *  an interrupted sweep continues per-cell instead of restarting. */
inline harness::ExperimentResult
runCell(harness::BufferKind buffer_kind, harness::BenchmarkKind bench_kind,
        trace::PaperTrace trace_kind,
        const harness::ExperimentConfig &config =
            harness::ExperimentConfig())
{
    return harness::runGridCell(buffer_kind, bench_kind, trace_kind,
                                config);
}

/** Results of one benchmark's 5 x 5 evaluation grid, indexed
 *  [trace][buffer] in kAllPaperTraces x kAllBuffers order. */
using GridResults =
    std::array<std::array<harness::ExperimentResult, 5>, 5>;

/**
 * Submit one benchmark's full trace x buffer grid to the runner; every
 * cell writes its own slot of @p out.  Call runner.run() (once, after
 * all grids are submitted) before reading @p out.
 */
inline void
submitGrid(harness::ParallelRunner &runner, harness::BenchmarkKind bench_kind,
           GridResults &out,
           const harness::ExperimentConfig &config =
               harness::ExperimentConfig())
{
    // With the lane engine selected (REACT_SIMD), the grid's static
    // cells are chunked into batches of up to kMaxLanes, each submitted
    // as one runner cell; every
    // cell's numbers stay bit-identical to a solo runCell because the
    // seed derives from the cell identity, never from batch
    // composition.  Unset/off keeps the historical per-cell submits.
    const bool lane_engine =
        sim::simd::selectedKernel() != sim::simd::Kernel::Disabled;
    std::vector<harness::GridBatchCell> static_cells;
    for (size_t t = 0; t < trace::kAllPaperTraces.size(); ++t) {
        for (size_t b = 0; b < harness::kAllBuffers.size(); ++b) {
            const auto trace_kind = trace::kAllPaperTraces[t];
            const auto buffer_kind = harness::kAllBuffers[b];
            harness::ExperimentResult *slot = &out[t][b];
            if (lane_engine && harness::isStaticBufferKind(buffer_kind)) {
                static_cells.push_back({buffer_kind, bench_kind,
                                        trace_kind, slot});
                continue;
            }
            runner.submit(
                gridCellKey(bench_kind, trace_kind, buffer_kind),
                [=]() {
                    *slot = runCell(buffer_kind, bench_kind, trace_kind,
                                    config);
                });
        }
    }
    constexpr size_t kLanes =
        static_cast<size_t>(sim::BatchStepper::kMaxLanes);
    for (size_t begin = 0; begin < static_cells.size(); begin += kLanes) {
        const size_t end =
            std::min(begin + kLanes, static_cells.size());
        const std::vector<harness::GridBatchCell> chunk(
            static_cells.begin() + static_cast<ptrdiff_t>(begin),
            static_cells.begin() + static_cast<ptrdiff_t>(end));
        const auto &first = chunk.front();
        runner.submit(
            gridCellKey(first.benchKind, first.traceKind,
                        first.bufferKind) +
                " [batch of " + std::to_string(chunk.size()) + "]",
            [chunk, config]() {
                harness::runGridCellBatch(chunk, config);
            });
    }
}

/** "-" for never-started latency cells, otherwise fixed precision. */
inline std::string
latencyCell(double latency, int precision = 2)
{
    if (latency < 0.0)
        return "-";
    return TextTable::num(latency, precision);
}

/** Standard header for measured-vs-paper commentary. */
inline void
printPreamble(const char *what, const char *paper_ref)
{
    std::printf("=== %s ===\n", what);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("(synthetic traces calibrated to Table 3; compare shapes "
                "and orderings, not absolute values)\n\n");
}

/**
 * Optional machine-readable CSV artifact, enabled by `--csv <path>` on
 * the bench command line.  The golden regression suite diffs these
 * byte-for-byte, so values are written with csvNum() (%.17g,
 * bit-faithful) and content must not depend on thread count or timing.
 */
struct CsvArtifact
{
    std::string path;  ///< Empty when --csv was not given.
    std::string text;

    explicit operator bool() const { return !path.empty(); }

    /** Append one line (newline added). No-op when disabled. */
    void line(const std::string &l)
    {
        if (!path.empty()) {
            text += l;
            text += '\n';
        }
    }

    /** Write the collected artifact. No-op when disabled. */
    void write() const
    {
        if (!path.empty())
            writeTextFile(path, text);
    }
};

/** Parse `--csv <path>` from a bench command line. */
inline CsvArtifact
csvFromArgs(int argc, char **argv)
{
    CsvArtifact csv;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0)
            csv.path = argv[i + 1];
    }
    return csv;
}

/** Bit-faithful double formatting for CSV artifacts. */
inline std::string
csvNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace bench
} // namespace react

#endif // REACT_BENCH_COMMON_HH
