/**
 * @file
 * The two grid-sweep workloads.
 *
 *  - table2_classic: the full Table-2 grid (4 benchmarks x 5 traces x 5
 *    buffers = 100 cells) through harness::runGridCell on a
 *    ParallelRunner with one worker per core, lane engine off.  Mostly
 *    classic REACT/Morphy stepping, with solar-trace stragglers that
 *    expose the runner's scheduling.
 *  - static_lanes: all 60 static-capacitor cells streamed on one thread
 *    through one harness::runGridCellBatch call, on the kernel
 *    sim::simd::resolveKernel(Policy::Auto, ...) picks on the host.
 *    Never touches REACT, Morphy, the runner or the serving layer.
 *
 * A traced run interleaves traced and untraced passes, so the tracing
 * overhead is measured against passes of the same run.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "harness/batch_runner.hh"
#include "harness/grid.hh"
#include "harness/parallel_runner.hh"
#include "perfbench.hh"
#include "sim/batch_stepper.hh"
#include "sim/simd.hh"

namespace perfbench {

using namespace react;
using harness::ExperimentResult;

namespace {

/** Setup samples per run; setup_s is their median. */
constexpr int kSetupSamples = 11;

struct Cell
{
    harness::BufferKind buffer;
    harness::BenchmarkKind bench;
    trace::PaperTrace trace;
};

std::vector<Cell>
gridCells(bool static_only)
{
    std::vector<Cell> cells;
    for (const auto bench : harness::kAllBenchmarks)
        for (const auto trace_kind : trace::kAllPaperTraces)
            for (const auto buffer : harness::kAllBuffers)
                if (!static_only || harness::isStaticBufferKind(buffer))
                    cells.push_back({buffer, bench, trace_kind});
    return cells;
}

std::string
cellKey(const Cell &c)
{
    return harness::gridCellKey(c.bench, c.trace, c.buffer);
}

/** Stable short name of a benchmark ("de", "sc", "rt", "pf"). */
const char *
benchShortName(harness::BenchmarkKind kind)
{
    switch (kind) {
      case harness::BenchmarkKind::DataEncryption:
        return "de";
      case harness::BenchmarkKind::SenseCompute:
        return "sc";
      case harness::BenchmarkKind::RadioTransmit:
        return "rt";
      case harness::BenchmarkKind::PacketForward:
        return "pf";
    }
    return "unknown";
}

/** The layer family a buffer belongs to. */
const char *
bufferFamily(harness::BufferKind kind)
{
    if (harness::isStaticBufferKind(kind))
        return "static";
    return kind == harness::BufferKind::React ? "react" : "morphy";
}

bool
sameResult(const ExperimentResult &a, const ExperimentResult &b)
{
    return a.stateDigest == b.stateDigest && a.steps == b.steps;
}

/** Host time of one cell inside a traced Table-2 pass. */
struct CellTime
{
    double start = 0.0;
    double end = 0.0;
    std::thread::id worker;
};

/** One Table-2 pass.  With @p times non-null (traced) or an injected
 *  load, each runner lambda is wrapped in the benchmark's own timer. */
double
runClassicPass(const std::vector<Cell> &cells, const Options &opt,
               std::vector<ExperimentResult> &results,
               std::vector<CellTime> *times)
{
    results.assign(cells.size(), ExperimentResult());
    if (times != nullptr)
        times->assign(cells.size(), CellTime());
    const bool wrap = times != nullptr || opt.injectCellFrac > 0.0;
    const uint64_t seed = opt.seed;
    const double inject = opt.injectCellFrac;

    harness::ParallelRunner runner(opt.nproc);
    const double t0 = now();
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell c = cells[i];
        ExperimentResult *slot = &results[i];
        if (!wrap) {
            runner.submit(cellKey(c), [=]() {
                *slot = harness::runGridCell(c.buffer, c.bench, c.trace,
                                             harness::ExperimentConfig(),
                                             seed);
            });
            continue;
        }
        CellTime *rec = times != nullptr ? &(*times)[i] : nullptr;
        runner.submit(cellKey(c), [=]() {
            const double start = now();
            *slot = harness::runGridCell(c.buffer, c.bench, c.trace,
                                         harness::ExperimentConfig(), seed);
            if (inject > 0.0)
                busyWait((now() - start) * inject);
            if (rec != nullptr)
                *rec = {start, now(), std::this_thread::get_id()};
        });
    }
    runner.run();
    return now() - t0;
}

double
runLanePass(const std::vector<Cell> &cells, const Options &opt,
            sim::simd::Kernel kernel,
            std::vector<ExperimentResult> &results,
            harness::BatchPhaseStats *stats)
{
    results.assign(cells.size(), ExperimentResult());
    const double t0 = now();
    std::vector<harness::GridBatchCell> batch;
    batch.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        batch.push_back({cells[i].buffer, cells[i].bench, cells[i].trace,
                         &results[i]});
    }
    harness::runGridCellBatch(batch, harness::ExperimentConfig(), opt.seed,
                              kernel, stats);
    return now() - t0;
}

uint64_t
totalSteps(const std::vector<ExperimentResult> &results)
{
    uint64_t steps = 0;
    for (const auto &r : results)
        steps += r.steps;
    return steps;
}

/**
 * End-to-end metrics of a sweep from its untraced pass times.  Every
 * cell's result reaches the caller when the pass returns, so a job's
 * submit-to-result latency is its pass's wall time, and one pass is one
 * latency sample.
 */
void
sweepEndToEnd(const std::vector<double> &setup,
              const std::vector<double> &passes, size_t cells,
              uint64_t steps_per_pass, double rss_mb, Outcome &out)
{
    const double pass_s = median(passes);
    const int tail = tailPercentile(passes.size());
    out.endToEnd["setup_s"] = {median(setup), "s"};
    out.endToEnd["sweep_s"] = {pass_s, "s"};
    out.endToEnd["steps_per_s"] = {
        static_cast<double>(steps_per_pass) / pass_s, "1/s"};
    out.endToEnd["job_p99_ms"] = {quantile(passes, tail / 100.0) * 1e3,
                                  "ms"};
    out.endToEnd["jobs_per_s"] = {static_cast<double>(cells) / pass_s,
                                  "1/s"};
    out.endToEnd["peak_rss_mb"] = {rss_mb, "MiB"};
    std::printf("  %zu passes of %zu cells, %llu steps per pass; job "
                "latency p%d over n=%zu passes; job_p50_ms %.6g ms (not "
                "gated, see LAYERS.md)\n",
                passes.size(), cells,
                static_cast<unsigned long long>(steps_per_pass), tail,
                passes.size(), pass_s * 1e3);
}

/** Count every pass's cell results into attempted/failed against the
 *  reference: identical digest + steps and a sane ledger. */
void
checkPasses(const std::vector<std::vector<ExperimentResult>> &passes,
            const std::vector<ExperimentResult> &reference,
            const std::vector<Cell> &cells, const char *what,
            Outcome &out)
{
    for (size_t p = 0; p < passes.size(); ++p) {
        for (size_t i = 0; i < cells.size(); ++i) {
            ++out.attempted;
            const ExperimentResult &r = passes[p][i];
            if (!sameResult(r, reference[i])) {
                out.fail("pass " + std::to_string(p) + " cell " +
                         cellKey(cells[i]) + " differs from " + what);
            } else if (!resultSane(r)) {
                out.fail("cell " + cellKey(cells[i]) +
                         " breaks the conservation bound");
            }
        }
    }
}

} // namespace

void
runTable2Classic(const Options &opt, Tracer *tracer, Outcome &out)
{
    const std::vector<Cell> cells = gridCells(false);
    const std::vector<double> setup = traceSynthSamples(kSetupSamples);

    std::vector<std::vector<ExperimentResult>> passes;
    std::vector<double> untraced, traced;
    std::vector<double> busy_frac, tail_s, cell_max_s;
    std::map<std::string, std::vector<double>> cell_s, ns_per_step;
    std::vector<ExperimentResult> results;
    std::vector<CellTime> times;

    const double begin = now();
    for (size_t pass = 0;; ++pass) {
        // Traced runs alternate traced and untraced passes, starting
        // traced so a zero-second side run still gets its layer numbers.
        const bool is_traced = tracer != nullptr && pass % 2 == 0;
        const double start = now();
        const double wall = runClassicPass(cells, opt, results,
                                           is_traced ? &times : nullptr);
        passes.push_back(results);
        (is_traced ? traced : untraced).push_back(wall);
        if (is_traced) {
            const uint64_t pass_span =
                tracer->add(0, "table2_classic.pass", start, start + wall);
            std::map<std::thread::id, double> last_end;
            double busy = 0.0, longest = 0.0;
            for (size_t i = 0; i < cells.size(); ++i) {
                const CellTime &t = times[i];
                const double s = t.end - t.start;
                tracer->add(pass_span, "harness.runGridCell " +
                                           cellKey(cells[i]),
                            t.start, t.end);
                busy += s;
                longest = std::max(longest, s);
                last_end[t.worker] = std::max(last_end[t.worker], t.end);
                cell_s[std::string("harness.cell_s.") +
                       bufferFamily(cells[i].buffer)]
                    .push_back(s);
                cell_s[std::string("workload.") +
                       benchShortName(cells[i].bench) + ".cell_s"]
                    .push_back(s);
                ns_per_step[bufferFamily(cells[i].buffer)].push_back(
                    s * 1e9 / static_cast<double>(results[i].steps));
            }
            double first_idle = start + wall;
            for (const auto &[worker, end] : last_end)
                first_idle = std::min(first_idle, end);
            busy_frac.push_back(busy / (opt.nproc * wall));
            tail_s.push_back(start + wall - first_idle);
            cell_max_s.push_back(longest);
        }
        if (passesDone(opt, tracer != nullptr, begin, traced.size(),
                       untraced.size()))
            break;
    }
    const double rss = peakRssMb();
    const uint64_t steps = totalSteps(passes.front());

    checkPasses(passes, passes.front(), cells, "the first pass", out);
    if (!untraced.empty())
        sweepEndToEnd(setup, untraced, cells.size(), steps, rss, out);
    if (tracer == nullptr)
        return;

    out.layers["trace.synth_s"] = {median(setup), "s"};
    for (auto &[name, v] : cell_s)
        out.layers[name] = {median(v), "s"};
    out.layers["buffers.static.ns_per_step"] = {
        median(ns_per_step["static"]), "ns"};
    out.layers["core.react.ns_per_step"] = {median(ns_per_step["react"]),
                                            "ns"};
    out.layers["buffers.morphy.ns_per_step"] = {
        median(ns_per_step["morphy"]), "ns"};
    out.layers["harness.runner.busy_frac"] = {median(busy_frac), "frac"};
    out.layers["harness.runner.tail_s"] = {median(tail_s), "s"};
    out.layers["harness.runner.cell_max_s"] = {median(cell_max_s), "s"};
    putTraceOverhead(untraced, traced, out.layers);
    measureCodec(passes.front(), out.layers);
}

void
runStaticLanes(const Options &opt, Tracer *tracer, Outcome &out)
{
    const std::vector<Cell> cells = gridCells(true);
    const sim::simd::Kernel kernel = sim::simd::resolveKernel(
        sim::simd::Policy::Auto, sim::simd::avx2Available(),
        sim::simd::avx512Available());
    const std::vector<double> setup = traceSynthSamples(kSetupSamples);

    std::vector<std::vector<ExperimentResult>> passes;
    std::vector<double> untraced, traced;
    harness::BatchPhaseStats phases;
    uint64_t traced_steps = 0;
    std::vector<ExperimentResult> results;

    const double begin = now();
    for (size_t pass = 0;; ++pass) {
        const bool is_traced = tracer != nullptr && pass % 2 == 0;
        const double start = now();
        const double wall = runLanePass(cells, opt, kernel, results,
                                        is_traced ? &phases : nullptr);
        passes.push_back(results);
        (is_traced ? traced : untraced).push_back(wall);
        if (is_traced) {
            tracer->add(0, "harness.runGridCellBatch", start, start + wall);
            traced_steps += totalSteps(results);
        }
        if (passesDone(opt, tracer != nullptr, begin, traced.size(),
                       untraced.size()))
            break;
    }
    const double rss = peakRssMb();
    const uint64_t steps = totalSteps(passes.front());

    // The lane engine must reproduce classic per-cell stepping bit for
    // bit: run the same cells through runGridCell once, untimed.
    std::vector<ExperimentResult> classic;
    runClassicPass(cells, opt, classic, nullptr);
    checkPasses(passes, classic, cells, "classic runGridCell", out);
    if (!untraced.empty())
        sweepEndToEnd(setup, untraced, cells.size(), steps, rss, out);
    if (tracer == nullptr)
        return;

    out.layers["trace.synth_s"] = {median(setup), "s"};
    const double total_ns = static_cast<double>(
        phases.frontendNs + phases.physicsNs + phases.workloadNs +
        phases.bookkeepingNs);
    const double iters = static_cast<double>(std::max<uint64_t>(
        phases.steps, 1));
    const std::pair<const char *, uint64_t> split[] = {
        {"frontend", phases.frontendNs},
        {"physics", phases.physicsNs},
        {"workload", phases.workloadNs},
        {"bookkeeping", phases.bookkeepingNs},
    };
    for (const auto &[name, ns] : split) {
        out.layers[std::string("batch.") + name + "_ns"] = {
            static_cast<double>(ns) / iters, "ns"};
        out.layers[std::string("batch.") + name + "_frac"] = {
            total_ns > 0.0 ? static_cast<double>(ns) / total_ns : 0.0,
            "frac"};
    }
    out.layers["batch.lane_util"] = {
        static_cast<double>(traced_steps) /
            (sim::BatchStepper::kMaxLanes * iters),
        "frac"};
    putTraceOverhead(untraced, traced, out.layers);
    measureCodec(passes.front(), out.layers);
}

} // namespace perfbench
