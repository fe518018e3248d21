/**
 * @file
 * Hot-loop throughput benchmark and CI perf-regression artifact.
 *
 * All measurements are single-threaded so the numbers isolate per-step
 * engine cost from the parallel runner's scaling (BENCH_parallel.json
 * covers that axis):
 *
 *  1. Raw per-architecture step loops: each buffer is warmed past its
 *     transient and then stepped in a time-boxed tight loop, reporting
 *     steps/sec for StaticBuffer, ReactBuffer, and MorphyBuffer.
 *  2. Raw batch lane-engine loops per kernel (scalar / AVX2 / AVX-512),
 *     reporting lane-steps/sec against the static_10mF micro row.
 *  3. The Table-2 DE static column end to end, classic per-cell vs the
 *     lane-major runGridCellBatch on the best kernel this host has --
 *     the "lane_engine" speedup the regression gate holds at 2.5x --
 *     plus an instrumented pass recording the per-phase Amdahl split
 *     (frontend / physics / workload / bookkeeping).
 *  4. The Table-2 Data-Encryption workload row (5 traces x 5 buffers,
 *     trace + run-until-drain): the end-to-end experiment loop the CI
 *     budget actually buys, reporting aggregate steps/sec.
 *
 * The run also reports the transcendental-cache hit rates from
 * sim::hotloop.  Everything lands in BENCH_hotloop.json; tools/check_hotloop_regression.py diffs it against
 * the checked-in baseline and fails CI on a >10% steps/sec regression.
 *
 * Usage: hot_loop [--json <path>] [--quick]
 */

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "buffers/morphy_buffer.hh"
#include "buffers/static_buffer.hh"
#include "core/react_buffer.hh"
#include "harness/batch_runner.hh"
#include "sim/batch_stepper.hh"
#include "sim/capacitor.hh"
#include "sim/hotloop_stats.hh"
#include "sim/simd.hh"

namespace {

using namespace react;

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

struct LoopResult
{
    uint64_t steps = 0;
    double wallSeconds = 0.0;

    double stepsPerSec() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(steps) / wallSeconds
            : 0.0;
    }
};

/** Time-boxed tight step loop: run chunks until the budget elapses. */
template <typename Buffer>
LoopResult
measureStepLoop(Buffer &buf, double budget_seconds)
{
    constexpr int kChunk = 50000;
    // Warm past the architecture's transient (bank bring-up, ladder
    // climb) so the measured regime is the steady state the table
    // benches spend their time in.
    for (int i = 0; i < 20000; ++i) {
        buf.step(units::Seconds(1e-3), units::Watts(3e-3),
                 units::Amps(1e-3));
    }

    LoopResult out;
    const double start = nowSeconds();
    double elapsed = 0.0;
    do {
        for (int i = 0; i < kChunk; ++i) {
            buf.step(units::Seconds(1e-3), units::Watts(3e-3),
                     units::Amps(1e-3));
        }
        out.steps += kChunk;
        elapsed = nowSeconds() - start;
    } while (elapsed < budget_seconds);
    out.wallSeconds = elapsed;
    return out;
}

/**
 * Time-boxed 8-lane BatchStepper loop doing the same per-lane physics
 * as the static_10mF micro row (10 mF part, 3 mW harvest, 1 mA load,
 * 1 ms steps), reporting *lane*-steps so the number is directly
 * comparable: lane_steps_per_sec / micro.static_10mF steps_per_sec is
 * the batch engine's speedup over stepping cells one at a time.
 */
LoopResult
measureBatchLoop(sim::simd::Kernel kernel, double budget_seconds)
{
    constexpr int kChunk = 50000;
    const sim::CapacitorSpec spec =
        harness::staticBufferSpec(units::Farads(10e-3));
    const sim::Capacitor reference(spec, units::Volts(2.0));
    sim::BatchStepper stepper(kernel, 1e-3);
    for (int lane = 0; lane < sim::BatchStepper::kMaxLanes; ++lane) {
        sim::BatchLaneInit init;
        init.voltage = 2.0 + 0.05 * lane;
        init.capacitance = spec.capacitance.raw();
        init.clamp = 3.6;
        init.leakDecay = reference.leakDecayFor(units::Seconds(1e-3));
        stepper.addLane(init);
        stepper.setHarvestPower(lane, 3e-3);
        stepper.setLoadCurrent(lane, 1e-3);
    }
    for (int i = 0; i < 20000; ++i)
        stepper.step();

    LoopResult out;
    volatile double sink = 0.0;
    const double start = nowSeconds();
    double elapsed = 0.0;
    do {
        for (int i = 0; i < kChunk; ++i)
            stepper.step();
        sink = sink + stepper.voltage(0);
        out.steps +=
            static_cast<uint64_t>(kChunk) * sim::BatchStepper::kMaxLanes;
        elapsed = nowSeconds() - start;
    } while (elapsed < budget_seconds);
    out.wallSeconds = elapsed;
    return out;
}

/**
 * Table-2 DE static column end to end: classic per-cell runGridCell vs
 * one lane-major runGridCellBatch pass on the best kernel this host has.
 * The speedup runs uninstrumented; a second, instrumented batch pass
 * collects the per-phase Amdahl split (clock reads perturb the loop, so
 * the gated number and the breakdown never share a run).
 */
struct LaneEngineResult
{
    const char *kernel = "scalar";
    size_t cells = 0;
    double classicWallSeconds = 0.0;
    double batchWallSeconds = 0.0;
    size_t divergent = 0;
    harness::BatchPhaseStats phases;

    double speedup() const
    {
        return batchWallSeconds > 0.0
            ? classicWallSeconds / batchWallSeconds
            : 0.0;
    }
};

LaneEngineResult
measureLaneEngine(sim::simd::Kernel kernel)
{
    LaneEngineResult out;
    out.kernel = sim::simd::kernelName(kernel);

    std::vector<trace::PaperTrace> traces;
    std::vector<harness::BufferKind> buffers;
    for (const auto trace_kind : trace::kAllPaperTraces)
        for (const auto buffer_kind : harness::kAllBuffers)
            if (harness::isStaticBufferKind(buffer_kind)) {
                traces.push_back(trace_kind);
                buffers.push_back(buffer_kind);
            }
    out.cells = traces.size();

    std::vector<harness::ExperimentResult> classic(out.cells);
    double t0 = nowSeconds();
    for (size_t i = 0; i < out.cells; ++i) {
        classic[i] = harness::runGridCell(
            buffers[i], harness::BenchmarkKind::DataEncryption, traces[i]);
    }
    out.classicWallSeconds = nowSeconds() - t0;

    std::vector<harness::ExperimentResult> batched(out.cells);
    std::vector<harness::GridBatchCell> cells;
    for (size_t i = 0; i < out.cells; ++i) {
        cells.push_back({buffers[i],
                         harness::BenchmarkKind::DataEncryption, traces[i],
                         &batched[i]});
    }
    t0 = nowSeconds();
    harness::runGridCellBatch(cells, harness::ExperimentConfig(),
                              harness::kEvaluationSeed, kernel);
    out.batchWallSeconds = nowSeconds() - t0;

    for (size_t i = 0; i < out.cells; ++i) {
        if (batched[i].stateDigest != classic[i].stateDigest ||
            batched[i].steps != classic[i].steps)
            ++out.divergent;
    }

    // Instrumented pass for the phase split only.
    std::vector<harness::ExperimentResult> timed(out.cells);
    std::vector<harness::GridBatchCell> timed_cells;
    for (size_t i = 0; i < out.cells; ++i) {
        timed_cells.push_back({buffers[i],
                               harness::BenchmarkKind::DataEncryption,
                               traces[i], &timed[i]});
    }
    harness::runGridCellBatch(timed_cells, harness::ExperimentConfig(),
                              harness::kEvaluationSeed, kernel,
                              &out.phases);
    return out;
}

/** One Table-2 DE row: 5 traces x 5 buffers, sequential on this thread. */
LoopResult
measureTable2De()
{
    LoopResult out;
    const double start = nowSeconds();
    for (const auto trace_kind : trace::kAllPaperTraces) {
        for (const auto buffer_kind : harness::kAllBuffers) {
            const auto r = bench::runCell(
                buffer_kind, harness::BenchmarkKind::DataEncryption,
                trace_kind);
            out.steps += r.steps;
        }
    }
    out.wallSeconds = nowSeconds() - start;
    return out;
}

void
emitCacheStats(JsonWriter &w)
{
    const auto &c = sim::hotloop::counters();
    w.key("cache");
    w.beginObject();
    w.field("leak_hits", c.leakCacheHits);
    w.field("leak_misses", c.leakCacheMisses);
    w.field("leak_hit_rate",
            sim::hotloop::hitRate(c.leakCacheHits, c.leakCacheMisses));
    w.field("transfer_hits", c.transferCacheHits);
    w.field("transfer_misses", c.transferCacheMisses);
    w.field("transfer_hit_rate",
            sim::hotloop::hitRate(c.transferCacheHits,
                                  c.transferCacheMisses));
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace react;

    std::string json_path = "BENCH_hotloop.json";
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }
    const double budget = quick ? 0.1 : 0.5;

    bench::printPreamble(
        "Hot loop: single-threaded engine step throughput",
        "engine benchmark (not a paper figure); CI perf-regression gate");

    bench::prewarmEvaluationTraces();
    sim::hotloop::resetCounters();

    // --- Raw per-architecture step loops -------------------------------
    struct MicroRow
    {
        const char *name;
        LoopResult result;
    };
    MicroRow micro[3];

    {
        buffer::StaticBuffer buf(
            harness::staticBufferSpec(units::Farads(10e-3)));
        micro[0] = {"static_10mF", measureStepLoop(buf, budget)};
    }
    {
        core::ReactBuffer buf;
        buf.notifyBackendPower(true);
        micro[1] = {"react", measureStepLoop(buf, budget)};
    }
    {
        buffer::MorphyBuffer buf;
        micro[2] = {"morphy", measureStepLoop(buf, budget)};
    }

    // --- Batch lane engine, same physics as static_10mF ----------------
    // The scalar row is emitted unconditionally (every host runs it, so
    // the regression gate always has it); the avx2 row only where the
    // kernel can run.  The 2x-over-single-cell acceptance gate lives in
    // tools/check_hotloop_regression.py against these numbers.
    struct BatchRow
    {
        const char *name;
        LoopResult result;
    };
    std::vector<BatchRow> batch_rows;
    batch_rows.push_back(
        {"scalar", measureBatchLoop(sim::simd::Kernel::Scalar, budget)});
    const bool avx2_available = sim::simd::avx2Available();
    if (avx2_available) {
        batch_rows.push_back(
            {"avx2", measureBatchLoop(sim::simd::Kernel::Avx2, budget)});
    }
    const bool avx512_available = sim::simd::avx512Available();
    if (avx512_available) {
        batch_rows.push_back(
            {"avx512",
             measureBatchLoop(sim::simd::Kernel::Avx512, budget)});
    }

    // --- Table-2 DE static column, classic vs lane engine ---------------
    // The Amdahl number: what the whole experiment loop -- frontend,
    // gate, workload, bookkeeping, physics -- gains end to end.
    //
    // Kernel choice: REACT_SIMD pins one explicitly (the CI probe legs
    // use this); otherwise pick by the measured batch-row throughput,
    // not ISA width -- the kernels are bit-identical (the differential
    // harness proves it) so the choice is free, and on Skylake-class
    // parts the zmm divider makes AVX2 the faster batch kernel despite
    // AVX-512 being "wider".
    sim::simd::Kernel lane_kernel = sim::simd::Kernel::Scalar;
    {
        const sim::simd::Policy policy = sim::simd::envPolicy();
        if (policy != sim::simd::Policy::Off &&
            policy != sim::simd::Policy::Auto) {
            lane_kernel = sim::simd::resolveKernel(
                policy, avx2_available, avx512_available);
        } else {
            double best = 0.0;
            for (const auto &row : batch_rows) {
                if (row.result.stepsPerSec() <= best)
                    continue;
                best = row.result.stepsPerSec();
                lane_kernel = std::strcmp(row.name, "avx512") == 0
                    ? sim::simd::Kernel::Avx512
                    : std::strcmp(row.name, "avx2") == 0
                        ? sim::simd::Kernel::Avx2
                        : sim::simd::Kernel::Scalar;
            }
        }
    }
    const LaneEngineResult lane =
        quick ? LaneEngineResult{} : measureLaneEngine(lane_kernel);

    // --- Table-2 DE workload row ---------------------------------------
    const LoopResult table2 = quick ? LoopResult{} : measureTable2De();

    JsonWriter w;
    w.beginObject();
    w.field("schema", 2);
    w.key("micro");
    w.beginArray();
    for (const auto &row : micro) {
        w.beginObject();
        w.field("name", row.name);
        w.field("steps", row.result.steps);
        w.field("wall_s", row.result.wallSeconds);
        w.field("steps_per_sec", row.result.stepsPerSec());
        w.endObject();
    }
    w.endArray();
    w.key("batch");
    w.beginObject();
    w.field("lanes", static_cast<uint64_t>(sim::BatchStepper::kMaxLanes));
    w.field("avx2_available", avx2_available);
    w.field("avx512_available", avx512_available);
    w.key("kernels");
    w.beginArray();
    for (const auto &row : batch_rows) {
        w.beginObject();
        w.field("name", row.name);
        w.field("lane_steps", row.result.steps);
        w.field("wall_s", row.result.wallSeconds);
        w.field("lane_steps_per_sec", row.result.stepsPerSec());
        w.field("speedup_vs_static_10mF",
                micro[0].result.stepsPerSec() > 0.0
                    ? row.result.stepsPerSec() /
                        micro[0].result.stepsPerSec()
                    : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.key("lane_engine");
    w.beginObject();
    w.field("kernel", lane.kernel);
    w.field("cells", static_cast<uint64_t>(lane.cells));
    w.field("classic_wall_s", lane.classicWallSeconds);
    w.field("batch_wall_s", lane.batchWallSeconds);
    w.field("speedup", lane.speedup());
    w.field("bit_identical", lane.divergent == 0);
    w.field("divergent_cells", static_cast<uint64_t>(lane.divergent));
    {
        // Amdahl split from the instrumented pass (fractions of the
        // instrumented loop's own wall time, not of batch_wall_s).
        const auto &p = lane.phases;
        const double total_ns = static_cast<double>(
            p.frontendNs + p.physicsNs + p.workloadNs + p.bookkeepingNs);
        w.key("phases");
        w.beginObject();
        w.field("steps", p.steps);
        w.field("frontend_ns", p.frontendNs);
        w.field("physics_ns", p.physicsNs);
        w.field("workload_ns", p.workloadNs);
        w.field("bookkeeping_ns", p.bookkeepingNs);
        w.field("frontend_frac",
                total_ns > 0.0 ? p.frontendNs / total_ns : 0.0);
        w.field("physics_frac",
                total_ns > 0.0 ? p.physicsNs / total_ns : 0.0);
        w.field("workload_frac",
                total_ns > 0.0 ? p.workloadNs / total_ns : 0.0);
        w.field("bookkeeping_frac",
                total_ns > 0.0 ? p.bookkeepingNs / total_ns : 0.0);
        w.endObject();
    }
    w.endObject();
    w.key("table2_de");
    w.beginObject();
    w.field("cells", quick ? 0 : 25);
    w.field("steps", table2.steps);
    w.field("wall_s", table2.wallSeconds);
    w.field("steps_per_sec", table2.stepsPerSec());
    w.endObject();
    emitCacheStats(w);
    w.endObject();
    writeTextFile(json_path, w.str() + "\n");

    for (const auto &row : micro) {
        std::printf("%-14s %12.3g steps/s  (%llu steps / %.2f s)\n",
                    row.name, row.result.stepsPerSec(),
                    static_cast<unsigned long long>(row.result.steps),
                    row.result.wallSeconds);
    }
    for (const auto &row : batch_rows) {
        std::printf("batch8_%-7s %12.3g lane-steps/s  (%.2fx vs "
                    "static_10mF)\n",
                    row.name, row.result.stepsPerSec(),
                    micro[0].result.stepsPerSec() > 0.0
                        ? row.result.stepsPerSec() /
                            micro[0].result.stepsPerSec()
                        : 0.0);
    }
    if (!avx2_available)
        std::printf("batch8_avx2    skipped (host lacks AVX2)\n");
    if (!avx512_available)
        std::printf("batch8_avx512  skipped (host lacks AVX-512F or the "
                    "kernel was not compiled in)\n");
    if (!quick) {
        const auto &p = lane.phases;
        const double total_ns = static_cast<double>(
            p.frontendNs + p.physicsNs + p.workloadNs + p.bookkeepingNs);
        std::printf("lane_engine    %zu cells on %s: %.2fx vs classic "
                    "(%.2f s -> %.2f s), %s\n",
                    lane.cells, lane.kernel, lane.speedup(),
                    lane.classicWallSeconds, lane.batchWallSeconds,
                    lane.divergent == 0 ? "bit-identical" : "DIVERGED");
        if (total_ns > 0.0) {
            std::printf("  phase split: frontend %.1f%%, physics %.1f%%, "
                        "workload %.1f%%, bookkeeping %.1f%%\n",
                        100.0 * p.frontendNs / total_ns,
                        100.0 * p.physicsNs / total_ns,
                        100.0 * p.workloadNs / total_ns,
                        100.0 * p.bookkeepingNs / total_ns);
        }
    }
    if (!quick) {
        std::printf("%-14s %12.3g steps/s  (%llu steps / %.2f s, "
                    "25 cells)\n",
                    "table2_de", table2.stepsPerSec(),
                    static_cast<unsigned long long>(table2.steps),
                    table2.wallSeconds);
    }
    const auto &c = sim::hotloop::counters();
    std::printf("cache hit rates: leak %.3f, transfer %.3f\n",
                sim::hotloop::hitRate(c.leakCacheHits, c.leakCacheMisses),
                sim::hotloop::hitRate(c.transferCacheHits,
                                      c.transferCacheMisses));
    std::printf("artifact: %s\n", json_path.c_str());
    if (!quick && lane.divergent != 0) {
        std::fprintf(stderr, "\n%zu of %zu lane-engine cells diverged "
                     "from classic per-cell execution\n",
                     lane.divergent, lane.cells);
        return 1;
    }
    return 0;
}
