/**
 * @file
 * Scalar/SIMD differential suite for the batch-of-cells lane engine
 * (sim/batch_stepper.hh, harness/batch_runner.hh).
 *
 * The engine's whole contract is *bit* equality: a cell advanced on any
 * lane kernel, in any batch, must produce exactly the bytes the classic
 * per-cell runExperiment produces.  The suite pins that from three
 * sides:
 *
 *  - fixed-configuration differentials (paper-style cells, every exit
 *    path) asserting byte-identical stateDigest, ledger totals,
 *    counters, and residuals per kernel;
 *  - a seeded randomized sweep -- hundreds of generated cells over
 *    capacitance x trace shape (bursty, gate-flappy, zero-tailed, at
 *    ragged sample periods) x converter frontend (identity, datasheet
 *    presets, randomized sigmoids -- per lane, mixed within a batch)
 *    x workload -- with a shrinker that, on first divergence,
 *    minimizes the failing cell's trace and prints a one-line "REPRO:"
 *    recipe;
 *  - a span-compilation differential walking the admission-time
 *    frontend table step by step against the per-step power() path;
 *  - batch-shape properties: permutations, splits (8 vs 4+4 vs 3+5),
 *    ragged tails, and grid chunking must not change any cell's bytes,
 *    which is what makes the engine safe under any thread count (a
 *    worker's batch composition is scheduling-dependent; results are
 *    not);
 *  - the grid entry point on every kernel, including the cells it must
 *    send back to runExperiment (REACT/Morphy, fault plans, rail
 *    recording).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "buffers/static_buffer.hh"
#include "harness/batch_runner.hh"
#include "harvest/converter.hh"
#include "harness/experiment.hh"
#include "harness/grid.hh"
#include "harness/paper_setup.hh"
#include "sim/batch_stepper.hh"
#include "sim/simd.hh"
#include "trace/paper_traces.hh"
#include "trace/power_trace.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace react {
namespace harness {
namespace {

using trace::PowerTrace;

/** Reinterpret a double's bytes: the suite asserts *bit* equality, and
 *  EXPECT_EQ on doubles would call -0.0 == +0.0 identical. */
uint64_t
bits(double v)
{
    uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** Assert two results are byte-identical in every field the digest and
 *  the benches consume. */
void
expectBitIdentical(const ExperimentResult &got, const ExperimentResult &want,
                   const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(got.stateDigest, want.stateDigest);
    EXPECT_EQ(got.steps, want.steps);
    EXPECT_EQ(got.powerCycles, want.powerCycles);
    EXPECT_EQ(got.workUnits, want.workUnits);
    EXPECT_EQ(got.packetsRx, want.packetsRx);
    EXPECT_EQ(got.packetsTx, want.packetsTx);
    EXPECT_EQ(got.failedOps, want.failedOps);
    EXPECT_EQ(got.missedEvents, want.missedEvents);
    EXPECT_EQ(got.faultEvents, want.faultEvents);
    EXPECT_EQ(got.recoveryEvents, want.recoveryEvents);
    EXPECT_EQ(bits(got.latency), bits(want.latency));
    EXPECT_EQ(bits(got.onTime), bits(want.onTime));
    EXPECT_EQ(bits(got.totalTime), bits(want.totalTime));
    EXPECT_EQ(bits(got.residualEnergy), bits(want.residualEnergy));
    EXPECT_EQ(bits(got.conservationError), bits(want.conservationError));
    EXPECT_EQ(bits(got.ledger.leaked.raw()), bits(want.ledger.leaked.raw()));
    EXPECT_EQ(bits(got.ledger.harvested.raw()),
              bits(want.ledger.harvested.raw()));
    EXPECT_EQ(bits(got.ledger.delivered.raw()),
              bits(want.ledger.delivered.raw()));
    EXPECT_EQ(bits(got.ledger.clipped.raw()),
              bits(want.ledger.clipped.raw()));
    ASSERT_EQ(got.rail.size(), want.rail.size());
    for (size_t i = 0; i < want.rail.size(); ++i) {
        EXPECT_EQ(bits(got.rail[i].time), bits(want.rail[i].time));
        EXPECT_EQ(bits(got.rail[i].voltage), bits(want.rail[i].voltage));
        EXPECT_EQ(got.rail[i].backendOn, want.rail[i].backendOn);
    }
}

/** The lane kernels this host can run: scalar always, AVX2/AVX-512 when
 *  the build and the CPU allow.  Differential tests iterate all of them. */
std::vector<sim::simd::Kernel>
availableKernels()
{
    std::vector<sim::simd::Kernel> kernels = {sim::simd::Kernel::Scalar};
    if (sim::simd::avx2Available())
        kernels.push_back(sim::simd::Kernel::Avx2);
    if (sim::simd::avx512Available())
        kernels.push_back(sim::simd::Kernel::Avx512);
    return kernels;
}

/** Feast/famine trace: 5 s of power, 35 s of darkness, repeated. */
PowerTrace
burstTrace(double watts, int cycles, const std::string &name)
{
    std::vector<double> samples;
    for (int c = 0; c < cycles; ++c) {
        samples.insert(samples.end(), 50, watts);
        samples.insert(samples.end(), 350, 0.0);
    }
    return PowerTrace(0.1, std::move(samples), name);
}

/** Short-run config shared by the differential tests: the property is
 *  per-step bit equality, so short traces prove as much as long ones. */
ExperimentConfig
diffConfig()
{
    ExperimentConfig cfg;
    cfg.enableVoltage = 3.3;
    cfg.brownoutVoltage = 1.8;
    cfg.drainAllowance = 30.0;
    cfg.settleTime = 2.0;
    cfg.strictConservation = true;
    return cfg;
}

/** Generated description of one differential cell; everything derives
 *  from (sweep seed, index) so a failure is a two-number repro. */
struct CellSpec
{
    uint64_t sweepSeed = 0;
    int index = 0;
    double capacitanceF = 10e-3;
    double clampV = 3.6;
    /** Trace synthesis inputs (seeded random bursts). */
    int traceSamples = 300;
    uint64_t traceSeed = 1;
    /** Trace sample period; varies per lane, so one batch mixes span
     *  boundaries that never line up across lanes. */
    double traceDt = 0.1;
    /** 0 = random bursts, 1 = gate-flappy near-threshold micro-bursts,
     *  2 = bursts with a hard zero-power tail (settle/drain path). */
    int traceShape = 0;
    /** 0 = identity (null converter), 1 = RF rectifier preset,
     *  2 = solar boost preset, 3 = randomized sigmoid (params below). */
    int converterKind = 0;
    double convEtaFloor = 0.05;
    double convEtaCeiling = 0.9;
    double convPHalfW = 1e-3;
    double convSlope = 2.0;
    double convQuiescentW = 5e-6;
    /** -1 = no benchmark (Fig. 1 style), else BenchmarkKind index. */
    int benchKind = -1;
    uint64_t benchSeed = 42;

    std::string repro() const
    {
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "REPRO: sweep_seed=%llu index=%d cap=%.17g clamp=%.17g "
                      "trace_samples=%d trace_seed=%llu trace_dt=%.17g "
                      "trace_shape=%d conv=%d conv_params=[%.17g %.17g %.17g "
                      "%.17g %.17g] bench=%d bench_seed=%llu",
                      static_cast<unsigned long long>(sweepSeed), index,
                      capacitanceF, clampV, traceSamples,
                      static_cast<unsigned long long>(traceSeed), traceDt,
                      traceShape, converterKind, convEtaFloor, convEtaCeiling,
                      convPHalfW, convSlope, convQuiescentW, benchKind,
                      static_cast<unsigned long long>(benchSeed));
        return buf;
    }
};

/** Draw one cell from the sweep generator.  Capacitance, clamp, trace,
 *  frontend, and workload vary per cell; the config is diffConfig()
 *  for every cell, because runExperimentBatch -- like the production
 *  grid -- shares one ExperimentConfig across a batch. */
CellSpec
drawCell(uint64_t sweep_seed, int index)
{
    Rng rng(sweep_seed ^ (0x9e3779b97f4a7c15ull * (uint64_t(index) + 1)));
    CellSpec spec;
    spec.sweepSeed = sweep_seed;
    spec.index = index;
    // Log-uniform 0.5 mF .. 50 mF: spans Fig. 1's reactive-to-sluggish
    // range so enables, brown-outs, and clipping all occur in the pool.
    spec.capacitanceF = 0.5e-3 * std::pow(100.0, rng.uniform());
    spec.clampV = rng.uniform(3.4, 4.0);
    spec.traceSamples = rng.uniformInt(100, 400);
    spec.traceSeed = rng.next();
    spec.benchKind = rng.uniformInt(-1, 3);
    spec.benchSeed = rng.next();
    // Ragged sample periods: span boundaries land on different steps in
    // every lane, so batch-mate span advances never align.
    const double dts[] = {0.05, 0.1, 0.2};
    spec.traceDt = dts[rng.uniformInt(0, 2)];
    spec.traceSamples =
        static_cast<int>(spec.traceSamples * (0.1 / spec.traceDt));
    spec.traceShape = rng.uniformInt(0, 2);
    // Per-lane frontend: mix identity, the two datasheet presets, and
    // fully randomized sigmoid parameters within one batch.
    spec.converterKind = rng.uniformInt(0, 3);
    if (spec.converterKind == 3) {
        spec.convEtaFloor = rng.uniform(0.01, 0.2);
        spec.convEtaCeiling = rng.uniform(0.6, 0.95);
        spec.convPHalfW = std::pow(10.0, rng.uniform(-4.0, -2.0));
        spec.convSlope = rng.uniform(1.0, 4.0);
        spec.convQuiescentW = std::pow(10.0, rng.uniform(-6.0, -4.5));
    }
    return spec;
}

/** Synthesize the spec's trace: seeded random bursts with hard zeros
 *  (exercising the no-harvest masked path) and occasional strong
 *  samples (exercising the overvoltage clip).  Shape 1 is micro-bursts
 *  that hold the rail in the hysteresis band so the gate latch flips
 *  constantly (including right at lane freeze boundaries); shape 2
 *  appends a hard zero-power tail covering the settle/drain exits. */
PowerTrace
cellTrace(const CellSpec &spec)
{
    Rng rng(spec.traceSeed);
    const size_t want = static_cast<size_t>(spec.traceSamples);
    std::vector<double> samples;
    samples.reserve(want);
    if (spec.traceShape == 1) {
        bool dark = rng.uniform() < 0.5;
        while (samples.size() < want) {
            const int span = rng.uniformInt(1, 4);
            const double watts = dark ? 0.0 : rng.uniform(20e-3, 60e-3);
            for (int i = 0; i < span && samples.size() < want; ++i)
                samples.push_back(watts);
            dark = !dark;
        }
    } else {
        const size_t lit = spec.traceShape == 2 ? want * 7 / 10 : want;
        while (samples.size() < lit) {
            const bool dark = rng.uniform() < 0.4;
            const int span = rng.uniformInt(5, 40);
            const double watts = dark ? 0.0 : rng.uniform(0.5e-3, 30e-3);
            for (int i = 0; i < span && samples.size() < lit; ++i)
                samples.push_back(watts);
        }
        samples.resize(want, 0.0);
    }
    return PowerTrace(spec.traceDt, std::move(samples),
                      "diff-" + std::to_string(spec.index));
}

/** Instantiated components of one cell, identically constructed for the
 *  classic and batch runs. */
struct BuiltCell
{
    std::unique_ptr<buffer::StaticBuffer> buffer;
    std::unique_ptr<workload::Benchmark> benchmark;
    std::unique_ptr<PowerTrace> trace;
    std::unique_ptr<harvest::HarvesterFrontend> frontend;
    ExperimentConfig config;
};

BuiltCell
buildCell(const CellSpec &spec)
{
    BuiltCell built;
    built.config = diffConfig();
    built.trace = std::make_unique<PowerTrace>(cellTrace(spec));
    built.buffer = std::make_unique<buffer::StaticBuffer>(
        staticBufferSpec(units::Farads(spec.capacitanceF)),
        units::Volts(spec.clampV));
    if (spec.benchKind >= 0)
        built.benchmark = makeBenchmark(
            kAllBenchmarks[static_cast<size_t>(spec.benchKind)],
            built.trace->duration() + built.config.drainAllowance,
            spec.benchSeed);
    std::unique_ptr<harvest::Converter> converter;
    switch (spec.converterKind) {
    case 1:
        converter = std::make_unique<harvest::RfRectifier>();
        break;
    case 2:
        converter = std::make_unique<harvest::SolarBoostCharger>();
        break;
    case 3:
        converter = std::make_unique<harvest::SigmoidEfficiencyConverter>(
            spec.convEtaFloor, spec.convEtaCeiling,
            units::Watts(spec.convPHalfW), spec.convSlope,
            units::Watts(spec.convQuiescentW));
        break;
    default:
        break;
    }
    built.frontend = std::make_unique<harvest::HarvesterFrontend>(
        *built.trace, std::move(converter));
    return built;
}

/** Classic per-cell reference run. */
ExperimentResult
runClassicCell(const CellSpec &spec)
{
    BuiltCell built = buildCell(spec);
    return runExperiment(*built.buffer, built.benchmark.get(),
                         *built.frontend, built.config);
}

/**
 * Run a group of specs as lane batches (in chunks of kMaxLanes, in the
 * given order) on one kernel.  Every spec's config is diffConfig(), so
 * each batch shares one config, like the grid's.
 */
std::vector<ExperimentResult>
runBatchedCells(const std::vector<CellSpec> &specs, sim::simd::Kernel kernel)
{
    std::vector<ExperimentResult> results(specs.size());
    size_t begin = 0;
    while (begin < specs.size()) {
        const size_t end =
            std::min(begin + sim::BatchStepper::kMaxLanes, specs.size());
        std::vector<BuiltCell> built;
        std::array<BatchCell, sim::BatchStepper::kMaxLanes> batch;
        for (size_t i = begin; i < end; ++i)
            built.push_back(buildCell(specs[i]));
        for (size_t i = begin; i < end; ++i) {
            BuiltCell &cell = built[i - begin];
            EXPECT_TRUE(batchAdmissible(*cell.buffer, cell.config))
                << specs[i].repro();
            batch[i - begin] = BatchCell{cell.buffer.get(),
                                         cell.benchmark.get(),
                                         cell.frontend.get(), &results[i]};
        }
        runExperimentBatch(batch.data(), static_cast<int>(end - begin),
                           built.front().config, kernel);
        begin = end;
    }
    return results;
}

bool
sameBits(const ExperimentResult &a, const ExperimentResult &b)
{
    return a.stateDigest == b.stateDigest && a.steps == b.steps &&
        a.workUnits == b.workUnits && a.powerCycles == b.powerCycles &&
        bits(a.latency) == bits(b.latency) &&
        bits(a.totalTime) == bits(b.totalTime) &&
        bits(a.residualEnergy) == bits(b.residualEnergy) &&
        bits(a.ledger.leaked.raw()) == bits(b.ledger.leaked.raw()) &&
        bits(a.ledger.harvested.raw()) == bits(b.ledger.harvested.raw()) &&
        bits(a.ledger.delivered.raw()) == bits(b.ledger.delivered.raw()) &&
        bits(a.ledger.clipped.raw()) == bits(b.ledger.clipped.raw());
}

/** Does this cell diverge between the classic engine and a solo lane
 *  batch on @p kernel?  The shrinker's oracle. */
bool
cellDiverges(const CellSpec &spec, sim::simd::Kernel kernel)
{
    const auto classic = runClassicCell(spec);
    const auto batch = runBatchedCells({spec}, kernel);
    return !sameBits(classic, batch[0]);
}

/**
 * Shrink a diverging cell: halve the trace while the divergence
 * persists, then binary-search the shortest still-diverging prefix.
 * Returns the minimized spec (always still diverging).
 */
CellSpec
shrinkCell(CellSpec spec, sim::simd::Kernel kernel)
{
    int lo = 1, hi = spec.traceSamples;
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        CellSpec candidate = spec;
        candidate.traceSamples = mid;
        if (cellDiverges(candidate, kernel))
            hi = mid;
        else
            lo = mid + 1;
    }
    spec.traceSamples = hi;
    return spec;
}

// ---------------------------------------------------------------------------
// Fixed-configuration differentials.
// ---------------------------------------------------------------------------

/** Run-protocol exit paths the solo-cell differential covers. */
enum class ExitPath
{
    /** Trace end, then the settle off-streak or the drain allowance. */
    Drain,
    /** stopAfterLatency: leave on the first enable (Table 4 runs). */
    StopAfterLatency,
    /** settleTime = 0 (settleSteps == 0): leave on the trace-end step. */
    ZeroSettle,
};

/**
 * The solo-cell differential, parameterized over exit paths (the
 * protocol's exit test has one definition, but each engine reaches it
 * through its own settle counting and dispatch, so every path is
 * witnessed on both).  Named after the suite it extends.
 */
class BatchStepper : public testing::TestWithParam<ExitPath>
{
  protected:
    BatchStepper() : cfg(diffConfig())
    {
        switch (GetParam()) {
        case ExitPath::Drain:
            break;
        case ExitPath::StopAfterLatency:
            cfg.stopAfterLatency = true;
            break;
        case ExitPath::ZeroSettle:
            cfg.settleTime = 0.0;
            break;
        }
    }

    ExperimentConfig cfg;
};

TEST_P(BatchStepper, SoloCellMatchesClassicOnEveryKernel)
{
    // The base property: one paper-style cell (10 mF static, DE
    // workload, RF-cart trace) run as a batch of one is byte-identical
    // to runExperiment, on every kernel this host has.
    const auto trace = trace::makePaperTrace(trace::PaperTrace::RfCart, 1);
    auto run_classic = [&]() {
        buffer::StaticBuffer buf(
            staticBufferSpec(units::Farads(10e-3)), units::Volts(3.6));
        auto de = makeBenchmark(BenchmarkKind::DataEncryption,
                                trace.duration() + cfg.drainAllowance, 42);
        harvest::HarvesterFrontend frontend(trace);
        return runExperiment(buf, de.get(), frontend, cfg);
    };
    const auto classic = run_classic();
    // Non-vacuous: the cell starts, and each exit path ends it where
    // that path says.
    ASSERT_GE(classic.latency, 0.0);
    if (cfg.stopAfterLatency) {
        EXPECT_EQ(classic.powerCycles, 1u);
        EXPECT_LT(classic.totalTime, trace.duration());
    } else {
        EXPECT_GT(classic.powerCycles, 0u);
        EXPECT_GE(classic.totalTime, trace.duration());
    }
    for (const auto kernel : availableKernels()) {
        buffer::StaticBuffer buf(
            staticBufferSpec(units::Farads(10e-3)), units::Volts(3.6));
        auto de = makeBenchmark(BenchmarkKind::DataEncryption,
                                trace.duration() + cfg.drainAllowance, 42);
        harvest::HarvesterFrontend frontend(trace);
        ExperimentResult result;
        BatchCell cell{&buf, de.get(), &frontend, &result};
        ASSERT_TRUE(batchAdmissible(buf, cfg));
        runExperimentBatch(&cell, 1, cfg, kernel);
        expectBitIdentical(result, classic,
                           std::string("kernel=") +
                               sim::simd::kernelName(kernel));
    }
}

INSTANTIATE_TEST_SUITE_P(
    ExitPaths, BatchStepper,
    testing::Values(ExitPath::Drain, ExitPath::StopAfterLatency,
                    ExitPath::ZeroSettle),
    [](const testing::TestParamInfo<ExitPath> &info) {
        switch (info.param) {
        case ExitPath::Drain:
            return std::string("Drain");
        case ExitPath::StopAfterLatency:
            return std::string("StopAfterLatency");
        case ExitPath::ZeroSettle:
            return std::string("ZeroSettle");
        }
        return std::string("Unknown");
    });

TEST(BatchStepper, Fig1StyleFourLaneBatchMatchesClassic)
{
    // Fig. 1's exact shape: four capacitances, no benchmark (backend
    // always active when powered), one shared trace.  The batch must
    // reproduce each solo run bit-for-bit even though the lanes enable,
    // brown out, and clip at completely different times.
    const auto trace = burstTrace(5e-3, 3, "fig1-style");
    auto cfg = diffConfig();
    cfg.enableVoltage = 3.6;
    const double caps[] = {1e-3, 10e-3, 100e-3, 300e-3};
    std::array<ExperimentResult, 4> classic;
    for (int i = 0; i < 4; ++i) {
        buffer::StaticBuffer buf(
            staticBufferSpec(units::Farads(caps[i])), units::Volts(3.6));
        harvest::HarvesterFrontend frontend(trace);
        classic[static_cast<size_t>(i)] =
            runExperiment(buf, nullptr, frontend, cfg);
    }
    for (const auto kernel : availableKernels()) {
        std::array<std::unique_ptr<buffer::StaticBuffer>, 4> bufs;
        harvest::HarvesterFrontend frontend(trace);
        std::array<ExperimentResult, 4> results;
        std::array<BatchCell, 4> batch;
        for (int i = 0; i < 4; ++i) {
            bufs[static_cast<size_t>(i)] =
                std::make_unique<buffer::StaticBuffer>(
                    staticBufferSpec(units::Farads(caps[i])),
                    units::Volts(3.6));
            batch[static_cast<size_t>(i)] =
                BatchCell{bufs[static_cast<size_t>(i)].get(), nullptr,
                          &frontend, &results[static_cast<size_t>(i)]};
        }
        runExperimentBatch(batch.data(), 4, cfg, kernel);
        for (int i = 0; i < 4; ++i)
            expectBitIdentical(results[static_cast<size_t>(i)],
                               classic[static_cast<size_t>(i)],
                               std::string(sim::simd::kernelName(kernel)) +
                                   " cap=" + std::to_string(caps[i]));
    }
}

TEST(BatchStepper, AdmissibilityGate)
{
    const auto cfg = diffConfig();
    buffer::StaticBuffer statik(
        staticBufferSpec(units::Farads(10e-3)), units::Volts(3.6));
    EXPECT_TRUE(batchAdmissible(statik, cfg));

    // The exit-path variants the lane engine replays are in.
    ExperimentConfig latency = cfg;
    latency.stopAfterLatency = true;
    EXPECT_TRUE(batchAdmissible(statik, latency));

    ExperimentConfig zeroSettle = cfg;
    zeroSettle.settleTime = 0.0;
    EXPECT_TRUE(batchAdmissible(statik, zeroSettle));

    // Everything no lane-engine caller sends -- fault plans, rail
    // recording, checkpointing, simulated crashes -- stays with
    // runExperiment.
    ExperimentConfig faulted = cfg;
    faulted.faultPlan = sim::FaultPlan::stress(1.0);
    EXPECT_FALSE(batchAdmissible(statik, faulted));

    ExperimentConfig recorded = cfg;
    recorded.recordRail = true;
    EXPECT_FALSE(batchAdmissible(statik, recorded));

    ExperimentConfig checkpointed = cfg;
    checkpointed.checkpointPath = "/tmp/ckpt";
    EXPECT_FALSE(batchAdmissible(statik, checkpointed));

    ExperimentConfig resuming = cfg;
    resuming.resume = true;
    EXPECT_FALSE(batchAdmissible(statik, resuming));

    ExperimentConfig halting = cfg;
    halting.haltAfterSteps = 100;
    EXPECT_FALSE(batchAdmissible(statik, halting));

    for (const auto kind : {BufferKind::Morphy, BufferKind::React}) {
        auto buf = makeBuffer(kind);
        EXPECT_FALSE(batchAdmissible(*buf, cfg)) << bufferKindName(kind);
    }
}

// ---------------------------------------------------------------------------
// Span compilation: the admission-time frontend table.
// ---------------------------------------------------------------------------

TEST(FrontendSpanCompilation, ReplaysPerStepPowerBitExactly)
{
    // The lane engine replaces the classic loop's per-step
    // frontend.power(t) call with a precompiled span sweep.  Walk the
    // spans step by step against the virtual-call path for two dozen
    // generated frontends (all converter kinds, all trace shapes,
    // ragged dts) and require bit equality at every step -- including
    // past the trace end, where the open-ended zero tail must replay
    // the drain window for free.
    constexpr uint64_t kSeed = 0x5a5a5ull;
    for (int i = 0; i < 24; ++i) {
        const CellSpec spec = drawCell(kSeed, i);
        const BuiltCell built = buildCell(spec);
        const double dt = built.config.dt;
        std::vector<trace::StepSpan> spans;
        built.frontend->compileStepSpans(dt, spans);
        ASSERT_FALSE(spans.empty()) << spec.repro();
        ASSERT_EQ(spans.back().steps, trace::StepSpan::kOpenEnded)
            << spec.repro();
        EXPECT_EQ(bits(spans.back().watts), bits(0.0)) << spec.repro();

        const uint64_t horizon = static_cast<uint64_t>(
            (built.frontend->traceDuration().raw() + 2.0) / dt);
        size_t idx = 0;
        uint64_t left = spans[0].steps;
        double t = 0.0;
        for (uint64_t step = 0; step < horizon; ++step) {
            t += dt;
            if (left == 0) {
                ++idx;
                ASSERT_LT(idx, spans.size()) << spec.repro();
                left = spans[idx].steps;
            }
            --left;
            ASSERT_EQ(
                bits(spans[idx].watts),
                bits(built.frontend->power(units::Seconds(t)).raw()))
                << spec.repro() << " step=" << step << " t=" << t;
        }
    }
}

// ---------------------------------------------------------------------------
// Randomized differential sweep with shrinking.
// ---------------------------------------------------------------------------

TEST(BatchStepperDifferential, RandomizedSweepIsBitExactOnEveryKernel)
{
    // Hundreds of generated cells (capacitance x clamp x trace shape x
    // frontend x workload), batched 8 wide, against the classic
    // engine.  On the first diverging cell the sweep shrinks its trace
    // to the shortest still-diverging prefix and fails with a REPRO
    // line that reconstructs the cell from two numbers.
    constexpr uint64_t kSweepSeed = 0xd1ffe7e57ull;
    constexpr int kCells = 208;  // 26 full batches of 8

    std::vector<CellSpec> pool;
    size_t converted = 0, flappy = 0, darkTailed = 0;
    for (int i = 0; i < kCells; ++i) {
        pool.push_back(drawCell(kSweepSeed, i));
        if (pool.back().converterKind > 0)
            ++converted;
        if (pool.back().traceShape == 1)
            ++flappy;
        if (pool.back().traceShape == 2)
            ++darkTailed;
    }
    // Non-vacuous coverage of every regime the sweep claims to hit:
    // per-lane converter frontends and the gate-flap / zero-tail trace
    // shapes.
    ASSERT_GE(converted, 80u);
    ASSERT_GE(flappy, 32u);
    ASSERT_GE(darkTailed, 32u);

    std::vector<ExperimentResult> classic(pool.size());
    for (size_t i = 0; i < pool.size(); ++i)
        classic[i] = runClassicCell(pool[i]);
    for (const auto kernel : availableKernels()) {
        const auto batched = runBatchedCells(pool, kernel);
        for (size_t i = 0; i < pool.size(); ++i) {
            if (sameBits(batched[i], classic[i]))
                continue;
            const CellSpec shrunk = shrinkCell(pool[i], kernel);
            FAIL() << "lane kernel '" << sim::simd::kernelName(kernel)
                   << "' diverged from the classic engine\n"
                   << shrunk.repro() << "\n(original trace_samples="
                   << pool[i].traceSamples << ", shrunk to "
                   << shrunk.traceSamples << ")";
        }
    }
}

// ---------------------------------------------------------------------------
// Batch-shape properties: composition, splits, permutation, ragged tails.
// ---------------------------------------------------------------------------

TEST(BatchStepperShape, SplitsAndPermutationsDoNotChangeAnyCell)
{
    // One pool of 8 cells run as [8], [4|4], [3|5], and reversed [8]:
    // every arrangement must hand every cell its classic bytes.  This
    // is the property that makes the engine thread-count-proof -- which
    // cells share a worker's batch is a scheduling accident.
    std::vector<CellSpec> specs;
    for (int i = 0; i < 8; ++i)
        specs.push_back(drawCell(0xba7c4, i));
    std::vector<ExperimentResult> classic(specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        classic[i] = runClassicCell(specs[i]);

    for (const auto kernel : availableKernels()) {
        SCOPED_TRACE(sim::simd::kernelName(kernel));
        const auto whole = runBatchedCells(specs, kernel);

        std::vector<CellSpec> firstHalf(specs.begin(), specs.begin() + 4);
        std::vector<CellSpec> secondHalf(specs.begin() + 4, specs.end());
        const auto split4a = runBatchedCells(firstHalf, kernel);
        const auto split4b = runBatchedCells(secondHalf, kernel);

        std::vector<CellSpec> three(specs.begin(), specs.begin() + 3);
        std::vector<CellSpec> five(specs.begin() + 3, specs.end());
        const auto split3 = runBatchedCells(three, kernel);
        const auto split5 = runBatchedCells(five, kernel);

        std::vector<CellSpec> reversed(specs.rbegin(), specs.rend());
        const auto backwards = runBatchedCells(reversed, kernel);

        for (size_t i = 0; i < specs.size(); ++i) {
            const std::string what = "cell " + std::to_string(i);
            expectBitIdentical(whole[i], classic[i], what + " [8]");
            expectBitIdentical(i < 4 ? split4a[i] : split4b[i - 4],
                               classic[i], what + " [4|4]");
            expectBitIdentical(i < 3 ? split3[i] : split5[i - 3],
                               classic[i], what + " [3|5]");
            expectBitIdentical(backwards[specs.size() - 1 - i], classic[i],
                               what + " [reversed]");
        }
    }
}

TEST(BatchStepperShape, RaggedTailsFreezeWithoutPerturbing)
{
    // Pair a cell that drains almost immediately (tiny cap, short dark
    // trace) with one that runs the full horizon: the short lane is
    // frozen for most of the batch, and both must still match their
    // solo classic runs.  Also covers every ragged batch size 1..7.
    CellSpec shortCell;
    shortCell.capacitanceF = 0.6e-3;
    shortCell.traceSamples = 60;
    shortCell.traceSeed = 11;
    CellSpec longCell;
    longCell.capacitanceF = 40e-3;
    longCell.traceSamples = 400;
    longCell.traceSeed = 12;
    longCell.benchKind = 0;

    const auto classicShort = runClassicCell(shortCell);
    const auto classicLong = runClassicCell(longCell);
    // Non-vacuous raggedness: the short cell really ends much earlier.
    ASSERT_LT(classicShort.steps, classicLong.steps / 2);

    for (const auto kernel : availableKernels()) {
        SCOPED_TRACE(sim::simd::kernelName(kernel));
        const auto pair = runBatchedCells({shortCell, longCell}, kernel);
        expectBitIdentical(pair[0], classicShort, "short lane");
        expectBitIdentical(pair[1], classicLong, "long lane");

        for (int n = 1; n <= 7; ++n) {
            std::vector<CellSpec> ragged;
            for (int i = 0; i < n; ++i)
                ragged.push_back(i % 2 == 0 ? shortCell : longCell);
            const auto results = runBatchedCells(ragged, kernel);
            for (int i = 0; i < n; ++i)
                expectBitIdentical(
                    results[static_cast<size_t>(i)],
                    i % 2 == 0 ? classicShort : classicLong,
                    "ragged n=" + std::to_string(n) + " lane " +
                        std::to_string(i));
        }
    }
}

TEST(BatchStepperShape, GridBatchMatchesSoloGridCells)
{
    // The production entry point: runGridCellBatch on a full Table-2
    // column (three static buffers plus Morphy and REACT, real paper
    // trace) must write exactly what runGridCell writes -- seeds derive
    // from cell identity, never from batch composition -- on every
    // kernel.  The static cells ride the lanes under the default
    // config; REACT and Morphy, and every cell under a fault plan or
    // rail recording, fall back to runExperiment inside the same call.
    // Uses the cheapest trace (the shared evaluation cache, so this
    // exercises the real thing).
    prewarmEvaluationTraces();
    const auto trace_kind = trace::kAllPaperTraces[0];

    ExperimentConfig faulted;
    faulted.faultPlan = sim::FaultPlan::stress(1.0);
    ExperimentConfig recorded;
    recorded.recordRail = true;
    const std::array<std::pair<const char *, ExperimentConfig>, 3> configs =
        {{{"default", ExperimentConfig()},
          {"fault plan", faulted},
          {"rail recording", recorded}}};

    for (const auto &[config_name, config] : configs) {
        std::array<ExperimentResult, kAllBuffers.size()> solo;
        for (size_t i = 0; i < kAllBuffers.size(); ++i)
            solo[i] = runGridCell(kAllBuffers[i],
                                  BenchmarkKind::DataEncryption, trace_kind,
                                  config);
        // Non-vacuous: the fallback configs really fault and record.
        for (const auto &result : solo) {
            if (config.faultPlan.enabled()) {
                EXPECT_GT(result.faultEvents, 0u) << config_name;
            }
            if (config.recordRail) {
                EXPECT_FALSE(result.rail.empty()) << config_name;
            }
        }
        for (const auto kernel : availableKernels()) {
            std::array<ExperimentResult, kAllBuffers.size()> batched;
            std::vector<GridBatchCell> cells;
            for (size_t i = 0; i < kAllBuffers.size(); ++i)
                cells.push_back(GridBatchCell{kAllBuffers[i],
                                              BenchmarkKind::DataEncryption,
                                              trace_kind, &batched[i]});
            runGridCellBatch(cells, config, kEvaluationSeed, kernel);
            for (size_t i = 0; i < kAllBuffers.size(); ++i)
                expectBitIdentical(
                    batched[i], solo[i],
                    std::string(config_name) + " kernel=" +
                        sim::simd::kernelName(kernel) + " " +
                        bufferKindName(kAllBuffers[i]));
        }
    }
}

// ---------------------------------------------------------------------------
// Raw BatchStepper unit checks (no harness): frozen-lane and padding
// invariants at the kernel level.
// ---------------------------------------------------------------------------

TEST(BatchStepperKernel, FrozenLaneIsABitwiseNoOp)
{
    for (const auto kernel : availableKernels()) {
        SCOPED_TRACE(sim::simd::kernelName(kernel));
        sim::BatchStepper stepper(kernel, 1e-3);
        sim::BatchLaneInit init;
        init.voltage = 2.5;
        init.capacitance = 10e-3;
        init.clamp = 3.6;
        init.leakDecay = 0.999999;
        init.harvested = 1.25;
        const int lane = stepper.addLane(init);
        stepper.setHarvestPower(lane, 5e-3);
        stepper.setLoadCurrent(lane, 1.5e-3);
        for (int i = 0; i < 100; ++i)
            stepper.step();
        stepper.freezeLane(lane);
        const uint64_t v = bits(stepper.voltage(lane));
        const uint64_t leaked = bits(stepper.leaked(lane));
        const uint64_t harvested = bits(stepper.harvested(lane));
        const uint64_t delivered = bits(stepper.delivered(lane));
        const uint64_t clipped = bits(stepper.clipped(lane));
        for (int i = 0; i < 1000; ++i)
            stepper.step();
        EXPECT_EQ(bits(stepper.voltage(lane)), v);
        EXPECT_EQ(bits(stepper.leaked(lane)), leaked);
        EXPECT_EQ(bits(stepper.harvested(lane)), harvested);
        EXPECT_EQ(bits(stepper.delivered(lane)), delivered);
        EXPECT_EQ(bits(stepper.clipped(lane)), clipped);
    }
}

TEST(BatchStepperKernel, ScalarAndVectorLanesAgreeBitwise)
{
    // The kernel-level differential: identical lane states stepped by
    // the scalar kernel and every available vector kernel stay bitwise
    // equal, lane by lane, step by step.
    const auto kernels = availableKernels();
    if (kernels.size() < 2)
        GTEST_SKIP() << "host cannot run any vector kernel";
    Rng rng(99);
    std::vector<std::unique_ptr<sim::BatchStepper>> steppers;
    for (const auto kernel : kernels)
        steppers.push_back(
            std::make_unique<sim::BatchStepper>(kernel, 1e-3));
    for (int lane = 0; lane < sim::BatchStepper::kMaxLanes; ++lane) {
        sim::BatchLaneInit init;
        init.voltage = rng.uniform(0.0, 4.0);
        init.capacitance = rng.uniform(0.5e-3, 50e-3);
        init.clamp = rng.uniform(3.3, 4.0);
        init.leakDecay = rng.uniform() < 0.3 ? 1.0 : 0.9999995;
        for (auto &stepper : steppers)
            stepper->addLane(init);
    }
    for (int step = 0; step < 5000; ++step) {
        for (int lane = 0; lane < sim::BatchStepper::kMaxLanes; ++lane) {
            const bool dark = rng.uniform() < 0.3;
            const double watts = dark ? 0.0 : rng.uniform(0.0, 20e-3);
            const double amps = rng.uniform() < 0.5 ? 0.0 : 1.5e-3;
            for (auto &stepper : steppers) {
                stepper->setHarvestPower(lane, watts);
                stepper->setLoadCurrent(lane, amps);
            }
        }
        for (auto &stepper : steppers)
            stepper->step();
        const auto &scalar = *steppers.front();
        for (size_t k = 1; k < steppers.size(); ++k) {
            const auto &vec = *steppers[k];
            SCOPED_TRACE(sim::simd::kernelName(vec.kernel()));
            for (int lane = 0; lane < sim::BatchStepper::kMaxLanes;
                 ++lane) {
                ASSERT_EQ(bits(scalar.voltage(lane)),
                          bits(vec.voltage(lane)))
                    << "step " << step << " lane " << lane;
                ASSERT_EQ(bits(scalar.leaked(lane)),
                          bits(vec.leaked(lane)));
                ASSERT_EQ(bits(scalar.harvested(lane)),
                          bits(vec.harvested(lane)));
                ASSERT_EQ(bits(scalar.delivered(lane)),
                          bits(vec.delivered(lane)));
                ASSERT_EQ(bits(scalar.clipped(lane)),
                          bits(vec.clipped(lane)));
            }
        }
    }
}

TEST(BatchStepperKernel, NarrowStepsMatchFullWidth)
{
    // The ragged-tail narrow steps: with the upper lanes frozen,
    // stepLower() (4-wide) must track step() (8-wide) bitwise, and with
    // all but one lane frozen, stepLane() must as well -- on every
    // kernel, through randomized power/load schedules including
    // all-dark stretches (the dark-idle burst's pure-leak steps).
    for (const auto kernel : availableKernels()) {
        SCOPED_TRACE(sim::simd::kernelName(kernel));
        Rng rng(4242);
        sim::BatchStepper full(kernel, 1e-3);
        sim::BatchStepper narrow(kernel, 1e-3);
        for (int lane = 0; lane < sim::BatchStepper::kMaxLanes; ++lane) {
            sim::BatchLaneInit init;
            init.voltage = rng.uniform(0.0, 4.0);
            init.capacitance = rng.uniform(0.5e-3, 50e-3);
            init.clamp = rng.uniform(3.3, 4.0);
            init.leakDecay = rng.uniform() < 0.3 ? 1.0 : 0.9999995;
            full.addLane(init);
            narrow.addLane(init);
        }
        auto compare_all = [&](int step, const char *mode) {
            for (int lane = 0; lane < sim::BatchStepper::kMaxLanes;
                 ++lane) {
                ASSERT_EQ(bits(full.voltage(lane)),
                          bits(narrow.voltage(lane)))
                    << mode << " step " << step << " lane " << lane;
                ASSERT_EQ(bits(full.leaked(lane)),
                          bits(narrow.leaked(lane)));
                ASSERT_EQ(bits(full.harvested(lane)),
                          bits(narrow.harvested(lane)));
                ASSERT_EQ(bits(full.delivered(lane)),
                          bits(narrow.delivered(lane)));
                ASSERT_EQ(bits(full.clipped(lane)),
                          bits(narrow.clipped(lane)));
            }
        };
        auto drive = [&](int live_lanes, int steps, const char *mode,
                         auto &&advance) {
            for (int step = 0; step < steps; ++step) {
                const bool all_dark = rng.uniform() < 0.2;
                for (int lane = 0; lane < live_lanes; ++lane) {
                    const double watts = all_dark || rng.uniform() < 0.3
                        ? 0.0 : rng.uniform(0.0, 20e-3);
                    const double amps = all_dark || rng.uniform() < 0.5
                        ? 0.0 : 1.5e-3;
                    full.setHarvestPower(lane, watts);
                    full.setLoadCurrent(lane, amps);
                    narrow.setHarvestPower(lane, watts);
                    narrow.setLoadCurrent(lane, amps);
                }
                full.step();
                advance();
                compare_all(step, mode);
            }
        };
        // Phase 1: every lane live, both full width (baseline sanity).
        drive(8, 200, "full", [&] { narrow.step(); });
        // Phase 2: upper half frozen; narrow goes 4-wide.
        for (int lane = 4; lane < sim::BatchStepper::kMaxLanes; ++lane) {
            full.freezeLane(lane);
            narrow.freezeLane(lane);
        }
        drive(4, 1000, "lower", [&] { narrow.stepLower(); });
        // Phase 3: single survivor; narrow steps one lane.
        for (int lane = 1; lane < 4; ++lane) {
            full.freezeLane(lane);
            narrow.freezeLane(lane);
        }
        drive(1, 1000, "lane", [&] { narrow.stepLane(0); });
    }
}

} // namespace
} // namespace harness
} // namespace react
