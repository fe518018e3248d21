/**
 * @file
 * Google-benchmark microbenchmarks for the simulator's hot loops: one
 * integration step per buffer architecture, the exact charge-transfer
 * kernel, AES-128, and trace generation.  These bound the wall-clock
 * cost of the table benches (hundreds of millions of steps).
 *
 * The binary also audits the steady-state engine path for heap
 * allocations before running the benchmarks: global operator new/delete
 * are replaced with counting shims, each buffer architecture is stepped
 * through a warmed-up regime, and any allocation on that path fails the
 * process.  The per-step benchmarks additionally report an
 * `allocs_per_iter` counter so a regression is visible in the numbers,
 * not just the exit code.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include <benchmark/benchmark.h>

#include "buffers/morphy_buffer.hh"
#include "buffers/static_buffer.hh"
#include "core/react_buffer.hh"
#include "harness/batch_runner.hh"
#include "harness/paper_setup.hh"
#include "harvest/frontend.hh"
#include "sim/batch_stepper.hh"
#include "sim/charge_transfer.hh"
#include "sim/simd.hh"
#include "trace/generator.hh"
#include "trace/power_trace.hh"
#include "workload/aes128.hh"
#include "workload/de_benchmark.hh"

// ---------------------------------------------------------------------------
// Counting allocator shims.  Relaxed ordering suffices: the audit reads the
// counter on the same thread that allocates, and the benchmarks only need a
// statistically meaningful count.
// ---------------------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_allocCount{0};

uint64_t
allocCount()
{
    return g_allocCount.load(std::memory_order_relaxed);
}

} // namespace

// GCC pairs the replacement delete below against the *default* operator
// new and warns about free(); the pairing is correct here because the
// replacement new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace {

using namespace react;

// ---------------------------------------------------------------------------
// Steady-state zero-allocation audit.
//
// Warm each architecture past its transient (bank bring-up, ladder climb),
// then count heap allocations over a window of steps.  The engine contract
// -- established by preallocating the CapacitorNetwork topology scratch --
// is *zero* on this path; any count is a regression and fails the binary
// before the benchmarks run.
// ---------------------------------------------------------------------------

template <typename Buffer>
uint64_t
auditSteps(Buffer &buf, int steps)
{
    const uint64_t before = allocCount();
    for (int i = 0; i < steps; ++i) {
        buf.step(units::Seconds(1e-3), units::Watts(3e-3),
                 units::Amps(1e-3));
        benchmark::DoNotOptimize(buf.railVoltage());
    }
    return allocCount() - before;
}

int
runAllocationAudit()
{
    constexpr int kWarmupSteps = 20000;
    constexpr int kAuditSteps = 100000;
    int failures = 0;

    auto report = [&](const char *name, uint64_t allocs) {
        std::printf("alloc-audit: %-18s %8llu allocations / %d steps %s\n",
                    name, static_cast<unsigned long long>(allocs),
                    kAuditSteps, allocs == 0 ? "[ok]" : "[FAIL]");
        if (allocs != 0)
            ++failures;
    };

    {
        buffer::StaticBuffer buf(
            harness::staticBufferSpec(units::Farads(10e-3)));
        auditSteps(buf, kWarmupSteps);
        report("StaticBuffer", auditSteps(buf, kAuditSteps));
    }
    {
        core::ReactBuffer buf;
        // Charge with the backend off, then run powered so the bank
        // scheduler exercises its normal rotate/adapt cadence.
        auditSteps(buf, kWarmupSteps);
        buf.notifyBackendPower(true);
        auditSteps(buf, kWarmupSteps);
        report("ReactBuffer", auditSteps(buf, kAuditSteps));
    }
    {
        buffer::MorphyBuffer buf;
        // The warmup climbs the configuration ladder; the audit window
        // still crosses reconfigurations (threshold hunting), which the
        // shared-ladder storage keeps allocation-free.
        auditSteps(buf, kWarmupSteps);
        report("MorphyBuffer", auditSteps(buf, kAuditSteps));
    }

    // Reconfiguration-phase audit: no warmup at all.  The window starts
    // at the very first step and spans the bring-up transient -- REACT's
    // bank actuations and FRAM persists with the backend already on,
    // Morphy's cold ladder climb with its adoptConfig() recompilations.
    // The flattened network state, the transfer caches, and the FRAM
    // image are all sized at construction, so even the first step after
    // every reconfiguration must be allocation-free.
    {
        core::ReactBuffer buf;
        buf.notifyBackendPower(true);
        report("ReactBuffer cold", auditSteps(buf, kAuditSteps));
    }
    {
        buffer::MorphyBuffer buf;
        report("MorphyBuffer cold", auditSteps(buf, kAuditSteps));
    }

    // Batch lane engine: admission (the transpose), the very first step
    // after it, and the steady stepping loop must all be heap-free --
    // the whole engine lives in fixed-capacity member arrays.  Audit
    // every kernel this host can run.
    {
        std::vector<sim::simd::Kernel> kernels = {
            sim::simd::Kernel::Scalar};
        if (sim::simd::avx2Available())
            kernels.push_back(sim::simd::Kernel::Avx2);
        if (sim::simd::avx512Available())
            kernels.push_back(sim::simd::Kernel::Avx512);
        for (const auto kernel : kernels) {
            const uint64_t before = allocCount();
            sim::BatchStepper stepper(kernel, 1e-3);
            for (int lane = 0; lane < sim::BatchStepper::kMaxLanes;
                 ++lane) {
                sim::BatchLaneInit init;
                init.voltage = 0.5 + 0.25 * lane;
                init.capacitance = 10e-3;
                init.clamp = 3.6;
                init.leakDecay = 0.9999999;
                stepper.addLane(init);
                stepper.setHarvestPower(lane, 3e-3);
                stepper.setLoadCurrent(lane, 1e-3);
            }
            // No warmup on purpose: the window opens before the first
            // step, covering admission and the post-transpose step.
            for (int i = 0; i < kAuditSteps; ++i) {
                stepper.step();
                benchmark::DoNotOptimize(stepper.voltage(0));
            }
            stepper.freezeLane(1);
            stepper.step();
            const char *name = kernel == sim::simd::Kernel::Avx512
                ? "BatchStepper avx512"
                : kernel == sim::simd::Kernel::Avx2
                    ? "BatchStepper avx2" : "BatchStepper scalar";
            report(name, allocCount() - before);
        }
    }

    // Batched frontend path: a whole runExperimentBatch, admission
    // included.  Admission work -- Lane construction, compiling the
    // trace through the frontend into power spans, seeding the lanes --
    // may allocate; the steady stepping loop (span sweep, gate lane
    // masks, workload ticks, bookkeeping) must not.  The same samples
    // at two sampling rates give identical admission shapes (same
    // sample and span counts) but a 100x different step count, so the
    // two allocation totals must be exactly equal: any difference is a
    // per-step allocation on the batched path.
    {
        auto run_allocs = [](double sample_dt) -> uint64_t {
            std::vector<double> samples(40);
            for (size_t i = 0; i < samples.size(); ++i)
                samples[i] = (i % 4) == 3 ? 0.0 : 3e-3;
            harness::ExperimentConfig config;
            config.drainAllowance = 1.0;
            const uint64_t before = allocCount();
            buffer::StaticBuffer buf_a(
                harness::staticBufferSpec(units::Farads(10e-3)));
            buffer::StaticBuffer buf_b(
                harness::staticBufferSpec(units::Farads(470e-6)));
            workload::DataEncryptionBenchmark bench_a, bench_b;
            harvest::HarvesterFrontend frontend(
                trace::PowerTrace(sample_dt, samples, "audit"));
            harness::ExperimentResult res_a, res_b;
            const harness::BatchCell cells[2] = {
                {&buf_a, &bench_a, &frontend, &res_a},
                {&buf_b, &bench_b, &frontend, &res_b},
            };
            harness::runExperimentBatch(cells, 2, config,
                                        sim::simd::selectedKernel() ==
                                                sim::simd::Kernel::Disabled
                                            ? sim::simd::Kernel::Scalar
                                            : sim::simd::selectedKernel());
            return allocCount() - before;
        };
        const uint64_t short_run = run_allocs(0.05);
        const uint64_t long_run = run_allocs(5.0);
        const uint64_t delta = long_run > short_run
            ? long_run - short_run : short_run - long_run;
        std::printf("alloc-audit: %-18s %8llu admission allocations, "
                    "+%llu over a 100x longer run %s\n",
                    "BatchRunner",
                    static_cast<unsigned long long>(short_run),
                    static_cast<unsigned long long>(delta),
                    delta == 0 ? "[ok]" : "[FAIL]");
        if (delta != 0)
            ++failures;
    }

    if (failures != 0) {
        std::fprintf(stderr,
                     "alloc-audit: %d architecture(s) allocate on the "
                     "steady-state step path\n",
                     failures);
    }
    return failures;
}

// ---------------------------------------------------------------------------
// Microbenchmarks.
// ---------------------------------------------------------------------------

void
BM_StaticBufferStep(benchmark::State &state)
{
    buffer::StaticBuffer buf(
        harness::staticBufferSpec(units::Farads(10e-3)));
    const uint64_t before = allocCount();
    for (auto _ : state) {
        buf.step(units::Seconds(1e-3), units::Watts(2e-3),
                 units::Amps(1e-3));
        benchmark::DoNotOptimize(buf.railVoltage());
    }
    state.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(allocCount() - before),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_StaticBufferStep);

void
BM_ReactBufferStep(benchmark::State &state)
{
    core::ReactBuffer buf;
    for (int i = 0; i < 5000; ++i)
        buf.step(units::Seconds(1e-3), units::Watts(3e-3),
                 units::Amps(0.0));
    buf.notifyBackendPower(true);
    const uint64_t before = allocCount();
    for (auto _ : state) {
        buf.step(units::Seconds(1e-3), units::Watts(3e-3),
                 units::Amps(1e-3));
        benchmark::DoNotOptimize(buf.railVoltage());
    }
    state.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(allocCount() - before),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ReactBufferStep);

void
BM_MorphyBufferStep(benchmark::State &state)
{
    buffer::MorphyBuffer buf;
    for (int i = 0; i < 5000; ++i)
        buf.step(units::Seconds(1e-3), units::Watts(3e-3),
                 units::Amps(0.0));
    const uint64_t before = allocCount();
    for (auto _ : state) {
        buf.step(units::Seconds(1e-3), units::Watts(3e-3),
                 units::Amps(1e-3));
        benchmark::DoNotOptimize(buf.railVoltage());
    }
    state.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(allocCount() - before),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MorphyBufferStep);

void
BM_ChargeTransfer(benchmark::State &state)
{
    sim::CapacitorSpec spec;
    spec.capacitance = units::Farads(1e-3);
    spec.ratedVoltage = units::Volts(6.3);
    sim::Capacitor a(spec, units::Volts(3.5)), b(spec, units::Volts(1.9));
    for (auto _ : state) {
        auto r = sim::transferCharge(a, b, units::Ohms(1.0),
                                     units::Volts(0.01),
                                     units::Seconds(1e-3));
        benchmark::DoNotOptimize(r.charge);
        // Keep the pair from settling so the kernel stays on the hot
        // path.
        a.setVoltage(units::Volts(3.5));
        b.setVoltage(units::Volts(1.9));
    }
}
BENCHMARK(BM_ChargeTransfer);

void
BM_Aes128Block(benchmark::State &state)
{
    workload::Aes128 aes({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                          0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
                          0x3c});
    workload::Aes128::Block block{};
    for (auto _ : state) {
        block = aes.encrypt(block);
        benchmark::DoNotOptimize(block);
    }
}
BENCHMARK(BM_Aes128Block);

void
BM_TraceGeneration(benchmark::State &state)
{
    trace::VolatileSourceParams p;
    p.duration = static_cast<double>(state.range(0));
    p.targetMeanPower = 1e-3;
    p.targetCv = 1.5;
    uint64_t seed = 1;
    for (auto _ : state) {
        Rng rng(seed++);
        auto t = trace::generateVolatileSource(p, rng);
        benchmark::DoNotOptimize(t.totalEnergy());
    }
}
BENCHMARK(BM_TraceGeneration)->Arg(60)->Arg(300);

} // namespace

int
main(int argc, char **argv)
{
    const int audit_failures = runAllocationAudit();

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    return audit_failures == 0 ? 0 : 1;
}
