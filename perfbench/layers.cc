/**
 * @file
 * Layer probes every traced run takes, whatever its workload: buffer
 * step() and BatchStepper::step micro loops, result encode/decode, and
 * the snapshot cost of a served cell.
 *
 * The micro loops take repeated samples and interleave the
 * architectures and kernels round by round, so a burst of co-tenant
 * load lands on all of them instead of on whichever ran at that moment;
 * each reports its median and median absolute deviation.
 */

#include <cstdio>
#include <filesystem>
#include <functional>
#include <unistd.h>

#include "buffers/morphy_buffer.hh"
#include "buffers/static_buffer.hh"
#include "core/react_buffer.hh"
#include "harness/checkpoint.hh"
#include "harness/grid.hh"
#include "net/protocol.hh"
#include "perfbench.hh"
#include "sim/batch_stepper.hh"
#include "sim/capacitor.hh"
#include "sim/simd.hh"

namespace perfbench {

using namespace react;

namespace {

constexpr int kMicroRounds = 9;
/** Target host time of one micro-loop sample. */
constexpr double kSampleSeconds = 0.02;

/** A loop whose run(n) advances its subject n steps and returns the
 *  (lane-)steps done. */
struct MicroLoop
{
    std::string name;
    std::function<double(uint64_t)> run;
    uint64_t steps = 0;
    std::vector<double> rates;
};

template <typename Buffer>
std::function<double(uint64_t)>
bufferLoop(std::shared_ptr<Buffer> buf)
{
    // Warm past the architecture's transient (bank bring-up, ladder
    // climb) so the samples see the steady state the sweeps run in.
    for (int i = 0; i < 20000; ++i)
        buf->step(units::Seconds(1e-3), units::Watts(3e-3),
                  units::Amps(1e-3));
    // Reading the rail voltage afterwards keeps the loop observable.
    return [buf](uint64_t steps) {
        for (uint64_t i = 0; i < steps; ++i)
            buf->step(units::Seconds(1e-3), units::Watts(3e-3),
                      units::Amps(1e-3));
        return buf->railVoltage().raw() > -1.0 ? static_cast<double>(steps)
                                               : 0.0;
    };
}

/** Eight lanes of the static_10mF physics (10 mF, 3 mW, 1 mA, 1 ms). */
std::function<double(uint64_t)>
batchLoop(sim::simd::Kernel kernel)
{
    const sim::CapacitorSpec spec =
        harness::staticBufferSpec(units::Farads(10e-3));
    const sim::Capacitor reference(spec, units::Volts(2.0));
    auto stepper = std::make_shared<sim::BatchStepper>(kernel, 1e-3);
    for (int lane = 0; lane < sim::BatchStepper::kMaxLanes; ++lane) {
        sim::BatchLaneInit init;
        init.voltage = 2.0 + 0.05 * lane;
        init.capacitance = spec.capacitance.raw();
        init.clamp = 3.6;
        init.leakDecay = reference.leakDecayFor(units::Seconds(1e-3));
        stepper->addLane(init);
        stepper->setHarvestPower(lane, 3e-3);
        stepper->setLoadCurrent(lane, 1e-3);
    }
    for (int i = 0; i < 20000; ++i)
        stepper->step();
    return [stepper](uint64_t steps) {
        for (uint64_t i = 0; i < steps; ++i)
            stepper->step();
        return stepper->voltage(0) > -1.0
            ? static_cast<double>(steps * sim::BatchStepper::kMaxLanes)
            : 0.0;
    };
}

} // namespace

void
measureMicroLoops(MetricMap &layers)
{
    std::vector<MicroLoop> loops;
    const auto add = [&loops](std::string name,
                              std::function<double(uint64_t)> run) {
        MicroLoop loop;
        loop.name = std::move(name);
        loop.run = std::move(run);
        loops.push_back(std::move(loop));
    };
    add("buffers.static.steps_per_s",
        bufferLoop(std::make_shared<buffer::StaticBuffer>(
            harness::staticBufferSpec(units::Farads(10e-3)))));
    {
        auto react_buf = std::make_shared<core::ReactBuffer>();
        react_buf->notifyBackendPower(true);
        add("core.react.steps_per_s", bufferLoop(react_buf));
    }
    add("buffers.morphy.steps_per_s",
        bufferLoop(std::make_shared<buffer::MorphyBuffer>()));
    const std::pair<const char *, sim::simd::Kernel> kernels[] = {
        {"scalar", sim::simd::Kernel::Scalar},
        {"avx2", sim::simd::Kernel::Avx2},
        {"avx512", sim::simd::Kernel::Avx512},
    };
    for (const auto &[name, kernel] : kernels) {
        const bool runs = kernel == sim::simd::Kernel::Scalar ||
            (kernel == sim::simd::Kernel::Avx2 &&
             sim::simd::avx2Available()) ||
            (kernel == sim::simd::Kernel::Avx512 &&
             sim::simd::avx512Available());
        const std::string metric =
            std::string("sim.batch.") + name + ".lane_steps_per_s";
        if (runs) {
            add(metric, batchLoop(kernel));
        } else {
            layers[metric] = {0.0, "1/s"};
            layers[metric + ".mad"] = {0.0, "1/s"};
        }
    }

    // Size each loop's sample to ~kSampleSeconds.
    for (auto &loop : loops) {
        const uint64_t probe = 2000;
        const double t0 = now();
        loop.run(probe);
        const double dt = std::max(now() - t0, 1e-7);
        loop.steps = std::max<uint64_t>(
            probe, static_cast<uint64_t>(probe * kSampleSeconds / dt));
    }
    for (int round = 0; round < kMicroRounds; ++round) {
        for (auto &loop : loops) {
            const double t0 = now();
            const double done = loop.run(loop.steps);
            loop.rates.push_back(done / (now() - t0));
        }
    }
    for (const auto &loop : loops) {
        layers[loop.name] = {median(loop.rates), "1/s"};
        layers[loop.name + ".mad"] = {mad(loop.rates), "1/s"};
    }
}

void
measureCodec(const std::vector<harness::ExperimentResult> &rs,
             MetricMap &layers)
{
    if (rs.empty())
        return;
    constexpr int kSamples = 7;
    std::vector<std::vector<uint8_t>> encoded;
    for (const auto &r : rs) {
        net::WireWriter w;
        net::encodeResult(w, r);
        encoded.push_back(w.take());
    }
    size_t sink = 0;
    std::vector<double> enc_us, dec_us;
    const double n = static_cast<double>(rs.size());
    for (int s = 0; s < kSamples; ++s) {
        double t0 = now();
        for (size_t i = 0; i < rs.size(); ++i) {
            net::WireWriter w;
            net::encodeResult(w, rs[i]);
            sink += net::makeJobResult(i, w.take()).size();
        }
        enc_us.push_back((now() - t0) * 1e6 / n);
        t0 = now();
        for (const auto &bytes : encoded) {
            net::WireReader r(bytes);
            sink += net::decodeResult(r).steps;
        }
        dec_us.push_back((now() - t0) * 1e6 / n);
    }
    if (sink == 0)
        std::fprintf(stderr, "perfbench: empty codec output\n");
    layers["net.encode_us"] = {median(enc_us), "us"};
    layers["net.decode_us"] = {median(dec_us), "us"};
}

void
measureSnapshotOverhead(const Options &opt, Outcome &out)
{
    using harness::BenchmarkKind;
    using harness::BufferKind;
    using trace::PaperTrace;
    struct ProbeCell
    {
        BufferKind buffer;
        BenchmarkKind bench;
        PaperTrace trace;
    };
    const ProbeCell cells[] = {
        {BufferKind::React, BenchmarkKind::DataEncryption,
         PaperTrace::RfCart},
        {BufferKind::Morphy, BenchmarkKind::SenseCompute,
         PaperTrace::RfMobile},
        {BufferKind::Static10mF, BenchmarkKind::RadioTransmit,
         PaperTrace::RfObstruction},
        {BufferKind::React, BenchmarkKind::PacketForward,
         PaperTrace::RfCart},
    };
    constexpr int kReps = 3;
    const std::string path = opt.scratchDir + "/snapshot-probe-" +
        std::to_string(::getpid()) + ".snap";
    std::vector<double> deltas_ms;
    for (int rep = 0; rep < kReps; ++rep) {
        for (const auto &c : cells) {
            double t0 = now();
            const auto plain = harness::runGridCell(
                c.buffer, c.bench, c.trace, harness::ExperimentConfig(),
                opt.seed);
            const double plain_s = now() - t0;

            // The served-cell configuration (net/server.cc): periodic
            // checkpoints plus a finished snapshot, resume enabled.
            harness::ExperimentConfig config;
            config.checkpointPath = path;
            config.checkpointEverySteps = harness::kDefaultCheckpointInterval;
            config.resume = true;
            for (const char *suffix : {"", ".prev", ".tmp"})
                std::filesystem::remove(path + suffix);
            t0 = now();
            const auto snap = harness::runGridCell(c.buffer, c.bench,
                                                   c.trace, config,
                                                   opt.seed);
            deltas_ms.push_back((now() - t0 - plain_s) * 1e3);
            if (snap.stateDigest != plain.stateDigest ||
                snap.steps != plain.steps) {
                out.fail("checkpointed run of " +
                         harness::gridCellKey(c.bench, c.trace, c.buffer) +
                         " differs from the plain run");
            }
        }
    }
    for (const char *suffix : {"", ".prev", ".tmp"})
        std::filesystem::remove(path + suffix);
    out.layers["snapshot.overhead_ms_per_cell"] = {median(deltas_ms), "ms"};
}

} // namespace perfbench
