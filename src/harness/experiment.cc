#include "experiment.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "harness/paper_setup.hh"
#include "snapshot/snapshot.hh"
#include "util/byte_codec.hh"
#include "util/crc32.hh"
#include "util/logging.hh"

namespace react {
namespace harness {

double
ExperimentResult::meanOnPeriod() const
{
    return powerCycles > 0 ? onTime / static_cast<double>(powerCycles)
                           : 0.0;
}

double
ExperimentResult::dutyCycle() const
{
    return totalTime > 0.0 ? onTime / totalTime : 0.0;
}

uint64_t
ExperimentResult::workLostVersus(const ExperimentResult &fault_free) const
{
    return fault_free.workUnits > workUnits
        ? fault_free.workUnits - workUnits
        : 0;
}

void
ExperimentResult::encodeMetrics(ByteWriter &w) const
{
    w.str(bufferName);
    w.str(benchmarkName);
    w.str(traceName);
    w.f64(latency);
    w.f64(onTime);
    w.f64(totalTime);
    w.u64(steps);
    w.u64(powerCycles);
    w.u64(workUnits);
    w.u64(packetsRx);
    w.u64(packetsTx);
    w.u64(failedOps);
    w.u64(missedEvents);
    ledger.save(w);
    w.f64(residualEnergy);
    w.f64(conservationError);
    w.u64(faultEvents);
    w.u64(recoveryEvents);
}

void
ExperimentResult::decodeMetrics(ByteReader &r)
{
    bufferName = r.str();
    benchmarkName = r.str();
    traceName = r.str();
    latency = r.f64();
    onTime = r.f64();
    totalTime = r.f64();
    steps = r.u64();
    powerCycles = r.u64();
    workUnits = r.u64();
    packetsRx = r.u64();
    packetsTx = r.u64();
    failedOps = r.u64();
    missedEvents = r.u64();
    ledger.restore(r);
    residualEnergy = r.f64();
    conservationError = r.f64();
    faultEvents = r.u64();
    recoveryEvents = r.u64();
}

namespace {

/** Serialize a rail recording (in a finished result and in a mid-run
 *  checkpoint's experiment section). */
void
saveRail(snapshot::SnapshotWriter &w, const std::vector<RailSample> &rail)
{
    w.u32(static_cast<uint32_t>(rail.size()));
    for (const auto &s : rail) {
        w.f64(s.time);
        w.f64(s.voltage);
        w.b(s.backendOn);
        w.u32(static_cast<uint32_t>(s.level));
    }
}

void
restoreRail(snapshot::SnapshotReader &r, std::vector<RailSample> *rail)
{
    rail->clear();
    const uint32_t samples = r.u32();  // untrusted: no reserve
    for (uint32_t i = 0; i < samples; ++i) {
        RailSample s;
        s.time = r.f64();
        s.voltage = r.f64();
        s.backendOn = r.b();
        s.level = static_cast<int>(r.u32());
        rail->push_back(s);
    }
}

/** Serialize a complete result (the payload of a "finished" snapshot:
 *  resuming a completed cell returns this instead of re-running). */
void
saveResult(snapshot::SnapshotWriter &w, const ExperimentResult &res)
{
    res.encodeMetrics(w);
    w.u32(static_cast<uint32_t>(res.banksRetired));
    w.u32(static_cast<uint32_t>(res.framRecoveries));
    w.u32(static_cast<uint32_t>(res.faultLog.size()));
    for (const auto &ev : res.faultLog) {
        w.f64(ev.time.raw());
        w.u8(static_cast<uint8_t>(ev.kind));
        w.str(ev.component);
        w.f64(ev.magnitude);
    }
    saveRail(w, res.rail);
    w.b(res.halted);
    w.u32(res.stateDigest);
}

void
restoreResult(snapshot::SnapshotReader &r, ExperimentResult *res)
{
    res->decodeMetrics(r);
    res->banksRetired = static_cast<int>(r.u32());
    res->framRecoveries = static_cast<int>(r.u32());
    // No reserve() from a stored count: under a stale layout it is a
    // misread field, and the bounds-checked reads below are what reject
    // it.
    res->faultLog.clear();
    const uint32_t events = r.u32();
    for (uint32_t i = 0; i < events; ++i) {
        sim::FaultEvent ev;
        ev.time = units::Seconds(r.f64());
        ev.kind = static_cast<sim::FaultEventKind>(r.u8());
        ev.component = r.str();
        ev.magnitude = r.f64();
        res->faultLog.push_back(std::move(ev));
    }
    restoreRail(r, &res->rail);
    res->halted = r.b();
    res->stateDigest = r.u32();
}

} // namespace

ExperimentRun::ExperimentRun(buffer::EnergyBuffer &buffer_,
                             workload::Benchmark *benchmark_,
                             const harvest::HarvesterFrontend &frontend_,
                             const ExperimentConfig &config_,
                             ExperimentResult &result_)
    : buffer(buffer_), benchmark(benchmark_), frontend(frontend_),
      config(config_), result(result_), device(backendSpec()),
      gate(units::Volts(config_.enableVoltage),
           units::Volts(config_.brownoutVoltage)),
      traceEnd(frontend_.traceDuration().raw()),
      hardEnd(traceEnd + config_.drainAllowance)
{
    ctx.device = &device;
    ctx.buffer = &buffer;
    ctx.dt = config.dt;
}

ExperimentRun::~ExperimentRun()
{
    if (injector) {
        buffer.attachFaultInjector(nullptr);
        gate.attachFaultInjector(nullptr);
    }
}

void
ExperimentRun::begin()
{
    buffer.reset();
    if (benchmark)
        benchmark->reset();
    device.reset();
    gate.reset();
    injector.reset();
    if (config.faultPlan.enabled()) {
        injector = std::make_unique<sim::FaultInjector>(config.faultPlan);
        buffer.attachFaultInjector(injector.get());
        gate.attachFaultInjector(injector.get());
    }
    storedStart = buffer.storedEnergy().raw();

    result = ExperimentResult();
    result.bufferName = buffer.name();
    result.benchmarkName = benchmark ? benchmark->name() : "(none)";
    result.traceName = frontend.trace().name();
    ctx.workScale = 1.0 - buffer.softwareOverheadFraction();
}

void
ExperimentRun::gateEdge(double t)
{
    ctx.now = t;
    if (gate.isOn()) {
        if (result.latency < 0.0)
            result.latency = t;
        device.setState(mcu::PowerState::Active);
        buffer.notifyBackendPower(true);
        if (benchmark)
            benchmark->onPowerUp(ctx);
    } else {
        if (benchmark)
            benchmark->onPowerDown(ctx);
        device.setState(mcu::PowerState::Off);
        buffer.notifyBackendPower(false);
    }
}

void
ExperimentRun::tick(double t)
{
    if (benchmark) {
        ctx.now = t;
        benchmark->tick(ctx);
    } else {
        device.setState(mcu::PowerState::Active);
    }
}

void
finalizeExperiment(ExperimentRun &run)
{
    ExperimentResult &result = run.result;
    const buffer::EnergyBuffer &buffer = run.buffer;
    const workload::Benchmark *benchmark = run.benchmark;
    const sim::FaultInjector *injector = run.injector.get();
    result.powerCycles = run.device.powerCycles();
    if (benchmark) {
        result.workUnits = benchmark->workUnits();
        result.packetsRx = benchmark->packetsReceived();
        result.packetsTx = benchmark->packetsSent();
        result.failedOps = benchmark->failedOperations();
        result.missedEvents = benchmark->missedEvents();
    }
    result.ledger = buffer.ledger();
    result.residualEnergy = buffer.storedEnergy().raw();

    // Per-run conservation audit: everything harvested must be accounted
    // for by delivery, booked losses, or the change in stored energy.
    // (Also valid for a halted partial run: the ledger balances at every
    // step, not just at the end.)
    result.conservationError =
        result.ledger
            .conservationError(units::Joules(result.residualEnergy -
                                             run.storedStart))
            .raw();
    const double tolerance =
        1e-9 * std::max(1.0, result.ledger.harvested.raw());
    if (std::abs(result.conservationError) > tolerance) {
        if (run.config.strictConservation) {
            react_panic("energy ledger violated conservation: error %.3e J "
                        "(harvested %.3e J, tolerance %.3e J)",
                        result.conservationError,
                        result.ledger.harvested.raw(), tolerance);
        }
        react_warn("energy ledger conservation error %.3e J exceeds "
                   "tolerance %.3e J (%s / %s / %s)",
                   result.conservationError, tolerance,
                   result.bufferName.c_str(),
                   result.benchmarkName.c_str(),
                   result.traceName.c_str());
    }

    if (injector) {
        result.faultEvents = injector->faultCount();
        result.recoveryEvents = injector->recoveryCount();
        result.banksRetired = static_cast<int>(
            injector->eventCount(sim::FaultEventKind::BankRetired));
        result.framRecoveries = static_cast<int>(
            injector->eventCount(sim::FaultEventKind::FramRecovery));
        result.faultLog = injector->events();
    }

    // Fingerprint the complete final state.  Two runs finished from
    // different checkpoints (or none) are bit-identical iff this digest
    // and the explicit counters match; the event queue cursors inside
    // the benchmark make delivery ids part of the fingerprint.
    snapshot::SnapshotWriter dw;
    dw.beginSection("digest");
    run.forEachComponent([&](const char *, auto &component) {
        component.save(dw);
    });
    dw.endSection();
    const std::vector<uint8_t> image = dw.finish();
    result.stateDigest = crc32(image.data(), image.size());
}

ExperimentResult
runExperiment(buffer::EnergyBuffer &buffer, workload::Benchmark *benchmark,
              const harvest::HarvesterFrontend &frontend,
              const ExperimentConfig &config)
{
    ExperimentResult result;
    ExperimentRun run(buffer, benchmark, frontend, config, result);
    run.begin();

    double t = 0.0;
    double off_streak = 0.0;
    double next_record = 0.0;

    // Snapshot layout.  The meta section pins the experiment identity so
    // a stale checkpoint from a different cell is rejected (and degrades
    // to a cold start) instead of silently resuming the wrong run.
    const auto write_checkpoint = [&](bool finished) {
        snapshot::SnapshotWriter w;
        w.beginSection("meta");
        w.str(result.bufferName);
        w.str(result.benchmarkName);
        w.str(result.traceName);
        w.f64(config.dt);
        // The injector's seed slot; every run uses the one seed.
        w.u64(sim::FaultInjector::kMasterSeed);
        w.b(run.injector != nullptr);
        w.b(finished);
        w.endSection();
        if (finished) {
            w.beginSection("result");
            saveResult(w, result);
            w.endSection();
        } else {
            w.beginSection("experiment");
            w.f64(t);
            w.f64(off_streak);
            w.f64(next_record);
            w.f64(run.storedStart);
            w.u64(result.steps);
            w.f64(result.latency);
            w.f64(result.onTime);
            saveRail(w, result.rail);
            w.endSection();
            run.forEachComponent([&](const char *name, auto &component) {
                w.beginSection(name);
                component.save(w);
                w.endSection();
            });
        }
        std::string err;
        if (!snapshot::saveSnapshotFile(config.checkpointPath, w.finish(),
                                        &err))
            react_warn("checkpoint write failed: %s", err.c_str());
    };

    if (!config.checkpointPath.empty() && config.resume) {
        snapshot::SnapshotLoad load =
            snapshot::loadSnapshotFile(config.checkpointPath);
        result.snapshotFallback = load.usedFallback;
        result.snapshotDiagnostic = load.diagnostic;
        if (load.ok) {
            try {
                snapshot::SnapshotReader r(std::move(load.image));
                r.beginSection("meta");
                const std::string buf_name = r.str();
                const std::string bench_name = r.str();
                const std::string trace_name = r.str();
                const double dt = r.f64();
                const uint64_t seed = r.u64();
                const bool had_injector = r.b();
                const bool finished = r.b();
                r.endSection();
                if (buf_name != result.bufferName ||
                    bench_name != result.benchmarkName ||
                    trace_name != result.traceName || dt != config.dt ||
                    seed != sim::FaultInjector::kMasterSeed ||
                    had_injector != (run.injector != nullptr))
                    throw snapshot::SnapshotError(
                        "checkpoint belongs to a different experiment (" +
                        buf_name + " / " + bench_name + " / " +
                        trace_name + ")");
                if (finished) {
                    // Restore into a copy: a layout mismatch must not
                    // leave half-restored fields behind for the cold
                    // start.
                    ExperimentResult stored = result;
                    r.beginSection("result");
                    restoreResult(r, &stored);
                    r.endSection();
                    result = std::move(stored);
                    result.resumed = true;
                    return result;
                }
                r.beginSection("experiment");
                t = r.f64();
                off_streak = r.f64();
                next_record = r.f64();
                run.storedStart = r.f64();
                result.steps = r.u64();
                result.latency = r.f64();
                result.onTime = r.f64();
                restoreRail(r, &result.rail);
                r.endSection();
                run.forEachComponent(
                    [&](const char *name, auto &component) {
                        r.beginSection(name);
                        component.restore(r);
                        r.endSection();
                    });
                result.resumed = true;
            } catch (const snapshot::SnapshotError &e) {
                // A structurally mismatched snapshot may have touched
                // some components before the throw: begin again so the
                // cold start is a true cold start.
                react_warn("checkpoint rejected (%s); cold-starting",
                           e.what());
                run.begin();
                t = 0.0;
                off_streak = 0.0;
                next_record = 0.0;
                result.snapshotFallback = load.usedFallback;
                result.snapshotDiagnostic =
                    load.diagnostic + "; rejected: " + e.what();
            }
        }
    }

    while (true) {
        t += config.dt;
        ++result.steps;

        // Power gate observes the rail left by the previous step.
        if (run.gate.update(buffer.railVoltage()))
            run.gateEdge(t);

        units::Watts input_power = frontend.power(units::Seconds(t));
        if (run.injector) {
            run.injector->advance(units::Seconds(config.dt));
            input_power = run.injector->filterHarvest(input_power);
        }
        buffer.step(units::Seconds(config.dt), input_power,
                    units::Amps(run.device.current()));

        if (run.gate.isOn()) {
            result.onTime += config.dt;
            off_streak = 0.0;
            run.tick(t);
        } else {
            off_streak += config.dt;
        }

        if (config.recordRail && t >= next_record) {
            next_record += config.recordInterval;
            result.rail.push_back({t, buffer.railVoltage().raw(),
                                   run.gate.isOn(),
                                   buffer.capacitanceLevel()});
        }

        if (run.finished(t, off_streak >= config.settleTime))
            break;

        // The simulated crash stops before the checkpoint below: a real
        // power failure does not get to flush its final state either.
        if (config.haltAfterSteps > 0 &&
            result.steps >= config.haltAfterSteps) {
            result.halted = true;
            break;
        }

        if (!config.checkpointPath.empty() &&
            config.checkpointEverySteps > 0 &&
            result.steps % config.checkpointEverySteps == 0)
            write_checkpoint(false);
    }

    result.totalTime = t;
    finalizeExperiment(run);

    // A completed cell leaves a "finished" snapshot behind so resuming
    // it again is instant; a simulated crash leaves whatever periodic
    // checkpoint was last flushed, exactly like a real power failure.
    if (!config.checkpointPath.empty() && !result.halted)
        write_checkpoint(true);
    return result;
}

} // namespace harness
} // namespace react
