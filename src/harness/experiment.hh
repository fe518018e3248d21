/**
 * @file
 * End-to-end experiment runner: harvesting frontend -> buffer -> power
 * gate -> MCU -> benchmark, the full loop of the paper's testbed (S 4).
 *
 * Following the paper's protocol (S 5), each run replays one power trace
 * into one buffer while the backend executes one benchmark, then lets the
 * system run on stored energy until the buffer drains.  The runner
 * reports the paper's metrics: system latency (first enable, Table 4),
 * work counts (Tables 2 and 5), on-time, power cycles, and the full
 * energy ledger behind Fig. 7.
 */

#ifndef REACT_HARNESS_EXPERIMENT_HH
#define REACT_HARNESS_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "buffers/energy_buffer.hh"
#include "harvest/frontend.hh"
#include "mcu/device.hh"
#include "sim/energy_ledger.hh"
#include "sim/fault_injector.hh"
#include "sim/power_gate.hh"
#include "workload/benchmark.hh"

namespace react {
namespace harness {

/** Runner options. */
struct ExperimentConfig
{
    /** Integration timestep, seconds. */
    double dt = 1e-3;
    /** Maximum extra run time after the trace ends (run-until-drain
     *  allowance). */
    double drainAllowance = 900.0;
    /** After the trace ends, stop once the backend has been continuously
     *  off for this long (no input power remains to restart it). */
    double settleTime = 20.0;
    /** Power-gate enable threshold, volts. */
    double enableVoltage = 3.3;
    /** Power-gate brown-out threshold, volts. */
    double brownoutVoltage = 1.8;
    /** Record the rail voltage (for the figure benches). */
    bool recordRail = false;
    /** Sampling interval of the rail recording, seconds. */
    double recordInterval = 0.5;
    /** Stop as soon as the backend first enables (latency-only runs,
     *  Table 4: charge time is software-invariant). */
    bool stopAfterLatency = false;

    /**
     * Hardware fault schedule.  The default all-zero plan leaves the run
     * bit-identical to a build without fault injection (no injector is
     * even constructed).  When any rate is non-zero, one seeded injector
     * is attached to the buffer and the power gate for the whole run.
     */
    sim::FaultPlan faultPlan;
    /** Master seed for the fault injector's component streams. */
    uint64_t faultSeed = 0x5eedull;
    /**
     * Escalate an energy-conservation violation (|error| beyond 1e-9 J
     * per joule harvested) from a warning to a panic.  Tests enable
     * this; interactive benches keep the warning so a sweep finishes.
     */
    bool strictConservation = false;

    /**
     * @name Checkpoint / restore (crash resilience for long runs)
     *
     * With a non-empty checkpointPath the runner periodically writes a
     * versioned, CRC-guarded snapshot of the complete simulation state
     * (atomically: see snapshot::saveSnapshotFile), and a "finished"
     * snapshot carrying the final result once the run completes.  With
     * resume set, the runner first tries to load that file: a finished
     * snapshot returns the stored result immediately, a mid-run one
     * resumes the loop bit-identically, and a damaged one falls back to
     * the previous snapshot or a cold start -- never undefined behaviour.
     * @{
     */
    /** Snapshot file path; empty disables checkpointing entirely. */
    std::string checkpointPath;
    /** Steps between periodic checkpoints (0 = only the finished one). */
    uint64_t checkpointEverySteps = 0;
    /** Try to resume from checkpointPath before cold-starting. */
    bool resume = false;
    /**
     * Simulated crash for the crash-consistency fuzzer: stop abruptly
     * after this many steps (0 = never) *without* writing a checkpoint
     * at the kill step, exactly as a power failure would.
     */
    uint64_t haltAfterSteps = 0;
    /** @} */
};

/** One recorded rail sample. */
struct RailSample
{
    double time = 0.0;
    double voltage = 0.0;
    bool backendOn = false;
    int level = 0;
};

/** Outcome of one run. */
struct ExperimentResult
{
    std::string bufferName;
    std::string benchmarkName;
    std::string traceName;

    /** Time of first backend enable, seconds; < 0 when it never starts
     *  (the paper's "-" entries in Table 4). */
    double latency = -1.0;
    /** Total time the backend was powered, seconds. */
    double onTime = 0.0;
    /** Total simulated time, seconds. */
    double totalTime = 0.0;
    /** Fixed-timestep engine iterations executed (totalTime / dt). */
    uint64_t steps = 0;
    /** Number of power cycles (off -> on transitions). */
    uint64_t powerCycles = 0;
    /** Mean uninterrupted on-period, seconds. */
    double meanOnPeriod() const;
    /** Fraction of total time the backend was powered. */
    double dutyCycle() const;

    /** Benchmark counters. */
    uint64_t workUnits = 0;
    uint64_t packetsRx = 0;
    uint64_t packetsTx = 0;
    uint64_t failedOps = 0;
    uint64_t missedEvents = 0;

    /** Buffer energy audit. */
    sim::EnergyLedger ledger;
    /** Energy still stored when the run ended, joules. */
    double residualEnergy = 0.0;
    /** Ledger conservation error for the whole run, joules (signed). */
    double conservationError = 0.0;

    /** @name Fault-injection outcome (zero without a fault plan). @{ */
    /** Injected hardware faults over the run. */
    uint64_t faultEvents = 0;
    /** Recovery actions the hardened management software took. */
    uint64_t recoveryEvents = 0;
    /** Banks the REACT watchdog retired. */
    int banksRetired = 0;
    /** Corrupt FRAM config records replaced with the safe default. */
    int framRecoveries = 0;
    /** Chronological fault/recovery log (capped inside the injector). */
    std::vector<sim::FaultEvent> faultLog;
    /** @} */

    /**
     * Work lost to hardware faults versus a reference run of the same
     * setup without them (clamped at zero: noise can make a faulted run
     * marginally luckier).
     */
    uint64_t workLostVersus(const ExperimentResult &fault_free) const;

    /** Rail recording (when enabled). */
    std::vector<RailSample> rail;

    /** @name Checkpoint / restore outcome. @{ */
    /** The run stopped at haltAfterSteps (result is partial). */
    bool halted = false;
    /** The run resumed from (or returned directly out of) a snapshot. */
    bool resumed = false;
    /** The primary snapshot was damaged and `.prev` (or a cold start)
     *  was used instead. */
    bool snapshotFallback = false;
    /** Human-readable account of the snapshot load (empty when no
     *  resume was attempted). */
    std::string snapshotDiagnostic;
    /**
     * CRC-32 over the serialized final state of every component (gate,
     * device, buffer, benchmark including event-queue delivery ids, and
     * fault injector).  Two runs are bit-identical iff their digests --
     * and the explicit counters above -- match; the crash fuzzer uses
     * this to prove checkpoint/restore transparency.
     */
    uint32_t stateDigest = 0;
    /** @} */
};

/**
 * One run of the S 5 protocol: the per-run state both stepping engines
 * (runExperiment and the lane engine, batch_runner.hh) need, and the
 * protocol's four steps, defined once.  A run owns the backend device,
 * the power gate, the optional fault injector, the benchmark context
 * and the stored-energy baseline; the buffer, benchmark, frontend,
 * config and result belong to the caller and must outlive the run.
 *
 * Each engine keeps its own clock, settle counting and physics, and
 * calls the steps in the classic loop order: per step, gate.update on
 * the rail left by the previous step and gateEdge when it flips; the
 * buffer step; then tick while the gate is on; then finished().
 */
struct ExperimentRun
{
    ExperimentRun(buffer::EnergyBuffer &buffer,
                  workload::Benchmark *benchmark,
                  const harvest::HarvesterFrontend &frontend,
                  const ExperimentConfig &config, ExperimentResult &result);
    /** Detaches the fault injector from the caller's buffer. */
    ~ExperimentRun();

    /**
     * Start (or restart) cold: reset the buffer, benchmark, device and
     * gate, build and attach a fresh injector when the fault plan is
     * enabled, record storedStart, and reset the result to a fresh one
     * carrying the buffer, benchmark and trace names.  A rejected
     * checkpoint calls it again to make its cold start a true one.
     */
    void begin();

    /**
     * Apply the transition gate.update just reported, at time @p t:
     * latch the latency on the first enable, switch the device, tell
     * the buffer's controller, and fire the benchmark's power hook.
     */
    void gateEdge(double t);

    /** One powered step at time @p t: the benchmark tick, or plain
     *  active mode without a benchmark. */
    void tick(double t);

    /**
     * The exit test, after step @p t: a latency-only run ends at the
     * first enable; otherwise the run ends past the trace once the
     * backend has stayed off settleTime (@p settled, counted by the
     * engine) or the drain allowance runs out.
     */
    bool
    finished(double t, bool settled) const
    {
        if (config.stopAfterLatency && result.latency >= 0.0)
            return true;
        return t >= traceEnd && (settled || t >= hardEnd);
    }

    buffer::EnergyBuffer &buffer;
    workload::Benchmark *const benchmark;
    const harvest::HarvesterFrontend &frontend;
    const ExperimentConfig &config;
    ExperimentResult &result;
    mcu::Device device;
    sim::PowerGate gate;
    /** Null unless config.faultPlan is enabled (the fault-free run is
     *  then bit-identical to a build without fault injection). */
    std::unique_ptr<sim::FaultInjector> injector;
    workload::BenchContext ctx;
    /** Stored energy at the start, the conservation audit's baseline. */
    double storedStart = 0.0;
    /** Trace end: the drain exits arm past this time. */
    const double traceEnd;
    /** Trace end plus the drain allowance: the hard exit. */
    const double hardEnd;
};

/**
 * The finalization tail every stepping engine shares: copy the device
 * and benchmark counters and the buffer's ledger and residual energy
 * into the run's result, audit energy conservation against
 * run.storedStart (panicking under config.strictConservation),
 * summarize the fault injector when there is one, and fingerprint the
 * final component state into result.stateDigest.  runExperiment calls
 * it after its loop; the lane engine calls it once it has written a
 * lane's state back into the buffer object.  Leaves totalTime, steps
 * and onTime to the engine.
 */
void finalizeExperiment(ExperimentRun &run);

/**
 * Run one experiment.  The buffer and benchmark are reset first.
 *
 * @param buffer Energy buffer under test.
 * @param benchmark Workload; may be null, in which case the backend sits
 *        in active mode whenever powered (the Fig. 1 motivation setup).
 * @param frontend Power replay source.
 * @param config Runner options.
 */
ExperimentResult runExperiment(buffer::EnergyBuffer &buffer,
                               workload::Benchmark *benchmark,
                               const harvest::HarvesterFrontend &frontend,
                               const ExperimentConfig &config =
                                   ExperimentConfig());

} // namespace harness
} // namespace react

#endif // REACT_HARNESS_EXPERIMENT_HH
