#include "batch_runner.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "harness/paper_setup.hh"
#include "util/determinism.hh"
#include "util/logging.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace react {
namespace harness {

namespace {

constexpr int kLanes = sim::BatchStepper::kMaxLanes;

/**
 * Phase-clock read for BatchPhaseStats: the TSC where available, so an
 * instrumented run pays a few ns per phase boundary instead of the
 * ~25 ns a steady_clock read costs (four reads per step at 25 ns each
 * used to flatten the reported split toward uniform).  Ticks are
 * converted to nanoseconds once per run against a steady_clock pair
 * bracketing the whole loop (see Engine::run).
 */
inline uint64_t
phaseTicks()
{
#if defined(__x86_64__) || defined(__i386__)
    REACT_NONDET_OK("rdtsc feeds phase-timing telemetry only, never lane results");
    return __rdtsc();
#else
    REACT_NONDET_OK("steady_clock feeds phase-timing telemetry only, never lane results");
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<uint64_t>(t.count());
#endif
}

/** Wall-clock read anchoring the tick calibration (instrumented runs
 *  only). */
inline uint64_t
wallNowNs()
{
    REACT_NONDET_OK("steady_clock calibrates phase-tick telemetry only, never lane results");
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

/** Per-lane control-plane state, one copy per cell -- the *cold*
 *  part: the cell's ExperimentRun plus the event state the hot loop
 *  only touches when something happens (a tick, a gate flip, a span
 *  roll).  Per-step scalars live in Engine::Hot instead. */
struct Lane
{
    Lane(const BatchCell &cell, const ExperimentConfig &config)
        : buffer(cell.buffer),
          run(*cell.buffer, cell.benchmark, *cell.frontend, config,
              *cell.result)
    {
    }

    /** The cell's buffer, typed for the lane-state accessors. */
    buffer::StaticBuffer *buffer;
    ExperimentRun run;
    /** Precompiled per-step at-buffer power (admission-time; the hot
     *  loop sweeps it linearly, no per-step trace/converter work). */
    std::vector<trace::StepSpan> spans;
    size_t spanIdx = 0;
};

/** The lane voltage is the compute truth while a cell is batched; sync
 *  it into the buffer object before anything can observe the buffer
 *  (benchmark hooks, gate-edge hooks, finalization). */
inline void
syncLaneVoltage(Lane &lane, const sim::BatchStepper &stepper, int slot)
{
    lane.buffer->laneCapacitor().setVoltage(
        units::Volts(stepper.voltage(slot)));
}

/**
 * The streaming lane scheduler.  Cells are admitted in array order
 * into kLanes lockstep slots; a finished cell's slot immediately
 * refills with the next queued cell, so all lanes stay busy until the
 * queue drains.
 *
 * Admission takes only fault-free, unrecorded static cells
 * (batchAdmissible), so a lane's whole control plane is the gate
 * latch, the benchmark tick, the span roll, and the exit test.
 *
 * The control plane is *event-driven*: a gate-off lane has nothing to
 * do until its next control event, and those events are all
 * predictable or detectable in O(1) per step without touching the
 * lane --
 *
 *  - gate threshold crossings come out of the lane bank's vector
 *    compare (transitionMask) whether the lane is serviced or not;
 *  - the span roll, the settle-exit step, and the trace-end/hard-end
 *    crossings are precomputed as one integer step target
 *    (hot.wakeStep) plus one float time arm (hot.armT) per lane;
 *  - the off-streak itself needs no accumulator: dt is shared, so
 *    "offStreak >= settleTime" is equivalent to "consecutive off
 *    steps >= settleSteps" with settleSteps replaying runExperiment's
 *    exact dt-accumulation once per run (monotone, so the integer
 *    threshold crosses on exactly the same step).
 *
 * Sleeping lanes therefore cost two SoA compares per step in the wake
 * scan (and one shared clock advance); only awake lanes run the
 * workload / exit / control-head sequence.  Waking a lane early is
 * always harmless -- a serviced lane with nothing due performs no
 * state change and re-arms -- so the wake targets only need to be
 * conservative lower bounds, never exact.
 *
 * Gate-on lanes never sleep (the benchmark ticks every on-step, and
 * on-time accounting replays runExperiment's per-step accumulation).
 *
 * Physics always advances every lane (sleep elides control work
 * only); when at most two cells remain live the full-width vector
 * step gives way to per-lane scalar stepping, which is bit-identical
 * because a frozen lane's step is a bitwise no-op
 * (BatchStepper::stepLane).
 */
class Engine
{
  public:
    Engine(const BatchCell *cells_, int count_,
           const ExperimentConfig &config_, sim::simd::Kernel kernel)
        : cells(cells_), count(count_), config(config_),
          stepper(kernel, config_.dt)
    {
        // runExperiment accumulates the settle off-streak as repeated
        // "+= dt" from 0.0 and compares >= settleTime.  The partial
        // sums are strictly increasing until floating-point plateau,
        // so the compare first holds on a fixed step count -- replay
        // the accumulation once to find it.  A plateau below the
        // threshold means the scalar loop can never satisfy the
        // compare (the lane then exits at the hard end, same as classic).
        double acc = 0.0;
        while (acc < config.settleTime) {
            const double next = acc + config.dt;
            if (next == acc) {
                settleSteps = UINT64_MAX;
                break;
            }
            acc = next;
            ++settleSteps;
        }
        // Unoccupied slots must never pull the global next-wake point
        // down (their clocks advance as garbage).
        for (int s = 0; s < kLanes; ++s)
            hot.wakeStep[s] = UINT64_MAX;
    }

    void run(BatchPhaseStats *stats);

  private:
    /** Per-step-hot per-lane scalars, one cache line per field. */
    struct Hot
    {
        /** Simulation time of the lane's current step. */
        alignas(64) double t[kLanes] = {};
        /** Float exit arm: the run's traceEnd until crossed, then its
         *  hardEnd -- the time at which the corresponding exit-disjunct
         *  can first hold.  svcPre folds the remaining distance into
         *  wakeStep as a conservative integer bound. */
        alignas(64) double armT[kLanes] = {};
        /** Gate-on time accumulator (copied to result->onTime at
         *  retirement; same add sequence, different home). */
        alignas(64) double onTime[kLanes] = {};
        /** Lane step counter (mirrors runExperiment's). */
        alignas(64) uint64_t steps[kLanes] = {};
        /** Integer wake target: the scan fires when steps reaches it
         *  (min of span-roll-minus-one, the pending settle-exit step,
         *  and the conservative armT-crossing bound). */
        alignas(64) uint64_t wakeStep[kLanes] = {};
        /** The step whose control head rolls to the next power span
         *  (UINT64_MAX on a trace's open tail). */
        alignas(64) uint64_t rollStep[kLanes] = {};
        /** Step counter value of the lane's most recent gate-on step
         *  (0 until first power-up): steps - lastOnStep is the
         *  consecutive-off count the settle exit compares. */
        alignas(64) uint64_t lastOnStep[kLanes] = {};
    };

    void admit(int slot);
    void retire(Lane &lane, int slot);
    void refill();
    /** One powered step of lane @p s: on-time accounting, then
     *  ExperimentRun::tick (on the synced lane rail when the tick
     *  observes the buffer). */
    void tickLane(int s);
    /** Post-physics workload work for one awake lane: tickLane when
     *  its gate is on.  (Off lanes accumulate nothing -- their
     *  off-streak is implicit in steps - lastOnStep.) */
    void svcWorkload(int s);
    /** ExperimentRun::finished with the lane's integer settle count.
     *  Returns true when the lane's experiment is over. */
    bool svcBookkeeping(int s);
    /** Advance lane @p s to its next precompiled power span. */
    void rollSpan(int s);
    /** The control head of one lane, for the step at hot.t[s]: latch
     *  the gate (one precomputed compare pair per lane via @p flips)
     *  and hand a transition to ExperimentRun::gateEdge, roll the power
     *  span when due -- then re-arm the lane's wake targets.  Load re-queries
     *  are deferred to flushLoads (lanes are independent, so querying
     *  a lane's settled device after its batch mates' control work
     *  reads the same value). */
    void svcPre(int s, uint8_t flips);
    /** One physics step of every occupied lane, at the narrowest
     *  width that covers them: with at most two cells live, per-lane
     *  scalar steps of just those lanes (bit-identical -- a frozen
     *  lane's step is a bitwise no-op -- and cheaper than running the
     *  divider over six no-op lanes); else the lower half when only
     *  it is occupied; else the full width. */
    void stepPhysics();
    /** Re-query the backend load of every lane marked dirty (gate
     *  transitions and benchmark ticks -- the only places device state
     *  or peripheral loads can change). */
    void flushLoads();

    const BatchCell *cells;
    const int count;
    const ExperimentConfig &config;
    sim::BatchStepper stepper;
    sim::GateLaneBank bank;
    std::array<std::optional<Lane>, kLanes> slots;
    Hot hot;
    /** Steps that make runExperiment's off-streak reach settleTime. */
    uint64_t settleSteps = 0;
    /** Slots holding a running lane. */
    uint8_t occupied = 0;
    /** Lanes with a benchmark attached. */
    uint8_t benchMask = 0;
    /** Benchmark lanes whose tick() observes the buffer
     *  (Benchmark::tickObservesBuffer): only these need the lane
     *  voltage synced into the buffer object before every tick. */
    uint8_t tickSyncMask = 0;
    /** Lanes whose load current must be re-queried before the next
     *  physics step. */
    uint8_t dirtyMask = 0;
    int nextCell = 0;
    int active = 0;
};

void
Engine::admit(int slot)
{
    const BatchCell &cell = cells[nextCell];
    react_assert(cell.buffer != nullptr && cell.frontend != nullptr &&
                     cell.result != nullptr,
                 "batch cell %d is missing a component", nextCell);
    react_assert(batchAdmissible(*cell.buffer, config),
                 "batch cell %d is not lane-engine admissible", nextCell);
    ++nextCell;
    slots[static_cast<size_t>(slot)].emplace(cell, config);
    Lane &lane = *slots[static_cast<size_t>(slot)];
    const uint8_t bit = static_cast<uint8_t>(1u << slot);
    lane.run.begin();

    // Transpose the cell's physics state into the lane arrays and
    // mirror its (freshly reset, off) gate into the lane bank.
    const sim::Capacitor &cap = lane.buffer->laneCapacitor();
    sim::BatchLaneInit init;
    init.voltage = cap.voltage().raw();
    init.capacitance = cap.capacitance().raw();
    init.clamp = lane.buffer->railClamp().raw();
    init.leakDecay = cap.leakDecayFor(units::Seconds(config.dt));
    const sim::EnergyLedger &ledger = lane.buffer->ledger();
    init.leaked = ledger.leaked.raw();
    init.harvested = ledger.harvested.raw();
    init.delivered = ledger.delivered.raw();
    init.clipped = ledger.clipped.raw();
    stepper.reinitLane(slot, init);

    bank.vEnable[slot] = config.enableVoltage;
    bank.vBrownout[slot] = config.brownoutVoltage;
    bank.onMask &= static_cast<uint8_t>(~bit);
    occupied |= bit;
    if (cell.benchmark)
        benchMask |= bit;
    else
        benchMask &= static_cast<uint8_t>(~bit);
    if (cell.benchmark && cell.benchmark->tickObservesBuffer())
        tickSyncMask |= bit;
    else
        tickSyncMask &= static_cast<uint8_t>(~bit);

    // Precompile the frontend into power spans (the per-step trace
    // index arithmetic and converter evaluation happen here, once per
    // distinct sample run, instead of once per step).
    cell.frontend->compileStepSpans(config.dt, lane.spans);
    lane.spanIdx = 0;
    hot.rollStep[slot] = lane.spans[0].steps == trace::StepSpan::kOpenEnded
        ? UINT64_MAX
        : 1 + lane.spans[0].steps;
    stepper.setHarvestPower(slot, lane.spans[0].watts);

    hot.t[slot] = config.dt;
    hot.onTime[slot] = 0.0;
    hot.armT[slot] = lane.run.traceEnd;
    hot.steps[slot] = 1;
    hot.lastOnStep[slot] = 0;

    // First-step control head (the classic loop head at t = dt) --
    // svcPre also computes the initial wake targets -- then the
    // initial load query.
    svcPre(slot, bank.transitionMask(stepper.voltages()));
    dirtyMask |= bit;
    flushLoads();
    ++active;
}

void
Engine::retire(Lane &lane, int slot)
{
    ExperimentResult &result = lane.run.result;
    result.totalTime = hot.t[slot];
    result.steps = hot.steps[slot];
    result.onTime = hot.onTime[slot];

    // Write the lane physics state back: voltage, then the four ledger
    // accumulators the kernel carried (the rest were never touched,
    // exactly as in fault-free per-cell stepping).  Then the finalization
    // tail runExperiment shares; no finished-checkpoint write, since
    // admission requires an empty checkpointPath, where runExperiment
    // skips it too.
    syncLaneVoltage(lane, stepper, slot);
    sim::EnergyLedger &ledger = lane.buffer->laneLedger();
    ledger.leaked = units::Joules(stepper.leaked(slot));
    ledger.harvested = units::Joules(stepper.harvested(slot));
    ledger.delivered = units::Joules(stepper.delivered(slot));
    ledger.clipped = units::Joules(stepper.clipped(slot));
    finalizeExperiment(lane.run);

    stepper.freezeLane(slot);
    hot.wakeStep[slot] = UINT64_MAX;
    const uint8_t bit = static_cast<uint8_t>(1u << slot);
    occupied &= static_cast<uint8_t>(~bit);
    dirtyMask &= static_cast<uint8_t>(~bit);
    slots[static_cast<size_t>(slot)].reset();
    --active;
}

void
Engine::refill()
{
    // A retired lane re-admits the next queued cell between physics
    // steps, so a fresh lane's first step is the next stepper.step(),
    // exactly like a cell starting alone.
    if (nextCell >= count || active >= kLanes)
        return;
    for (int s = 0; s < kLanes && nextCell < count; ++s) {
        if (!(occupied & (1u << s)))
            admit(s);
    }
}

inline void
Engine::tickLane(int s)
{
    hot.onTime[s] += config.dt;
    hot.lastOnStep[s] = hot.steps[s];
    Lane &lane = *slots[s];
    if ((tickSyncMask & (1u << s)) != 0)
        syncLaneVoltage(lane, stepper, s);
    lane.run.tick(hot.t[s]);
}

inline void
Engine::svcWorkload(int s)
{
    if (bank.isOn(s)) {
        tickLane(s);
        dirtyMask |= static_cast<uint8_t>((1u << s) & benchMask);
    }
}

inline bool
Engine::svcBookkeeping(int s)
{
    Lane &lane = *slots[s];
    // The gate has been off settleTime once settleSteps consecutive off
    // steps have passed.
    if (lane.run.finished(hot.t[s],
                          hot.steps[s] - hot.lastOnStep[s] >= settleSteps))
        return true;
    // Not exiting yet: past the trace end, the next time-armed wake is
    // the hard end.
    if (hot.t[s] >= lane.run.traceEnd)
        hot.armT[s] = lane.run.hardEnd;
    return false;
}

inline void
Engine::rollSpan(int s)
{
    Lane &lane = *slots[s];
    const trace::StepSpan &sp = lane.spans[++lane.spanIdx];
    hot.rollStep[s] = sp.steps == trace::StepSpan::kOpenEnded
        ? UINT64_MAX
        : hot.rollStep[s] + sp.steps;
    stepper.setHarvestPower(s, sp.watts);
}

inline void
Engine::svcPre(int s, uint8_t flips)
{
    const uint8_t bit = static_cast<uint8_t>(1u << s);
    if ((flips & bit) != 0) {
        const bool changed =
            slots[s]->run.gate.update(units::Volts(stepper.voltage(s)));
        react_assert(changed, "gate bank flagged a transition the "
                              "authoritative gate did not take");
        bank.toggle(bit);
        // Hooks may observe the buffer; give it the lane rail.
        syncLaneVoltage(*slots[s], stepper, s);
        slots[s]->run.gateEdge(hot.t[s]);
        dirtyMask |= bit;
    }

    // Frontend: the precompiled span sweep replaces the per-step
    // frontend->power call bit for bit (rollStep is the step whose
    // head crosses into the next span, exactly the step the old
    // countdown hit zero on).
    if (hot.steps[s] == hot.rollStep[s])
        rollSpan(s);

    // Re-arm the wake target.  A gate-on lane is in every step's wake
    // set regardless, so it carries no target (and pays none of the
    // arithmetic below; the off transition that makes it sleepable is
    // itself a serviced step that re-arms it).
    if (bank.isOn(s)) {
        hot.wakeStep[s] = UINT64_MAX;
        return;
    }
    // The wake scan fires on the step before the span roll (so this
    // head runs on the roll step itself), on the pending settle-exit
    // step, and before the armT (traceEnd or hardEnd) crossing.  A
    // settle target already reached is dropped -- the exit it guarded
    // now waits on the armT crossing -- which keeps a
    // settled-but-not-ended lane from waking every step.
    uint64_t w = hot.rollStep[s] - 1;
    if (settleSteps != UINT64_MAX) {
        const uint64_t settleAt = hot.lastOnStep[s] + settleSteps;
        if (settleAt > hot.steps[s])
            w = std::min(w, settleAt);
    }
    // The armT crossing step is not exactly predictable (t is a
    // rounded dt-accumulation), but a safe underestimate is: over m
    // steps t grows by at most m*dt plus the accumulated rounding,
    // which for any plausible run length (< 1e10 steps) is far below
    // one dt total, so waking 16 steps shy of the un-rounded distance
    // can never overshoot the true crossing.  Early wake-ups are
    // harmless: the lane re-arms with a fresh (shrinking) bound and
    // scans every step only inside the final 17-step window.
    const double gap = hot.armT[s] - hot.t[s];
    if (gap > 0.0) {
        const double g = gap / config.dt;
        const uint64_t armSafe = g >= 9e18 ? UINT64_MAX / 2
            : g > 17.0 ? static_cast<uint64_t>(g) - 16
                       : 0;
        w = std::min(w, hot.steps[s] + armSafe);
    } else {
        w = hot.steps[s];
    }
    hot.wakeStep[s] = w;
}

inline void
Engine::stepPhysics()
{
    if (__builtin_popcount(occupied) <= 2) {
        for (uint8_t m = occupied; m != 0; m &= static_cast<uint8_t>(m - 1))
            stepper.stepLane(__builtin_ctz(m));
    } else if ((occupied & 0xF0u) == 0) {
        // LPT admission keeps the longest cells in the low slots, so
        // ragged tails collapse into the lower half: a 4-wide step
        // halves the divider chain and skips the frozen upper lanes'
        // no-op steps.
        stepper.stepLower();
    } else {
        stepper.step();
    }
}

inline void
Engine::flushLoads()
{
    for (uint8_t m = dirtyMask; m != 0; m &= static_cast<uint8_t>(m - 1)) {
        const int s = __builtin_ctz(m);
        stepper.setLoadCurrent(s, slots[s]->run.device.current());
    }
    dirtyMask = 0;
}

void
Engine::run(BatchPhaseStats *stats)
{
    for (int s = 0; s < kLanes && nextCell < count; ++s)
        admit(s);

    const bool timed = stats != nullptr;
    uint64_t frontendTicks = 0, physicsTicks = 0, workloadTicks = 0,
             bookkeepingTicks = 0, timedSteps = 0;
    const uint64_t wallStart = timed ? wallNowNs() : 0;
    const uint64_t tickStart = timed ? phaseTicks() : 0;

    const double dt = config.dt;
    // Every lane's steps counter advances once per iteration, so the
    // distance to a lane's wake target is fixed between services and
    // the earliest due step over all lanes maps to one absolute
    // iteration number.  Between now and nextWakeIter (exclusive) no
    // integer target can fire, so iterations where nothing else is
    // awake skip the whole service machinery.
    uint64_t iter = 0;
    uint64_t nextWakeIter = 0;
    const auto rearmNextWake = [&]() {
        // Branchless over all slots: sleepless and vacant slots carry
        // UINT64_MAX targets, so their deltas never win the min.
        uint64_t d = UINT64_MAX;
        for (int s = 0; s < kLanes; ++s) {
            const uint64_t delta = hot.wakeStep[s] > hot.steps[s]
                ? hot.wakeStep[s] - hot.steps[s]
                : 0;
            d = std::min(d, delta);
        }
        nextWakeIter = d >= UINT64_MAX - iter ? UINT64_MAX : iter + d;
    };
    rearmNextWake();

    // The steady-state fast pass below services plain powered lanes
    // inline; it bows out whenever any per-step special machinery is in
    // play.  stopAfterLatency is per-step state the pass does not check,
    // and instrumented runs keep the general path so the phase split
    // stays attributable (results are identical either way; only the
    // uninstrumented control flow is specialized).
    const bool canFast = !timed && !config.stopAfterLatency;
    while (active > 0) {
        // Dark-idle burst: with every occupied lane gate-off and the
        // whole batch unpowered and unloaded, each rail can only decay
        // -- an off lane's on-threshold (rail >= vEnable) is therefore
        // unreachable before the next serviced step (had a rail been
        // at or above it, the previous iteration's transition scan
        // would have flipped the lane on), and no integer wake target
        // fires before nextWakeIter.  Every iteration until then is
        // provably service-free, so run them as a tight
        // physics-plus-clock loop with no transition scan and no wake
        // bookkeeping.
        if (canFast && (bank.onMask & occupied) == 0 && stepper.quiet() &&
            nextWakeIter != UINT64_MAX && iter < nextWakeIter) {
            const uint64_t n = nextWakeIter - iter;
            for (uint64_t k = 0; k < n; ++k) {
                stepPhysics();
                for (int s = 0; s < kLanes; ++s) {
                    hot.t[s] += dt;
                    ++hot.steps[s];
                }
            }
            iter += n;
            continue;
        }

        uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
        if (timed)
            c0 = phaseTicks();

        // Physics: every lane at once.
        stepPhysics();
        if (timed)
            c1 = phaseTicks();

        // Unoccupied slots compare garbage rails; mask them off.
        const uint8_t flips = static_cast<uint8_t>(
            bank.transitionMask(stepper.voltages()) & occupied);

        // Steady-state fast pass: with no gate flip and no integer wake
        // due, an awake lane's whole service is tickLane, the span-roll
        // check, and the load re-query -- the members svcWorkload and
        // svcPre would call, with every branch they would not take
        // pre-resolved.  Such a lane's wakeStep is already parked at
        // UINT64_MAX (it went on through a serviced flip step), so no
        // re-arm work exists either, and sleeping lanes' absolute due
        // point is untouched.  The pass bows out to the general path
        // once any lane drains past its trace end (the exit checks then
        // need the full bookkeeping sequence).
        if (canFast && flips == 0 && iter < nextWakeIter) {
            const uint8_t on = bank.onMask & occupied;
            bool plain = true;
            for (uint8_t m = on; m != 0; m &= static_cast<uint8_t>(m - 1)) {
                const int s = __builtin_ctz(m);
                plain &= hot.t[s] < slots[s]->run.traceEnd;
            }
            if (plain) {
                // One sweep per on lane: the tick at step k, then step
                // k+1's head inline (the only live piece is the span
                // roll -- compared against steps+1, the post-advance
                // counter), then the load re-query.  Lanes are
                // independent, so running lane A's head before lane
                // B's tick changes nothing, and the shared clock
                // advance below touches nothing a head reads.
                for (uint8_t m = on; m != 0;
                     m &= static_cast<uint8_t>(m - 1)) {
                    const int s = __builtin_ctz(m);
                    tickLane(s);
                    if (hot.steps[s] + 1 == hot.rollStep[s])
                        rollSpan(s);
                    // A tick is the only thing that can have moved the
                    // backend load here (no flip); lanes without a
                    // benchmark keep their settled current.
                    if ((benchMask & (1u << s)) != 0)
                        stepper.setLoadCurrent(
                            s, slots[s]->run.device.current());
                }
                for (int s = 0; s < kLanes; ++s) {
                    hot.t[s] += dt;
                    ++hot.steps[s];
                }
                ++iter;
                continue;
            }
        }

        // Wake set: gate flips from the bank's vector compare, on
        // lanes (per-step ticking), and -- only at the precomputed
        // global due point -- lanes whose integer wake target fired.
        // Unoccupied slots compute garbage compares and are masked off.
        uint8_t due = 0;
        if (iter >= nextWakeIter) {
            for (int s = 0; s < kLanes; ++s)
                due |= static_cast<uint8_t>(
                    static_cast<unsigned>(hot.steps[s] >= hot.wakeStep[s])
                    << s);
        }
        const uint8_t wake =
            static_cast<uint8_t>((flips | bank.onMask | due) & occupied);

        if (wake != 0) {
            for (uint8_t m = wake; m != 0; m &= static_cast<uint8_t>(m - 1))
                svcWorkload(__builtin_ctz(m));
            if (timed)
                c2 = phaseTicks();

            for (uint8_t m = wake; m != 0;
                 m &= static_cast<uint8_t>(m - 1)) {
                const int s = __builtin_ctz(m);
                if (svcBookkeeping(s))
                    retire(*slots[s], s);
            }
        }
        if (timed) {
            if (wake == 0)
                c2 = c1;
            c3 = phaseTicks();
        }

        // Advance every slot's clock unconditionally (branchless over
        // the fixed arrays; retired and empty slots advance garbage
        // that admission re-seeds).  Sleeping lanes pay exactly this.
        for (int s = 0; s < kLanes; ++s) {
            hot.t[s] += dt;
            ++hot.steps[s];
        }
        ++iter;
        if (wake != 0) {
            for (uint8_t m = static_cast<uint8_t>(wake & occupied);
                 m != 0; m &= static_cast<uint8_t>(m - 1))
                svcPre(__builtin_ctz(m), flips);
            flushLoads();
            refill();
            // Services, retirements, and admissions are the only
            // places wake targets change.
            rearmNextWake();
        }
        if (timed) {
            const uint64_t c4 = phaseTicks();
            physicsTicks += c1 - c0;
            workloadTicks += c2 - c1;
            bookkeepingTicks += c3 - c2;
            frontendTicks += c4 - c3;
            ++timedSteps;
        }
    }

    if (!timed)
        return;
    // Convert tick counts to nanoseconds against one steady_clock pair
    // bracketing the whole loop (per-run calibration keeps the split
    // honest across hosts with different TSC rates).
    const uint64_t tickEnd = phaseTicks();
    const uint64_t wallEnd = wallNowNs();
    const double nsPerTick = tickEnd > tickStart
        ? static_cast<double>(wallEnd - wallStart) /
            static_cast<double>(tickEnd - tickStart)
        : 0.0;
    const auto toNs = [&](uint64_t ticks) {
        return static_cast<uint64_t>(static_cast<double>(ticks) *
                                     nsPerTick);
    };
    stats->frontendNs += toNs(frontendTicks);
    stats->physicsNs += toNs(physicsTicks);
    stats->workloadNs += toNs(workloadTicks);
    stats->bookkeepingNs += toNs(bookkeepingTicks);
    stats->steps += timedSteps;
}

} // namespace

bool
batchAdmissible(const buffer::EnergyBuffer &buffer,
                const ExperimentConfig &config)
{
    if (dynamic_cast<const buffer::StaticBuffer *>(&buffer) == nullptr)
        return false;
    // Checkpoint/resume serializes mid-run state the lane engine holds
    // outside the buffer object, and the crash fuzzer's haltAfterSteps
    // must stop exactly like a power failure -- both stay per-cell.
    if (!config.checkpointPath.empty() || config.resume)
        return false;
    if (config.haltAfterSteps > 0)
        return false;
    // No lane-engine caller sends a fault plan or rail recording; both
    // stay with runExperiment, the semantics reference.
    return !config.faultPlan.enabled() && !config.recordRail;
}

void
runExperimentBatch(const BatchCell *cells, int count,
                   const ExperimentConfig &config, sim::simd::Kernel kernel,
                   BatchPhaseStats *stats)
{
    react_assert(count >= 1, "empty batch");
    static_assert(sim::GateLaneBank::kMaxLanes >=
                      sim::BatchStepper::kMaxLanes,
                  "the gate bank must cover every stepper lane");
    Engine engine(cells, count, config, kernel);
    engine.run(stats);
}

} // namespace harness
} // namespace react
