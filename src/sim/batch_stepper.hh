/**
 * @file
 * Batch-of-cells lane engine: advance up to 8 independent StaticBuffer
 * physics states in lockstep, one SIMD lane per cell.
 *
 * The evaluation sweeps (Table 2, Figs. 1/5/7) are embarrassingly
 * parallel across cells, and a static cell's per-step physics is four
 * short phases of straight-line arithmetic (leak, harvest, load, clip --
 * see buffers/static_buffer.cc).  This engine transposes the per-cell
 * state into lane-major arrays at batch admission and replays *exactly*
 * the scalar operation sequence on every lane per step, so each lane's
 * trajectory is bit-identical to the cell stepping alone:
 *
 *  - every IEEE operation (mul/add/sub/div/max/compare) is performed
 *    lane-wise in the same order the scalar code performs it; there are
 *    no horizontal reductions (the determinism linter's DET007 bans
 *    them outright);
 *  - the scalar code's early-outs (no leak on a lossless part, no
 *    harvest at zero power, no load at zero current, no clip under the
 *    clamp) are replaced by arithmetic that is *bitwise* a no-op in the
 *    skipped case: x * 1.0 == x, x + (+-0.0) == x for the x >= +0.0
 *    values that arise here, and accumulator += +0.0 never changes the
 *    accumulator's bits (ledger totals are never -0.0);
 *  - the vector translation units are compiled with -mavx2 / -mavx512f
 *    only (no FMA: neither flag enables it) plus -ffp-contract=off, so
 *    vector and scalar lanes round identically everywhere.
 *
 * Inactive (admitted-short or frozen) lanes carry inert values -- decay
 * 1.0, zero power, zero load -- so the kernels always process all
 * kMaxLanes lanes unconditionally with no tail handling.
 *
 * Everything lives in fixed-capacity member arrays: admission, stepping,
 * and readout perform zero heap allocations (bench/micro_engine.cc's
 * operator-new audit enforces this).
 */

#ifndef REACT_SIM_BATCH_STEPPER_HH
#define REACT_SIM_BATCH_STEPPER_HH

#include "sim/simd.hh"
#include "util/units.hh"

namespace react {
namespace sim {

/**
 * Lane-major state shared with the kernel translation units.  Arrays are
 * 64-byte aligned so both vector kernels use aligned loads/stores (one
 * full __m512d per array for AVX-512, two __m256d for AVX2).
 */
struct BatchLaneState
{
    /** Maximum lanes per batch: two 4-wide AVX2 vectors. */
    static constexpr int kMaxLanes = 8;

    /** Terminal voltage per lane (the compute truth during a batch). */
    alignas(64) double v[kMaxLanes];
    /** Per-step leak decay factor exp(-dt/tau); 1.0 for lossless or
     *  frozen lanes (a bitwise no-op multiply). */
    alignas(64) double decay[kMaxLanes];
    /** 0.5 * C, the first rounded term of units::capEnergy. */
    alignas(64) double halfC[kMaxLanes];
    /** Capacitance (the divisor in Capacitor::addCharge). */
    alignas(64) double capacitance[kMaxLanes];
    /** Overvoltage clamp (StaticBuffer rail clamp). */
    alignas(64) double clamp[kMaxLanes];
    /** Harvest input power for the pending step, watts. */
    alignas(64) double harvestW[kMaxLanes];
    /** Backend load current for the pending step, amps (>= 0). */
    alignas(64) double loadA[kMaxLanes];
    /** Precomputed (-(loadA*dt))/capacitance: the load phase's voltage
     *  delta.  Its three operands only change through the setters, and
     *  IEEE division is deterministic, so caching the quotient there
     *  is bitwise the per-step division -- one of the kernel's three
     *  divides hoisted out of the hot loop. */
    alignas(64) double dqOverCap[kMaxLanes];
    /** @name Ledger accumulators (same one-add-per-step sequence as the
     *  scalar EnergyLedger fields). @{ */
    alignas(64) double leaked[kMaxLanes];
    alignas(64) double harvested[kMaxLanes];
    alignas(64) double delivered[kMaxLanes];
    alignas(64) double clipped[kMaxLanes];
    /** @} */
    /** Integration timestep, seconds (shared by every lane). */
    double dt;
};

namespace detail {

/** Portable lane kernel: the scalar operation sequence, per lane. */
void batchStepScalar(BatchLaneState &s);

/** AVX2 lane kernel (batch_kernels_avx2.cc; only linked when the
 *  toolchain accepts -mavx2).  Bit-identical to batchStepScalar. */
void batchStepAvx2(BatchLaneState &s);

/** Lower-half AVX2 kernel: lanes 0-3 only, lanes 4-7 untouched (the
 *  ragged-tail narrow step; see BatchStepper::stepLower). */
void batchStepAvx2Lower(BatchLaneState &s);

/** Portable lower-half kernel: lanes 0-3 through the scalar operation
 *  sequence (the stepLower fallback when no AVX2 TU is linked). */
void batchStepScalarLower(BatchLaneState &s);

/** AVX-512 lane kernel (batch_kernels_avx512.cc; only linked when the
 *  toolchain accepts -mavx512f).  Bit-identical to batchStepScalar. */
void batchStepAvx512(BatchLaneState &s);

} // namespace detail

/** Per-lane state at batch admission (transposed from the cell's
 *  StaticBuffer / Capacitor / EnergyLedger). */
struct BatchLaneInit
{
    /** Terminal voltage. */
    double voltage = 0.0;
    /** Capacitance. */
    double capacitance = 0.0;
    /** Rail clamp. */
    double clamp = 0.0;
    /** Capacitor::leakDecayFor(dt): exp(-dt/tau), 1.0 when lossless. */
    double leakDecay = 1.0;
    /** @name Ledger totals at admission. @{ */
    double leaked = 0.0;
    double harvested = 0.0;
    double delivered = 0.0;
    double clipped = 0.0;
    /** @} */
};

/**
 * The lane engine.  Usage per step: set each active lane's harvest
 * power and load current, then step() once; read voltages/ledgers back
 * any time.  Lanes that finish early are frozen (freezeLane), which
 * turns every subsequent step into a bitwise no-op for that lane --
 * ragged batch tails cost nothing and perturb nothing.
 */
class BatchStepper
{
  public:
    static constexpr int kMaxLanes = BatchLaneState::kMaxLanes;

    /**
     * @param kernel Scalar, Avx2, or Avx512 (from simd::selectedKernel()
     *        or an explicit test choice).  Disabled is a caller bug; a
     *        vector kernel panics unless the matching
     *        simd::*Available() probe holds.
     * @param dt Integration timestep shared by every lane, seconds.
     */
    BatchStepper(simd::Kernel kernel, double dt);

    /** Admit one cell; returns its lane index. */
    int addLane(const BatchLaneInit &init);

    /**
     * Reinitialize lane @p lane for a new cell (the slot-refill path:
     * a finished cell's lane is immediately re-admitted for the next
     * queued cell).  Extends the admitted-lane count when @p lane is
     * past it.  Lanes are fully independent, so re-seeding one slot
     * never perturbs its batch mates' trajectories.
     */
    void reinitLane(int lane, const BatchLaneInit &init);

    /** The kernel actually stepping this batch. */
    simd::Kernel kernel() const { return activeKernel; }

    /** Set the harvest input power for the pending step. */
    void setHarvestPower(int lane, double watts)
    {
        state.harvestW[lane] = watts;
        // Track quiet()'s precondition exactly as the scalar
        // kernel's harvest early-out sees it: q is forced to zero
        // unless P > 0 (NaN therefore counts as unpowered).
        const bool powered = watts > 0.0;
        poweredLanes += static_cast<int>(powered) -
            static_cast<int>(lanePowered[lane]);
        lanePowered[lane] = powered;
    }

    /** Set the backend load current for the pending step. */
    void setLoadCurrent(int lane, double amps)
    {
        // An unchanged current re-set is a no-op (the == can only
        // alias +0.0 with -0.0, and either zero makes the load phase
        // a bitwise no-op anyway); the step loops re-set the load
        // after every benchmark tick, and it rarely moves.
        if (amps == state.loadA[lane])
            return;
        state.loadA[lane] = amps;
        state.dqOverCap[lane] =
            (-(amps * state.dt)) / state.capacitance[lane];
        // Either zero (+0.0 or -0.0) makes the load phase a bitwise
        // no-op (dq = -+0, and x + (+-0.0) == x for the x >= +0.0 rail
        // values here), so both zeros count as unloaded.
        const bool loaded = amps != 0.0;
        loadedLanes += static_cast<int>(loaded) -
            static_cast<int>(laneLoaded[lane]);
        laneLoaded[lane] = loaded;
    }

    /**
     * Freeze a finished lane: decay 1.0, zero power, zero load.  Every
     * later step leaves the lane's voltage and ledger bits untouched,
     * so one cell draining early never perturbs its batch mates.
     */
    void freezeLane(int lane);

    /** Advance every lane one dt (frozen lanes are bitwise no-ops). */
    void step() { stepFn(state); }

    /** True when no lane is powered or loaded, as the setters track
     *  it.  Only harvest/load setter calls can change this, never a
     *  step itself -- the batch runner's dark-idle burst relies on that
     *  invariant. */
    bool quiet() const { return (poweredLanes | loadedLanes) == 0; }

    /**
     * Advance ONE lane one dt through the scalar operation sequence
     * (the single-lane body batchStepScalar loops over).  Because a
     * frozen or inert lane's step is a bitwise no-op, stepping only the
     * live lanes is bit-identical to step() when every other lane is
     * frozen -- the batch runner uses this for ragged tails where one
     * or two cells outlive the rest and a full-width vector step would
     * waste the divider on no-op lanes.
     */
    void stepLane(int lane);

    /**
     * Advance lanes 0-3 one dt, leaving lanes 4-7 completely untouched.
     * Bit-identical to step() whenever every upper lane is frozen or
     * inert (their steps are bitwise no-ops, so skipping them changes
     * nothing).  The batch runner uses this for ragged tails: under LPT
     * admission the longest cells hold the lowest slots, so once the
     * short cells drain only the lower half is live and a half-width
     * vector step halves the divider chain.
     */
    void stepLower() { stepLowerFn(state); }

    /** @name Lane readout. @{ */
    double voltage(int lane) const { return state.v[lane]; }
    /** Lane-major rail voltages (the gate bank's batch read path). */
    const double *voltages() const { return state.v; }
    double leaked(int lane) const { return state.leaked[lane]; }
    double harvested(int lane) const { return state.harvested[lane]; }
    double delivered(int lane) const { return state.delivered[lane]; }
    double clipped(int lane) const { return state.clipped[lane]; }
    /** @} */

  private:
    BatchLaneState state;
    int laneCount = 0;
    simd::Kernel activeKernel;
    void (*stepFn)(BatchLaneState &);
    void (*stepLowerFn)(BatchLaneState &);
    /** @name Powered/loaded lane tracking (see quiet()). @{ */
    int poweredLanes = 0;
    int loadedLanes = 0;
    bool lanePowered[kMaxLanes] = {};
    bool laneLoaded[kMaxLanes] = {};
    /** @} */
};

} // namespace sim
} // namespace react

#endif // REACT_SIM_BATCH_STEPPER_HH
