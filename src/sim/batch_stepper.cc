#include "batch_stepper.hh"

#include <algorithm>

#include "util/logging.hh"

namespace react {
namespace sim {

namespace detail {

namespace {

/** units::capEnergy's operation sequence with 0.5*C pre-rounded: the
 *  product 0.5*C is the same double whether formed now or at admission,
 *  so (halfC*v)*v is bitwise capEnergy(C, v). */
inline double
laneEnergy(double half_c, double v)
{
    return (half_c * v) * v;
}

} // namespace

void
batchStepScalar(BatchLaneState &s)
{
    // Phase-for-phase the arithmetic of StaticBuffer::step on one lane,
    // with every scalar early-out replaced by its bitwise-no-op
    // arithmetic form (see batch_stepper.hh).  GCC may auto-vectorize
    // this loop; lane-wise IEEE ops round identically either way.
    for (int l = 0; l < BatchLaneState::kMaxLanes; ++l) {
        const double half_c = s.halfC[l];
        const double cap = s.capacitance[l];

        // 1. Self-discharge: Capacitor::leak.  decay is 1.0 for
        //    lossless/frozen lanes, making the multiply and the ledger
        //    add bitwise no-ops (matching the scalar early-out).
        const double v0 = s.v[l];
        const double v1 = v0 * s.decay[l];
        s.leaked[l] += laneEnergy(half_c, v0) - laneEnergy(half_c, v1);

        // 2. Harvest: chargeFromPower (diode drop 0, floor 0.2 V) into
        //    Capacitor::addCharge.  At zero power the charge is forced
        //    to +0.0, so v1 + (+0.0)/C leaves the voltage bits alone,
        //    exactly like the scalar P <= 0 early-out.
        const double p = s.harvestW[l];
        const double v_eff = std::max(v1, 0.2);
        const double current = p / v_eff;
        double q = current * s.dt;
        if (!(p > 0.0))
            q = 0.0;
        double v2 = v1 + q / cap;
        if (v2 < 0.0)
            v2 = 0.0;
        s.harvested[l] +=
            laneEnergy(half_c, v2) - laneEnergy(half_c, v1);

        // 3. Backend load: applyCurrent(-I, dt).  (-I)*dt and -(I*dt)
        //    are the same bits (negation is exact), at I == 0 the
        //    added -0.0/C term is again a bitwise no-op, and the
        //    division's operands only move through the setters, so the
        //    cached quotient is bitwise the per-step division.
        double v3 = v2 + s.dqOverCap[l];
        if (v3 < 0.0)
            v3 = 0.0;
        s.delivered[l] +=
            laneEnergy(half_c, v2) - laneEnergy(half_c, v3);

        // 4. Overvoltage protection: Capacitor::clip(clamp).
        double v4 = v3;
        if (v4 > s.clamp[l])
            v4 = s.clamp[l];
        s.clipped[l] += laneEnergy(half_c, v3) - laneEnergy(half_c, v4);

        s.v[l] = v4;
    }
}

bool
batchStepQuiet(BatchLaneState &s)
{
    // With every lane unpowered and unloaded, phases 2-4 of the full
    // kernel are bitwise no-ops (see the header comment), so only the
    // leak phase remains -- unless a lane sits above its clamp (a fresh
    // admission can seed that), in which case phase 4 would fire and we
    // must not have mutated anything yet.  Check first, commit second.
    double v1[BatchLaneState::kMaxLanes];
    bool clips = false;
    for (int l = 0; l < BatchLaneState::kMaxLanes; ++l) {
        v1[l] = s.v[l] * s.decay[l];
        clips |= v1[l] > s.clamp[l];
    }
    if (clips)
        return false;
    for (int l = 0; l < BatchLaneState::kMaxLanes; ++l) {
        s.leaked[l] +=
            laneEnergy(s.halfC[l], s.v[l]) - laneEnergy(s.halfC[l], v1[l]);
        s.v[l] = v1[l];
    }
    return true;
}

namespace {

/** One lane of batchStepScalar, same statements in the same order.
 *  Kept separate from the 8-lane loop so the hot all-lane kernel's
 *  codegen (auto-vectorization included) is not perturbed by another
 *  call site. */
void
stepOneLaneFull(BatchLaneState &s, int l)
{
    const double half_c = s.halfC[l];
    const double cap = s.capacitance[l];

    const double v0 = s.v[l];
    const double v1 = v0 * s.decay[l];
    s.leaked[l] += laneEnergy(half_c, v0) - laneEnergy(half_c, v1);

    const double p = s.harvestW[l];
    const double v_eff = std::max(v1, 0.2);
    const double current = p / v_eff;
    double q = current * s.dt;
    if (!(p > 0.0))
        q = 0.0;
    double v2 = v1 + q / cap;
    if (v2 < 0.0)
        v2 = 0.0;
    s.harvested[l] += laneEnergy(half_c, v2) - laneEnergy(half_c, v1);

    double v3 = v2 + s.dqOverCap[l];
    if (v3 < 0.0)
        v3 = 0.0;
    s.delivered[l] += laneEnergy(half_c, v2) - laneEnergy(half_c, v3);

    double v4 = v3;
    if (v4 > s.clamp[l])
        v4 = s.clamp[l];
    s.clipped[l] += laneEnergy(half_c, v3) - laneEnergy(half_c, v4);

    s.v[l] = v4;
}

} // namespace

void
batchStepScalarLower(BatchLaneState &s)
{
    for (int l = 0; l < BatchLaneState::kMaxLanes / 2; ++l)
        stepOneLaneFull(s, l);
}

#ifndef REACT_HAVE_AVX2_KERNEL
void
batchStepAvx2(BatchLaneState &)
{
    react_panic("AVX2 lane kernel was not compiled into this binary");
}

void
batchStepAvx2Lower(BatchLaneState &)
{
    react_panic("AVX2 lane kernel was not compiled into this binary");
}
#endif

#ifndef REACT_HAVE_AVX512_KERNEL
void
batchStepAvx512(BatchLaneState &)
{
    react_panic("AVX-512 lane kernel was not compiled into this binary");
}
#endif

} // namespace detail

BatchStepper::BatchStepper(simd::Kernel kernel, double dt)
    : activeKernel(kernel)
{
    react_assert(dt > 0.0, "lane engine timestep must be positive");
    react_assert(kernel != simd::Kernel::Disabled,
                 "BatchStepper constructed with the lane engine disabled");
    if (kernel == simd::Kernel::Avx2)
        react_assert(simd::avx2Available(),
                     "AVX2 lane kernel selected but unavailable "
                     "(resolveKernel should have rejected this)");
    if (kernel == simd::Kernel::Avx512)
        react_assert(simd::avx512Available(),
                     "AVX-512 lane kernel selected but unavailable "
                     "(resolveKernel should have rejected this)");
    switch (kernel) {
    case simd::Kernel::Avx512:
        stepFn = detail::batchStepAvx512;
        break;
    case simd::Kernel::Avx2:
        stepFn = detail::batchStepAvx2;
        break;
    default:
        stepFn = detail::batchStepScalar;
        break;
    }
    // The half-width tail step: any AVX-512 part also runs AVX2, so
    // both vector kernels share the 4-wide ymm lower step (the xmm/ymm
    // divider is the win over a full-width zmm divide on ragged tails).
#ifdef REACT_HAVE_AVX2_KERNEL
    stepLowerFn = kernel == simd::Kernel::Scalar
        ? detail::batchStepScalarLower
        : detail::batchStepAvx2Lower;
#else
    stepLowerFn = detail::batchStepScalarLower;
#endif
    state.dt = dt;
    // Inert padding lanes: the kernels process all kMaxLanes
    // unconditionally, so unadmitted lanes carry values for which every
    // phase is a harmless no-op (and divisor-free of zero).
    for (int l = 0; l < kMaxLanes; ++l) {
        state.v[l] = 0.0;
        state.decay[l] = 1.0;
        state.halfC[l] = 0.5;
        state.capacitance[l] = 1.0;
        state.clamp[l] = 1.0;
        state.harvestW[l] = 0.0;
        state.loadA[l] = 0.0;
        state.dqOverCap[l] = -0.0;
        state.leaked[l] = 0.0;
        state.harvested[l] = 0.0;
        state.delivered[l] = 0.0;
        state.clipped[l] = 0.0;
    }
}

int
BatchStepper::addLane(const BatchLaneInit &init)
{
    react_assert(laneCount < kMaxLanes, "batch is full (%d lanes)",
                 kMaxLanes);
    const int lane = laneCount;
    reinitLane(lane, init);
    return lane;
}

void
BatchStepper::reinitLane(int lane, const BatchLaneInit &init)
{
    react_assert(lane >= 0 && lane < kMaxLanes,
                 "lane index %d out of range", lane);
    react_assert(init.capacitance > 0.0,
                 "lane capacitance must be positive");
    react_assert(init.clamp > 0.0, "lane clamp must be positive");
    laneCount = std::max(laneCount, lane + 1);
    state.v[lane] = init.voltage;
    state.decay[lane] = init.leakDecay;
    state.halfC[lane] = 0.5 * init.capacitance;
    state.capacitance[lane] = init.capacitance;
    state.clamp[lane] = init.clamp;
    setHarvestPower(lane, 0.0);
    setLoadCurrent(lane, 0.0);
    state.leaked[lane] = init.leaked;
    state.harvested[lane] = init.harvested;
    state.delivered[lane] = init.delivered;
    state.clipped[lane] = init.clipped;
}

void
BatchStepper::stepLane(int lane)
{
    react_assert(lane >= 0 && lane < kMaxLanes,
                 "lane index %d out of range", lane);
    // Per-lane quiet peephole, same reasoning as batchStepQuiet but for
    // one lane: unpowered and unloaded means phases 2-4 are bitwise
    // no-ops unless the post-leak voltage would clip.
    if (!lanePowered[lane] && !laneLoaded[lane]) {
        const double v0 = state.v[lane];
        const double v1 = v0 * state.decay[lane];
        if (!(v1 > state.clamp[lane])) {
            state.leaked[lane] += detail::laneEnergy(state.halfC[lane], v0) -
                detail::laneEnergy(state.halfC[lane], v1);
            state.v[lane] = v1;
            return;
        }
    }
    detail::stepOneLaneFull(state, lane);
}

void
BatchStepper::freezeLane(int lane)
{
    state.decay[lane] = 1.0;
    setHarvestPower(lane, 0.0);
    setLoadCurrent(lane, 0.0);
}

} // namespace sim
} // namespace react
