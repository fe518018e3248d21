/**
 * @file
 * Ideal-capacitor-with-leakage model: the basic storage element behind every
 * buffer architecture in this reproduction.
 *
 * The paper's capacitors are characterized by three datasheet values we
 * model directly: capacitance, rated voltage, and leakage current at the
 * rated voltage.  Leakage is modelled as an ohmic parallel resistance
 * R_leak = V_rated / I_leak(V_rated), which matches the first-order
 * behaviour of both the ceramic (28 uA @ 6.3 V) and supercapacitor
 * (0.15 uA @ 5.5 V) parts in Table 1.
 */

#ifndef REACT_SIM_CAPACITOR_HH
#define REACT_SIM_CAPACITOR_HH

#include <cmath>
#include <cstdint>

#include "sim/hotloop_stats.hh"
#include "util/units.hh"

namespace react {
namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}
namespace sim {

using units::Amps;
using units::Coulombs;
using units::Farads;
using units::Joules;
using units::Ohms;
using units::Seconds;
using units::Volts;
using units::Watts;

/** Electrical parameters for a capacitor part (one datasheet row). */
struct CapacitorSpec
{
    /** Capacitance. */
    Farads capacitance{0.0};
    /** Absolute maximum voltage; charge above this is clipped. */
    Volts ratedVoltage{6.3};
    /** Leakage current at the rated voltage. */
    Amps leakageCurrentAtRated{0.0};

    /** Equivalent parallel leakage resistance; infinite if no leak. */
    Ohms leakResistance() const;
};

/**
 * A single capacitor: charge state plus the physics helpers every buffer
 * needs (charge/energy accounting, exact leakage decay, current
 * integration, overvoltage clipping).
 */
class Capacitor
{
  public:
    Capacitor() = default;

    /** Construct from a part spec at an initial voltage (default 0 V). */
    explicit Capacitor(const CapacitorSpec &spec,
                       Volts initial_voltage = Volts(0));

    /** Part parameters. */
    const CapacitorSpec &spec() const { return partSpec; }

    /** Capacitance. */
    Farads capacitance() const { return partSpec.capacitance; }

    /** Terminal voltage. */
    Volts voltage() const { return v; }

    /** Force the terminal voltage (used by reconfiguration logic). */
    void setVoltage(Volts voltage);

    /**
     * Rescale the part capacitance at constant terminal voltage
     * (dielectric aging / fault-injected capacitance fade).  The charge
     * difference vanishes into the degraded dielectric; the caller books
     * the stored-energy delta (E = 1/2 dC V^2) to the fault ledger.
     *
     * @param capacitance New capacitance (> 0).
     * @return Stored energy lost (positive when capacitance shrank).
     */
    Joules setCapacitance(Farads capacitance);

    /** Stored charge Q = C V. */
    Coulombs charge() const;

    /** Stored energy E = 1/2 C V^2. */
    Joules energy() const;

    /**
     * Add signed charge.  Voltage changes by dQ / C; no rails are enforced
     * here (callers clip explicitly so the clipped energy can be accounted).
     *
     * @param dq Charge (negative discharges).
     */
    void addCharge(Coulombs dq);

    /**
     * Integrate a constant current over dt: dV = I dt / C.
     *
     * @param current Signed current (positive charges).
     * @param dt Timestep.
     */
    void applyCurrent(Amps current, Seconds dt);

    /**
     * Exact exponential self-discharge through the leakage resistance over
     * dt: V *= exp(-dt / (R_leak C)).
     *
     * @param dt Timestep.
     * @return Energy lost to leakage.
     */
    Joules leak(Seconds dt);

    /**
     * Decay factor leak() would multiply the voltage by for this dt:
     * exp(-dt / tau), or 1.0 for a lossless part.  Evaluated by the
     * same expression leak() caches, so the batch lane engine
     * (sim/batch_stepper.hh) can precompute a per-lane factor that is
     * bit-identical to per-step leak() calls.
     */
    double leakDecayFor(Seconds dt) const
    {
        if (!leakTauFinite)
            return 1.0;
        return std::exp(-dt / leakTau);
    }

    /**
     * Clamp voltage to the given ceiling (defaults to the rated voltage).
     *
     * @param ceiling Maximum voltage; values above are discarded as heat.
     * @return Energy clipped (0 when under the ceiling).
     */
    Joules clip(Volts ceiling = Volts(-1.0));

    /**
     * Energy released when discharging down to the given floor voltage;
     * zero when already below it.
     */
    Joules energyAbove(Volts floor_voltage) const;

    /** Serialize the mutable state: capacitance (aging derates it at
     *  run time) and terminal voltage.  The rest of the spec is fixed
     *  at construction. */
    void save(snapshot::SnapshotWriter &w) const;
    void restore(snapshot::SnapshotReader &r);

    /**
     * Adopt a checkpointed capacitance and voltage: restore() after its
     * reads, for owners that serialize the two in their own layout.
     *
     * @throws snapshot::SnapshotError, leaving the capacitor untouched,
     *         on a non-finite or non-positive capacitance or a
     *         non-finite or negative voltage.
     */
    void restoreState(Farads capacitance, Volts voltage);

  private:
    CapacitorSpec partSpec;
    Volts v{0.0};

    /**
     * @name Memoized leak-decay cache
     *
     * leak() evaluates exp(-dt / (R_leak C)) whose inputs change only
     * when the part parameters change (setCapacitance, snapshot
     * restore) or the caller's dt changes -- never on the per-step hot
     * path.  The time constant and the last decay factor are therefore
     * cached here and rebuilt from rebuildLeakCache() at every
     * parameter mutation point.  The cached expression is evaluated by
     * the exact operation sequence the uncached code used
     * (tau = R_leak * C, then exp(-dt / tau)), so results stay
     * bit-identical.
     * @{
     */
    /** R_leak * C; only meaningful when leakTauFinite. */
    Seconds leakTau{0.0};
    /** False for a lossless part (leakage current 0): leak() is then a
     *  zero-cost early-out with no division or exp at all. */
    bool leakTauFinite = false;
    /** dt key of the cached decay factor (< 0 = empty). */
    Seconds cachedLeakDt{-1.0};
    /** exp(-cachedLeakDt / leakTau). */
    double cachedLeakDecay = 1.0;

    /** Recompute the cached time constant and drop the decay factor.
     *  Call after any mutation of the part spec. */
    void rebuildLeakCache();
    /** @} */
};

// The per-step leaf operations below are defined inline in the header:
// every buffer architecture calls them from its step() at engine rate
// (tens of millions of calls per simulated hour), and keeping them in
// the .cc made the cross-TU call overhead the dominant hot-loop cost.

inline Coulombs
Capacitor::charge() const
{
    return partSpec.capacitance * v;
}

inline Joules
Capacitor::energy() const
{
    return units::capEnergy(partSpec.capacitance, v);
}

inline void
Capacitor::addCharge(Coulombs dq)
{
    v += dq / partSpec.capacitance;
    if (v < Volts(0))
        v = Volts(0);
}

inline void
Capacitor::applyCurrent(Amps current, Seconds dt)
{
    addCharge(current * dt);
}

inline Joules
Capacitor::leak(Seconds dt)
{
    if (!leakTauFinite || v <= Volts(0))
        return Joules(0);
    if (dt == cachedLeakDt) {
        ++hotloop::counters().leakCacheHits;
    } else {
        cachedLeakDecay = std::exp(-dt / leakTau);
        cachedLeakDt = dt;
        ++hotloop::counters().leakCacheMisses;
    }
    const Joules before = energy();
    v *= cachedLeakDecay;
    return before - energy();
}

inline Joules
Capacitor::clip(Volts ceiling)
{
    const Volts limit = ceiling < Volts(0) ? partSpec.ratedVoltage : ceiling;
    if (v <= limit)
        return Joules(0);
    const Joules before = energy();
    v = limit;
    return before - energy();
}

inline Joules
Capacitor::energyAbove(Volts floor_voltage) const
{
    if (v <= floor_voltage)
        return Joules(0);
    return units::capEnergyWindow(partSpec.capacitance, v, floor_voltage);
}

} // namespace sim
} // namespace react

#endif // REACT_SIM_CAPACITOR_HH
