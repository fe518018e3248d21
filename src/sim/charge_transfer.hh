/**
 * @file
 * Exact charge-transfer integration between capacitors.
 *
 * The buffer models connect capacitors through switch/diode resistances
 * whose RC time constants (e.g. 770 uF through ~1 Ohm => ~0.8 ms) are on
 * the order of the simulation timestep, so explicit Euler integration of
 * the inter-capacitor current would be unstable.  Instead we integrate the
 * two-capacitor relaxation analytically: for caps C1, C2 joined through
 * resistance R, the voltage difference decays as exp(-t / tau) with
 * tau = R * C1 C2 / (C1 + C2).  This is exact for any dt, making the
 * simulator unconditionally stable, and yields the dissipated energy in
 * closed form -- which is precisely the quantity the paper's Morphy-vs-REACT
 * comparison hinges on.
 */

#ifndef REACT_SIM_CHARGE_TRANSFER_HH
#define REACT_SIM_CHARGE_TRANSFER_HH

#include <algorithm>
#include <cmath>

#include "sim/capacitor.hh"
#include "sim/hotloop_stats.hh"
#include "util/logging.hh"

namespace react {
namespace sim {

/** Outcome of one charge-transfer step. */
struct TransferResult
{
    /** Charge moved from source to sink (>= 0). */
    Coulombs charge{0.0};
    /** Energy dissipated in the series resistance. */
    Joules resistiveLoss{0.0};
    /** Energy dissipated in the diode drop. */
    Joules diodeLoss{0.0};

    /** Total energy lost during the transfer. */
    Joules totalLoss() const { return resistiveLoss + diodeLoss; }
};

/**
 * Memo for one transfer path's relaxation constants.  transferCharge()
 * evaluates exp(-dt / tau) with tau derived from (C1, C2, R, dt) -- all
 * constant along a given path between reconfigurations -- so the owner
 * of the path (e.g. ReactBuffer, one cache per bank) keeps one of these
 * and passes it in.  A key mismatch recomputes through the exact
 * original operation sequence, so results are bit-identical with or
 * without the cache; mutations (aging, snapshot restore, bank
 * reconfiguration) need no explicit invalidation because they change
 * the key.
 */
struct TransferCache
{
    /** @name Key (raw operand values of the last solve). @{ */
    Farads c1{-1.0};
    Farads c2{-1.0};
    Ohms resistance{-1.0};
    Seconds dt{-1.0};
    /** @} */
    /** @name Cached values. @{ */
    Farads ceq{0.0};
    double decay = 0.0;
    /** @} */
};

/**
 * The capacitance and voltage behind a pair of terminals, with
 * Capacitor's charge and energy arithmetic but no rating, leak or part
 * spec.  A REACT bank presents one to the integrators below: they move
 * charge on it, and the bank writes the charge back through its own
 * series/parallel arithmetic (CapacitorBank::terminal()).  energy() and
 * addCharge() are the same expressions as Capacitor's, so a transfer
 * gives the same bits on a Terminal as on a Capacitor of the same
 * capacitance and voltage.
 */
struct Terminal
{
    Farads c{0.0};
    Volts v{0.0};

    Farads capacitance() const { return c; }
    Volts voltage() const { return v; }
    Joules energy() const { return units::capEnergy(c, v); }

    void addCharge(Coulombs dq)
    {
        v += dq / c;
        if (v < Volts(0))
            v = Volts(0);
    }
};

// transferCharge() and chargeFromPower() run on every REACT and static
// step, so they are templates defined here: they inline into the
// buffer's step() on either a Capacitor or a Terminal.  Only
// equalizeParallel(), which runs at reconfiguration, stays out of line
// in charge_transfer.cc.

/**
 * Move charge from @p source to @p sink through a series resistance and an
 * optional fixed diode drop, integrating the exact exponential relaxation
 * over the timestep.  No transfer occurs unless the source exceeds the sink
 * by more than the drop (diode semantics).
 *
 * @param source Higher-potential Capacitor or Terminal (discharges).
 * @param sink Lower-potential Capacitor or Terminal (charges).
 * @param resistance Series resistance (> 0).
 * @param diode_drop Fixed forward drop (>= 0).
 * @param dt Timestep.
 * @param cache Optional per-path memo for the relaxation constants
 *        (bit-identical results either way).
 * @return Charge moved and the losses incurred.
 */
template <typename Source, typename Sink>
TransferResult
transferCharge(Source &source, Sink &sink, Ohms resistance,
               Volts diode_drop, Seconds dt, TransferCache *cache = nullptr)
{
    react_assert(resistance > Ohms(0),
                 "transfer resistance must be positive");
    react_assert(diode_drop >= Volts(0), "diode drop must be >= 0");

    TransferResult result;
    const Volts dv = source.voltage() - sink.voltage() - diode_drop;
    if (dv <= Volts(0) || dt <= Seconds(0))
        return result;

    const Farads c1 = source.capacitance();
    const Farads c2 = sink.capacitance();
    Farads ceq;
    double decay;
    if (cache != nullptr && cache->c1 == c1 && cache->c2 == c2 &&
        cache->resistance == resistance && cache->dt == dt) {
        ceq = cache->ceq;
        decay = cache->decay;
        ++hotloop::counters().transferCacheHits;
    } else {
        ceq = c1 * c2 / (c1 + c2);
        const Seconds tau = resistance * ceq;
        // The excess voltage difference (above the diode drop) relaxes
        // exponentially; the transferred charge is the integral of the
        // current.
        decay = std::exp(-dt / tau);
        if (cache != nullptr) {
            *cache = TransferCache{c1, c2, resistance, dt, ceq, decay};
            ++hotloop::counters().transferCacheMisses;
        }
    }
    const Coulombs q = ceq * dv * (1.0 - decay);

    const Joules e_before = source.energy() + sink.energy();
    source.addCharge(-q);
    sink.addCharge(q);
    const Joules e_after = source.energy() + sink.energy();

    result.charge = q;
    result.diodeLoss = diode_drop * q;
    result.resistiveLoss = e_before - e_after - result.diodeLoss;
    // Numerical guard: the closed form keeps this non-negative, but clamp
    // rounding noise so ledgers never accumulate negative loss.
    result.resistiveLoss = std::max(result.resistiveLoss, Joules(0.0));
    return result;
}

/**
 * Charge a Capacitor or Terminal from a constant-power source (the
 * harvester frontend) through an input diode.  The delivered current is
 * P / (V + drop), floored at a converter-dependent minimum voltage so
 * cold-start currents stay physical.
 *
 * @param sink Capacitor or Terminal being charged.
 * @param power Source power.
 * @param dt Timestep.
 * @param diode_drop Input diode drop.
 * @param v_floor Minimum effective conversion voltage (bounds current).
 * @return Energy deposited on the capacitor in TransferResult semantics:
 *         'charge' is the charge delivered, 'diodeLoss' the diode
 *         dissipation; resistiveLoss is always 0.
 */
template <typename Sink>
TransferResult
chargeFromPower(Sink &sink, Watts power, Seconds dt,
                Volts diode_drop = Volts(0.0), Volts v_floor = Volts(0.2))
{
    TransferResult result;
    if (power <= Watts(0) || dt <= Seconds(0))
        return result;

    const Volts v_eff = std::max(sink.voltage() + diode_drop, v_floor);
    const Amps current = power / v_eff;
    const Coulombs q = current * dt;

    sink.addCharge(q);
    result.charge = q;
    result.diodeLoss = diode_drop * q;
    return result;
}

/**
 * Instantaneously connect two capacitors in parallel and equalize them
 * (the lossy charge-sharing operation at the heart of Morphy's
 * reconfiguration, Fig. 5).  Final voltage is (Q1 + Q2) / (C1 + C2); the
 * difference in stored energy is dissipated in the interconnect.
 *
 * @param a First capacitor.
 * @param b Second capacitor.
 * @return Energy dissipated (>= 0).
 */
Joules equalizeParallel(Capacitor &a, Capacitor &b);

} // namespace sim
} // namespace react

#endif // REACT_SIM_CHARGE_TRANSFER_HH
