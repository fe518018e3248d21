/**
 * @file
 * End-to-end energy accounting.
 *
 * The paper's evaluation is fundamentally an energy audit: where does each
 * harvested joule go?  Every buffer implementation reports its flows
 * through this ledger so the harness can verify conservation
 * (harvested == delivered + clipped + leaked + switching + diode + overhead
 *  + change in stored energy) and the efficiency benches can break waste
 * down by cause.
 */

#ifndef REACT_SIM_ENERGY_LEDGER_HH
#define REACT_SIM_ENERGY_LEDGER_HH

#include "util/units.hh"

namespace react {
class ByteWriter;
class ByteReader;
namespace sim {

using units::Joules;

/** Cumulative energy flows. */
struct EnergyLedger
{
    /** Energy accepted from the harvester at the buffer input. */
    Joules harvested{0.0};
    /** Energy delivered to the computational backend. */
    Joules delivered{0.0};
    /** Energy burned off to prevent overvoltage (full buffer). */
    Joules clipped{0.0};
    /** Energy lost to capacitor self-discharge. */
    Joules leaked{0.0};
    /** Energy dissipated by inter-capacitor current during switching. */
    Joules switchLoss{0.0};
    /** Energy dissipated in isolation/input diodes. */
    Joules diodeLoss{0.0};
    /** Energy consumed by the buffer's own hardware (comparators etc.). */
    Joules overhead{0.0};
    /** Energy destroyed by injected hardware faults (capacitance fade,
     *  shorted-diode backfeed dissipation).  Zero in fault-free runs. */
    Joules faultLoss{0.0};

    /** Sum of all loss categories (everything but delivered). */
    Joules totalLoss() const;

    /** All energy that left the buffer, including useful delivery. */
    Joules totalOut() const;

    /** Fraction of harvested energy delivered to the backend. */
    double efficiency() const;

    /**
     * Conservation audit: harvested energy must equal delivered energy
     * plus all losses plus the change in stored energy.  The residual is
     * the simulator's bookkeeping error and must stay at floating-point
     * noise (the harness enforces |error| < 1e-9 J per joule harvested).
     *
     * @param stored_delta Stored energy now minus stored energy at the
     *        start of the accounting period.
     * @return Signed conservation error (0 == perfect books).
     */
    Joules conservationError(Joules stored_delta) const;

    /** Accumulate another ledger into this one. */
    EnergyLedger &operator+=(const EnergyLedger &other);

    /** Serialize every flow, bit-exact (in snapshots and in RNET
     *  results alike). */
    void save(ByteWriter &w) const;
    void restore(ByteReader &r);
};

EnergyLedger operator+(EnergyLedger lhs, const EnergyLedger &rhs);

} // namespace sim
} // namespace react

#endif // REACT_SIM_ENERGY_LEDGER_HH
