/**
 * @file
 * One isolated REACT capacitor bank (S 3.3).
 *
 * A bank holds N identical capacitors that are only ever arranged
 * full-series or full-parallel, so no current ever flows *between* the
 * capacitors of a bank: by symmetry every member carries the same charge,
 * and a series<->parallel transition merely rewires terminals while
 * conserving each capacitor's charge.  That is the paper's key efficiency
 * property -- reconfiguration is lossless (S 3.3.3) -- and it also enables
 * charge reclamation: switching a drained parallel bank into series
 * multiplies the terminal voltage by N, making energy below the
 * undervoltage threshold extractable again (S 3.3.4, an N^2 reduction in
 * stranded energy).
 *
 * The same symmetry is the model: a bank is one sim::Capacitor standing
 * for each member, times the count, seen through the series or parallel
 * terminal view.
 */

#ifndef REACT_CORE_BANK_HH
#define REACT_CORE_BANK_HH

#include "sim/capacitor.hh"
#include "sim/charge_transfer.hh"
#include "util/logging.hh"

namespace react {
namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}
namespace core {

using units::Coulombs;
using units::Farads;
using units::Joules;
using units::Seconds;
using units::Volts;

/** Electrical arrangement of a bank's capacitors. */
enum class BankState
{
    /** Normally-open switches released: no terminal connection. */
    Disconnected,
    /** Full series chain: capacitance C/N, terminal N * v_unit. */
    Series,
    /** Full parallel: capacitance N * C, terminal v_unit. */
    Parallel,
};

/** Human-readable state name. */
const char *bankStateName(BankState state);

/** Static description of one bank (a Table-1 row). */
struct BankSpec
{
    /** Number of identical capacitors. */
    int count = 1;
    /** Part parameters of each capacitor. */
    sim::CapacitorSpec unit;

    /** Capacitance in the series arrangement. */
    Farads seriesCapacitance() const;
    /** Capacitance in the parallel arrangement. */
    Farads parallelCapacitance() const;
};

/**
 * Run-time state of one bank: one sim::Capacitor standing for every
 * member (by symmetry they all hold the same voltage and capacitance),
 * the member count, and the arrangement.  Leakage, clipping and fade are
 * the unit's own physics; the bank scales its energy by the count and
 * derives the terminal view from the arrangement.
 */
class CapacitorBank
{
  public:
    explicit CapacitorBank(const BankSpec &spec);

    /** Number of identical capacitors. */
    int count() const { return members; }

    /** Present arrangement. */
    BankState state() const { return bankState; }

    /** Per-capacitor voltage (identical across members by symmetry). */
    Volts unitVoltage() const { return unit.voltage(); }

    /** Force the per-capacitor voltage (tests / initialization). */
    void setUnitVoltage(Volts v) { unit.setVoltage(v); }

    /**
     * Re-derate the per-capacitor capacitance (dielectric aging under
     * fault injection).  Voltage is preserved, so charge and energy drop
     * with the capacitance; the caller books the returned energy delta
     * against the ledger's fault-loss category.
     *
     * @return Energy lost to the fade (>= 0 when shrinking).
     */
    Joules setUnitCapacitance(Farads capacitance);

    /** Whether the bank participates in the power network. */
    bool connected() const { return bankState != BankState::Disconnected; }

    /**
     * Terminal voltage as seen from the common rail; 0 when disconnected
     * (the terminal floats).
     */
    Volts terminalVoltage() const;

    /** Capacitance presented at the terminals; 0 when disconnected. */
    Farads terminalCapacitance() const;

    /**
     * The terminals as a plain capacitance and voltage, for the
     * charge-transfer integrators.  A copy: write the charge it moved
     * back with addChargeAtTerminal().  Must be connected.
     */
    sim::Terminal terminal() const
    {
        return sim::Terminal{terminalCapacitance(), terminalVoltage()};
    }

    /** Total stored energy (retained even while disconnected). */
    Joules storedEnergy() const;

    /**
     * Rewire the bank.  Per-capacitor charge is conserved -- the operation
     * is lossless, only the terminal abstraction changes.
     */
    void setState(BankState state);

    /**
     * Add signed charge at the terminals.  Series chains pass the same
     * charge through every member (v_unit += dq / C_unit); parallel banks
     * split it evenly (v_unit += dq / (N C_unit)).  Must be connected.
     */
    void addChargeAtTerminal(Coulombs dq);

    /** Exact exponential self-discharge; returns energy leaked. */
    Joules leak(Seconds dt);

    /**
     * Clamp the per-capacitor voltage to the part rating.
     *
     * @return Energy clipped.
     */
    Joules clipToRating();

    /**
     * Serialize arrangement, per-capacitor voltage, and the unit
     * capacitance (mutable under dielectric-aging injection).  restore()
     * throws snapshot::SnapshotError, leaving the bank untouched, on an
     * unknown arrangement, a non-finite or negative voltage, or a
     * non-finite or non-positive capacitance.
     */
    void save(snapshot::SnapshotWriter &w) const;
    void restore(snapshot::SnapshotReader &r);

  private:
    /** The representative member. */
    sim::Capacitor unit;
    int members;
    BankState bankState = BankState::Disconnected;
};

// Inline definitions for the per-step leaf operations: REACT touches
// every bank every engine step (leak, clip, terminal reads, charge
// moves), so these must inline into the buffer's step() rather than pay
// a cross-TU call.

inline Farads
BankSpec::seriesCapacitance() const
{
    return unit.capacitance / static_cast<double>(count);
}

inline Farads
BankSpec::parallelCapacitance() const
{
    return unit.capacitance * static_cast<double>(count);
}

inline Volts
CapacitorBank::terminalVoltage() const
{
    switch (bankState) {
      case BankState::Disconnected:
        return Volts(0.0);
      case BankState::Series:
        return unit.voltage() * static_cast<double>(members);
      case BankState::Parallel:
        return unit.voltage();
    }
    return Volts(0.0);
}

inline Farads
CapacitorBank::terminalCapacitance() const
{
    switch (bankState) {
      case BankState::Disconnected:
        return Farads(0.0);
      case BankState::Series:
        return unit.capacitance() / static_cast<double>(members);
      case BankState::Parallel:
        return unit.capacitance() * static_cast<double>(members);
    }
    return Farads(0.0);
}

inline Joules
CapacitorBank::storedEnergy() const
{
    return static_cast<double>(members) * unit.energy();
}

inline void
CapacitorBank::addChargeAtTerminal(Coulombs dq)
{
    react_assert(connected(), "cannot move charge on a disconnected bank");
    if (bankState == BankState::Series) {
        // The same charge flows through every series member.
        unit.addCharge(dq);
        return;
    }
    const double n = static_cast<double>(members);
    unit.shiftVoltage(dq / (n * unit.capacitance()));
}

// leak() and clipToRating() book the count-scaled energy delta from two
// unit energies, one before and one after: N * E_before - N * E_after,
// the same bits as differencing storedEnergy() around the unit call.  A
// unit delta of exactly 0 means the unit's energy did not change, so the
// bank books 0 without the products.

inline Joules
CapacitorBank::leak(Seconds dt)
{
    const Joules before = unit.energy();
    if (unit.leak(dt) == Joules(0))
        return Joules(0);
    const double n = static_cast<double>(members);
    return n * before - n * unit.energy();
}

inline Joules
CapacitorBank::clipToRating()
{
    const Joules before = unit.energy();
    if (unit.clip() == Joules(0))
        return Joules(0);
    const double n = static_cast<double>(members);
    return n * before - n * unit.energy();
}

} // namespace core
} // namespace react

#endif // REACT_CORE_BANK_HH
