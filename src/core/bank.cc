#include "bank.hh"

#include <cmath>
#include <limits>

#include "sim/hotloop_stats.hh"
#include "snapshot/snapshot.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace react {
namespace core {

using units::Ohms;

const char *
bankStateName(BankState state)
{
    switch (state) {
      case BankState::Disconnected:
        return "disconnected";
      case BankState::Series:
        return "series";
      case BankState::Parallel:
        return "parallel";
    }
    return "?";
}

CapacitorBank::CapacitorBank(const BankSpec &spec)
    : bankSpec(spec)
{
    react_assert(spec.count >= 1, "bank needs at least one capacitor");
    react_assert(spec.unit.capacitance > Farads(0),
                 "bank unit capacitance must be positive");
    rebuildLeakCache();
}

void
CapacitorBank::rebuildLeakCache()
{
    const Ohms r = bankSpec.unit.leakResistance();
    leakTauFinite = units::isfinite(r);
    leakTau = leakTauFinite ? r * bankSpec.unit.capacitance : Seconds(0.0);
    cachedLeakDt = Seconds(-1.0);
    cachedLeakDecay = 1.0;
}

void
CapacitorBank::setUnitVoltage(Volts v)
{
    react_assert(v >= Volts(0), "unit voltage must be >= 0");
    vUnit = v;
}

Joules
CapacitorBank::setUnitCapacitance(Farads capacitance)
{
    react_assert(capacitance > Farads(0),
                 "bank unit capacitance must be positive");
    const Joules before = storedEnergy();
    bankSpec.unit.capacitance = capacitance;
    rebuildLeakCache();
    return before - storedEnergy();
}

void
CapacitorBank::setState(BankState state)
{
    // Break-before-make switches: per-capacitor charge is untouched, so
    // stored energy is identical before and after (verified by tests).
    bankState = state;
}

void
CapacitorBank::addChargeAtTerminal(Coulombs dq)
{
    react_assert(connected(), "cannot move charge on a disconnected bank");
    const double n = static_cast<double>(bankSpec.count);
    if (bankState == BankState::Series) {
        // The same charge flows through every series member.
        vUnit += dq / bankSpec.unit.capacitance;
    } else {
        vUnit += dq / (n * bankSpec.unit.capacitance);
    }
    if (vUnit < Volts(0))
        vUnit = Volts(0);
}

void
CapacitorBank::save(snapshot::SnapshotWriter &w) const
{
    w.u8(static_cast<uint8_t>(bankState));
    w.f64(vUnit.raw());
    w.f64(bankSpec.unit.capacitance.raw());
}

void
CapacitorBank::restore(snapshot::SnapshotReader &r)
{
    bankState = static_cast<BankState>(r.u8());
    vUnit = Volts(r.f64());
    bankSpec.unit.capacitance = Farads(r.f64());
    rebuildLeakCache();
}

} // namespace core
} // namespace react
