#include "bank.hh"

#include <string>

#include "snapshot/snapshot.hh"
#include "util/logging.hh"

namespace react {
namespace core {

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
    : unit(spec.unit), members(spec.count)
{
    react_assert(spec.count >= 1, "bank needs at least one capacitor");
}

Joules
CapacitorBank::setUnitCapacitance(Farads capacitance)
{
    const Joules before = storedEnergy();
    unit.setCapacitance(capacitance);
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
CapacitorBank::save(snapshot::SnapshotWriter &w) const
{
    w.u8(static_cast<uint8_t>(bankState));
    w.f64(unit.voltage().raw());
    w.f64(unit.capacitance().raw());
}

void
CapacitorBank::restore(snapshot::SnapshotReader &r)
{
    const uint8_t state = r.u8();
    const Volts v(r.f64());
    const Farads c(r.f64());
    if (state > static_cast<uint8_t>(BankState::Parallel))
        throw snapshot::SnapshotError("bank snapshot: unknown state " +
                                      std::to_string(state));
    unit.restoreState(c, v);
    bankState = static_cast<BankState>(state);
}

} // namespace core
} // namespace react
