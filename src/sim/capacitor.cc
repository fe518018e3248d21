#include "capacitor.hh"

#include <cmath>
#include <limits>

#include "sim/hotloop_stats.hh"
#include "snapshot/snapshot.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace react {
namespace sim {

Ohms
CapacitorSpec::leakResistance() const
{
    if (leakageCurrentAtRated <= Amps(0))
        return Ohms(std::numeric_limits<double>::infinity());
    return ratedVoltage / leakageCurrentAtRated;
}

Capacitor::Capacitor(const CapacitorSpec &spec, Volts initial_voltage)
    : partSpec(spec), v(initial_voltage)
{
    react_assert(spec.capacitance > Farads(0),
                 "capacitance must be positive");
    react_assert(initial_voltage >= Volts(0),
                 "initial voltage must be >= 0");
    rebuildLeakCache();
}

void
Capacitor::rebuildLeakCache()
{
    const Ohms r = partSpec.leakResistance();
    leakTauFinite = units::isfinite(r);
    leakTau = leakTauFinite ? r * partSpec.capacitance : Seconds(0.0);
    cachedLeakDt = Seconds(-1.0);
    cachedLeakDecay = 1.0;
}

void
Capacitor::setVoltage(Volts voltage)
{
    react_assert(voltage >= Volts(0), "capacitor voltage must be >= 0");
    v = voltage;
}

Joules
Capacitor::setCapacitance(Farads capacitance)
{
    react_assert(capacitance > Farads(0), "capacitance must be positive");
    const Joules before = energy();
    partSpec.capacitance = capacitance;
    rebuildLeakCache();
    return before - energy();
}

void
Capacitor::save(snapshot::SnapshotWriter &w) const
{
    w.f64(partSpec.capacitance.raw());
    w.f64(v.raw());
}

void
Capacitor::restore(snapshot::SnapshotReader &r)
{
    const Farads capacitance(r.f64());
    restoreState(capacitance, Volts(r.f64()));
}

void
Capacitor::restoreState(Farads capacitance, Volts voltage)
{
    if (!units::isfinite(capacitance) || capacitance <= Farads(0))
        throw snapshot::SnapshotError("capacitor snapshot: bad capacitance");
    if (!units::isfinite(voltage) || voltage < Volts(0))
        throw snapshot::SnapshotError("capacitor snapshot: bad voltage");
    partSpec.capacitance = capacitance;
    v = voltage;
    rebuildLeakCache();
}

} // namespace sim
} // namespace react
