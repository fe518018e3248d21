#include "static_buffer.hh"

#include <cstdio>

#include "sim/charge_transfer.hh"
#include "sim/fault_injector.hh"
#include "snapshot/snapshot.hh"
#include "util/logging.hh"

namespace react {
namespace buffer {

namespace {

std::string
defaultName(Farads capacitance)
{
    char buf[32];
    if (capacitance >= Farads(1e-3))
        std::snprintf(buf, sizeof(buf), "%.0fmF", capacitance.raw() * 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0fuF", capacitance.raw() * 1e6);
    return buf;
}

} // namespace

StaticBuffer::StaticBuffer(const sim::CapacitorSpec &spec, Volts rail_clamp,
                           std::string display_name)
    : cap(spec), clamp(rail_clamp),
      label(display_name.empty() ? defaultName(spec.capacitance)
                                 : std::move(display_name)),
      baseCapacitance(spec.capacitance)
{
    react_assert(rail_clamp > Volts(0), "rail clamp must be positive");
    react_assert(rail_clamp <= spec.ratedVoltage,
                 "rail clamp cannot exceed the capacitor rating");
}

void
StaticBuffer::ageDielectric(Seconds dt)
{
    // 10 Hz update cadence vastly oversamples hour-scale fade.
    agingAccumulator += dt;
    if (agingAccumulator >= Seconds(0.1)) {
        agingAccumulator = Seconds(0.0);
        energyLedger.faultLoss += cap.setCapacitance(
            baseCapacitance * faults->capacitanceFactor("static.cap"));
    }
}

void
StaticBuffer::step(Seconds dt, Watts input_power, Amps load_current)
{
    // 0. Dielectric aging (fault injection only).
    if (faults != nullptr &&
        faults->plan().capacitanceFadePerHour > 0.0)
        ageDielectric(dt);

    // 1. Self-discharge.
    energyLedger.leaked += cap.leak(dt);

    // 2. Harvested input (direct connection, no input diode).
    const Joules e_before_in = cap.energy();
    sim::chargeFromPower(cap, input_power, dt);
    energyLedger.harvested += cap.energy() - e_before_in;

    // 3. Backend load.
    if (load_current > Amps(0)) {
        const Joules e_before_load = cap.energy();
        cap.applyCurrent(-load_current, dt);
        energyLedger.delivered += e_before_load - cap.energy();
    }

    // 4. Overvoltage protection.
    energyLedger.clipped += cap.clip(clamp);
}

Volts
StaticBuffer::railVoltage() const
{
    return cap.voltage();
}

Joules
StaticBuffer::storedEnergy() const
{
    return cap.energy();
}

Farads
StaticBuffer::equivalentCapacitance() const
{
    return cap.capacitance();
}

void
StaticBuffer::reset()
{
    cap.setVoltage(Volts(0.0));
    agingAccumulator = Seconds(0.0);
    energyLedger = sim::EnergyLedger();
}

void
StaticBuffer::save(snapshot::SnapshotWriter &w) const
{
    EnergyBuffer::save(w);
    cap.save(w);
    w.f64(agingAccumulator.raw());
}

void
StaticBuffer::restore(snapshot::SnapshotReader &r)
{
    EnergyBuffer::restore(r);
    cap.restore(r);
    agingAccumulator = Seconds(r.f64());
}

} // namespace buffer
} // namespace react
