#include "diode.hh"

#include <cmath>

#include "util/logging.hh"

namespace react {
namespace sim {

Watts
Diode::conductionPower(Amps current) const
{
    if (current <= Amps(0))
        return Watts(0.0);
    return forwardDrop(current) * current;
}

IdealDiode::IdealDiode(Ohms on_resistance, Watts quiescent_power)
    : rOn(on_resistance), quiescent(quiescent_power)
{
    react_assert(on_resistance >= Ohms(0), "on-resistance must be >= 0");
    react_assert(quiescent >= Watts(0), "quiescent power must be >= 0");
}

Volts
IdealDiode::forwardDrop(Amps current) const
{
    if (current <= Amps(0))
        return Volts(0.0);
    return current * rOn;
}

SchottkyDiode::SchottkyDiode(Amps saturation_current, double ideality,
                             Volts thermal_voltage)
    : iSat(saturation_current), n(ideality), vt(thermal_voltage)
{
    react_assert(saturation_current > Amps(0),
                 "saturation current must be positive");
    react_assert(ideality > 0.0 && thermal_voltage > Volts(0),
                 "diode parameters must be positive");
}

Volts
SchottkyDiode::forwardDrop(Amps current) const
{
    if (current <= Amps(0))
        return Volts(0.0);
    return n * vt * std::log1p(current / iSat);
}

} // namespace sim
} // namespace react
