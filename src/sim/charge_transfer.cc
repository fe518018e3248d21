#include "charge_transfer.hh"

#include <algorithm>

namespace react {
namespace sim {

Joules
equalizeParallel(Capacitor &a, Capacitor &b)
{
    const Farads c1 = a.capacitance();
    const Farads c2 = b.capacitance();
    const Coulombs q_total = a.charge() + b.charge();
    const Joules e_before = a.energy() + b.energy();
    const Volts v_final = q_total / (c1 + c2);
    a.setVoltage(v_final);
    b.setVoltage(v_final);
    const Joules e_after = a.energy() + b.energy();
    return std::max(e_before - e_after, Joules(0.0));
}

} // namespace sim
} // namespace react
