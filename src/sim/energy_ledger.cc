#include "energy_ledger.hh"

#include "util/byte_codec.hh"

namespace react {
namespace sim {

Joules
EnergyLedger::totalLoss() const
{
    return clipped + leaked + switchLoss + diodeLoss + overhead + faultLoss;
}

Joules
EnergyLedger::totalOut() const
{
    return delivered + totalLoss();
}

double
EnergyLedger::efficiency() const
{
    return harvested > Joules(0) ? delivered / harvested : 0.0;
}

Joules
EnergyLedger::conservationError(Joules stored_delta) const
{
    return harvested - delivered - totalLoss() - stored_delta;
}

EnergyLedger &
EnergyLedger::operator+=(const EnergyLedger &other)
{
    harvested += other.harvested;
    delivered += other.delivered;
    clipped += other.clipped;
    leaked += other.leaked;
    switchLoss += other.switchLoss;
    diodeLoss += other.diodeLoss;
    overhead += other.overhead;
    faultLoss += other.faultLoss;
    return *this;
}

EnergyLedger
operator+(EnergyLedger lhs, const EnergyLedger &rhs)
{
    lhs += rhs;
    return lhs;
}

void
EnergyLedger::save(ByteWriter &w) const
{
    w.f64(harvested.raw());
    w.f64(delivered.raw());
    w.f64(clipped.raw());
    w.f64(leaked.raw());
    w.f64(switchLoss.raw());
    w.f64(diodeLoss.raw());
    w.f64(overhead.raw());
    w.f64(faultLoss.raw());
}

void
EnergyLedger::restore(ByteReader &r)
{
    harvested = Joules(r.f64());
    delivered = Joules(r.f64());
    clipped = Joules(r.f64());
    leaked = Joules(r.f64());
    switchLoss = Joules(r.f64());
    diodeLoss = Joules(r.f64());
    overhead = Joules(r.f64());
    faultLoss = Joules(r.f64());
}

} // namespace sim
} // namespace react
