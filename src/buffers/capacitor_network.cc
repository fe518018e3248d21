#include "capacitor_network.hh"

#include <algorithm>
#include <cmath>

#include "snapshot/snapshot.hh"
#include "util/logging.hh"

namespace react {
namespace buffer {

Farads
NetworkConfig::equivalentCapacitance(Farads unit_capacitance) const
{
    Farads total{0.0};
    for (const auto &branch : branches) {
        if (!branch.empty())
            total += unit_capacitance / static_cast<double>(branch.size());
    }
    return total;
}

CapacitorNetwork::CapacitorNetwork(int unit_count,
                                   const sim::CapacitorSpec &unit_spec)
{
    react_assert(unit_count > 0, "network needs at least one unit");
    units.reserve(static_cast<size_t>(unit_count));
    for (int i = 0; i < unit_count; ++i)
        units.emplace_back(unit_spec);
    unitClass.assign(units.size(), -1);
    // Worst case every unit is connected (uniqueness is asserted), so
    // reserving to the pool size makes every later recompilation
    // allocation-free.
    flatUnits.reserve(units.size());
    branchOffsets.reserve(units.size() + 1);
    classSizes.reserve(units.size());
    branchCaps.reserve(units.size());
    classCaps.reserve(units.size());
    branchOffsets.push_back(0);
    chargeSteps.resize(units.size() * kMaxOutputCharges);
}

Volts
CapacitorNetwork::unitVoltage(int index) const
{
    return units.at(static_cast<size_t>(index)).voltage();
}

void
CapacitorNetwork::setUnitVoltage(int index, Volts voltage)
{
    units.at(static_cast<size_t>(index)).setVoltage(voltage);
}

Joules
CapacitorNetwork::equalizeConnected()
{
    if (branchCaps.empty())
        return Joules(0.0);

    // Parallel equalization: the common terminal voltage conserves total
    // branch charge, V_f = sum(Q_br) / sum(C_br).
    Coulombs q_total{0.0};
    Farads c_total{0.0};
    for (std::size_t b = 0; b < branchCaps.size(); ++b) {
        q_total += branchCaps[b] * flatBranchVoltage(b);
        c_total += branchCaps[b];
    }
    const Volts v_final = std::max(q_total / c_total, Volts(0.0));

    const Joules e_before = connectedEnergy();
    for (std::size_t b = 0; b < branchCaps.size(); ++b) {
        const Coulombs dq = branchCaps[b] * (v_final - flatBranchVoltage(b));
        // Series chains carry the same charge through every member.
        const int32_t end = branchOffsets[b + 1];
        for (int32_t k = branchOffsets[b]; k < end; ++k)
            units[static_cast<size_t>(flatUnits[static_cast<size_t>(k)])]
                .addCharge(dq);
    }
    const Joules e_after = connectedEnergy();
    return std::max(e_before - e_after, Joules(0.0));
}

void
CapacitorNetwork::adoptConfig(const NetworkConfig &next)
{
    // Validate (indices in range, no duplicates) while rebuilding the
    // unit -> size-class map in place; the map doubles as the "seen" set
    // so reconfiguration needs no temporary container.  The same pass
    // compiles the flattened step state; clear() keeps the construction
    // -time capacity, so no allocation happens here either.
    std::fill(unitClass.begin(), unitClass.end(), -1);
    flatUnits.clear();
    branchOffsets.clear();
    classSizes.clear();
    branchOffsets.push_back(0);
    for (const auto &branch : next.branches) {
        react_assert(!branch.empty(), "network config has an empty branch");
        const auto size = static_cast<int32_t>(branch.size());
        const auto found =
            std::find(classSizes.begin(), classSizes.end(), size);
        const auto k = static_cast<int32_t>(found - classSizes.begin());
        if (found == classSizes.end())
            classSizes.push_back(size);
        for (int idx : branch) {
            react_assert(idx >= 0 && idx < unitCount(),
                         "network config index %d out of range", idx);
            int32_t &slot = unitClass[static_cast<size_t>(idx)];
            react_assert(slot < 0,
                         "unit %d appears twice in network config", idx);
            slot = k;
            flatUnits.push_back(static_cast<int32_t>(idx));
        }
        branchOffsets.push_back(static_cast<int32_t>(flatUnits.size()));
    }
    rebuildValueCaches();
}

void
CapacitorNetwork::rebuildValueCaches()
{
    // unit_cap / branch_size per branch, summed in branch order: the
    // exact operation sequence of NetworkConfig::equivalentCapacitance().
    const Farads unit_cap = units[0].capacitance();
    branchCaps.clear();
    eqCap = Farads(0.0);
    for (std::size_t b = 0; b + 1 < branchOffsets.size(); ++b) {
        const auto size =
            static_cast<double>(branchOffsets[b + 1] - branchOffsets[b]);
        branchCaps.push_back(unit_cap / size);
        eqCap += branchCaps.back();
    }
    classCaps.clear();
    for (int32_t size : classSizes)
        classCaps.push_back(unit_cap / static_cast<double>(size));
}

Joules
CapacitorNetwork::reconfigure(const NetworkConfig &next)
{
    adoptConfig(next);
    return equalizeConnected();
}

void
CapacitorNetwork::restoreArrangement(const NetworkConfig &next)
{
    adoptConfig(next);
}

void
CapacitorNetwork::save(snapshot::SnapshotWriter &w) const
{
    w.u32(static_cast<uint32_t>(units.size()));
    for (const auto &unit : units)
        unit.save(w);
}

void
CapacitorNetwork::restore(snapshot::SnapshotReader &r)
{
    const uint32_t count = r.u32();
    if (count != units.size())
        throw snapshot::SnapshotError(
            "capacitor-network snapshot unit count mismatch");
    // Read every unit before adopting any, so a rejected image leaves
    // the network untouched.  The units must share one capacitance: the
    // per-branch charge step divides by it once for all members.
    std::vector<Farads> caps(units.size());
    std::vector<Volts> volts(units.size());
    for (std::size_t i = 0; i < units.size(); ++i) {
        caps[i] = Farads(r.f64());
        volts[i] = Volts(r.f64());
        if (!units::isfinite(caps[i]) || caps[i] <= Farads(0))
            throw snapshot::SnapshotError(
                "capacitor-network snapshot: bad unit capacitance");
        if (!units::isfinite(volts[i]) || volts[i] < Volts(0))
            throw snapshot::SnapshotError(
                "capacitor-network snapshot: bad unit voltage");
        if (caps[i] != caps[0])
            throw snapshot::SnapshotError(
                "capacitor-network snapshot: unit capacitances differ");
    }
    for (std::size_t i = 0; i < units.size(); ++i)
        units[i].restoreState(caps[i], volts[i]);
    rebuildValueCaches();
}

} // namespace buffer
} // namespace react
