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
    connectedFlags.assign(units.size(), 0);
    // Worst case every unit is connected (uniqueness is asserted), so
    // reserving to the pool size makes every later recompilation
    // allocation-free.
    flatUnits.reserve(units.size());
    branchOffsets.reserve(units.size() + 1);
    branchSizes.reserve(units.size());
    branchOffsets.push_back(0);
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
    if (branchSizes.empty())
        return Joules(0.0);

    // Parallel equalization: the common terminal voltage conserves total
    // branch charge, V_f = sum(Q_br) / sum(C_br).
    const Farads unit_cap = units[0].capacitance();
    Coulombs q_total{0.0};
    Farads c_total{0.0};
    for (std::size_t b = 0; b < branchSizes.size(); ++b) {
        const Farads c_br = unit_cap / branchSizes[b];
        q_total += c_br * flatBranchVoltage(b);
        c_total += c_br;
    }
    const Volts v_final = std::max(q_total / c_total, Volts(0.0));

    const Joules e_before = connectedEnergy();
    for (std::size_t b = 0; b < branchSizes.size(); ++b) {
        const Farads c_br = unit_cap / branchSizes[b];
        const Coulombs dq = c_br * (v_final - flatBranchVoltage(b));
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
    // connected-unit flags in place; the flags double as the "seen" set so
    // reconfiguration needs no temporary container.  The same pass
    // compiles the flattened step state; clear() keeps the construction
    // -time capacity, so no allocation happens here either.
    std::fill(connectedFlags.begin(), connectedFlags.end(),
              static_cast<uint8_t>(0));
    flatUnits.clear();
    branchOffsets.clear();
    branchSizes.clear();
    branchOffsets.push_back(0);
    for (const auto &branch : next.branches) {
        react_assert(!branch.empty(), "network config has an empty branch");
        for (int idx : branch) {
            react_assert(idx >= 0 && idx < unitCount(),
                         "network config index %d out of range", idx);
            uint8_t &flag = connectedFlags[static_cast<size_t>(idx)];
            react_assert(flag == 0,
                         "unit %d appears twice in network config", idx);
            flag = 1;
            flatUnits.push_back(static_cast<int32_t>(idx));
        }
        branchOffsets.push_back(static_cast<int32_t>(flatUnits.size()));
        branchSizes.push_back(static_cast<double>(branch.size()));
    }
    rebuildEqCap();
}

void
CapacitorNetwork::rebuildEqCap()
{
    // Sum of unit_cap / branch_size in branch order: the exact operation
    // sequence of NetworkConfig::equivalentCapacitance().
    const Farads unit_cap = units[0].capacitance();
    eqCap = Farads(0.0);
    for (double size : branchSizes)
        eqCap += unit_cap / size;
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
    for (auto &unit : units)
        unit.restore(r);
    rebuildEqCap();
}

} // namespace buffer
} // namespace react
