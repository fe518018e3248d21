/**
 * @file
 * Fully-interconnected switched-capacitor network (the Morphy [49]
 * architecture REACT is compared against).
 *
 * The network holds a pool of identical unit capacitors that software
 * arranges into an arbitrary set of parallel *branches*, each branch a
 * series chain of units; unassigned units are disconnected but retain
 * charge.  All connected branches share the output node, so between
 * reconfigurations the network behaves as a single equivalent capacitor.
 *
 * The crucial physics lives in reconfigure(): when the new arrangement
 * places branches with different terminal voltages in parallel, charge
 * rushes through the switches to equalize them and the difference in
 * stored energy is dissipated as heat (the paper's Fig. 5; 25 % of stored
 * energy for the 4-cap example, 56.25 % for the 8-cap one -- both
 * reproduced by unit tests).  This loss is what REACT's bank isolation
 * eliminates.
 */

#ifndef REACT_BUFFERS_CAPACITOR_NETWORK_HH
#define REACT_BUFFERS_CAPACITOR_NETWORK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/capacitor.hh"
#include "util/units.hh"

namespace react {
namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}
namespace buffer {

using units::Coulombs;
using units::Farads;
using units::Joules;
using units::Seconds;
using units::Volts;

/** One network arrangement: parallel branches of series unit indices. */
struct NetworkConfig
{
    /** Each inner vector lists the unit-capacitor indices of one series
     *  chain; chains are connected in parallel at the output node. */
    std::vector<std::vector<int>> branches;

    /** Equivalent capacitance of the arrangement for the given unit size. */
    Farads equivalentCapacitance(Farads unit_capacitance) const;
};

/** Pool of unit capacitors under software-defined arrangement. */
class CapacitorNetwork
{
  public:
    /**
     * @param unit_count Number of identical unit capacitors.
     * @param unit_spec Part parameters of each unit.
     */
    CapacitorNetwork(int unit_count, const sim::CapacitorSpec &unit_spec);

    /** Number of unit capacitors in the pool. */
    int unitCount() const { return static_cast<int>(units.size()); }

    /** Voltage of one unit capacitor. */
    Volts unitVoltage(int index) const;

    /** Directly set one unit's voltage (testing / initialization). */
    void setUnitVoltage(int index, Volts voltage);

    /** Equivalent capacitance of the connected arrangement (0 if none). */
    Farads equivalentCapacitance() const { return eqCap; }

    /** Output-node voltage (terminal voltage of the connected branches;
     *  0 when nothing is connected). */
    Volts outputVoltage() const;

    /** Total energy stored on all units (connected or not). */
    Joules storedEnergy() const;

    /** Energy stored on connected units only. */
    Joules connectedEnergy() const;

    /**
     * Rearrange the network.  Branches at differing terminal voltages
     * equalize through the interconnect, dissipating energy.  The
     * arrangement is compiled into the network's reserved step arrays
     * and not retained, so this allocates nothing and @p next may be
     * discarded afterwards.
     *
     * @param next New arrangement (indices must be valid and unique).
     * @return Energy dissipated by charge sharing (>= 0).
     */
    Joules reconfigure(const NetworkConfig &next);

    /**
     * Add signed charge at the output node, distributed across connected
     * branches so all terminal voltages move together (parallel physics).
     * No-op when nothing is connected.
     *
     * @param dq Charge (negative discharges).
     */
    void addChargeAtOutput(Coulombs dq);

    /** Apply self-discharge to every unit; returns energy leaked. */
    Joules leak(Seconds dt);

    /**
     * Clamp the output node to the given ceiling; the excess is burned.
     * Disconnected units clamp to their own rated voltage.
     *
     * @return Energy clipped.
     */
    Joules clipOutput(Volts ceiling);

    /**
     * Adopt an arrangement *without* equalizing the branches.  Snapshot
     * restore only: reconfigure() models physical charge sharing, which
     * would corrupt unit voltages that were already captured in the
     * equalized state.  Like reconfigure(), keeps no reference to
     * @p next.
     */
    void restoreArrangement(const NetworkConfig &next);

    /** Serialize per-unit capacitor state (capacitance + voltage).  The
     *  arrangement is *not* serialized -- the owner restores it via
     *  restoreArrangement() from its own config ladder. */
    void save(snapshot::SnapshotWriter &w) const;
    void restore(snapshot::SnapshotReader &r);

  private:
    /** Terminal voltage of one compiled branch (sum of member unit
     *  voltages, in config order). */
    Volts flatBranchVoltage(std::size_t b) const;

    /** Equalize all connected branches to a common terminal voltage;
     *  returns the energy dissipated. */
    Joules equalizeConnected();

    /** Validate an arrangement, rebuild connectedFlags, and compile the
     *  flattened step state from it. */
    void adoptConfig(const NetworkConfig &next);

    std::vector<sim::Capacitor> units;

    /** Per-unit connected flag, maintained by adoptConfig(); lets the
     *  per-step clip pass skip the old std::set rebuild (the engine's
     *  last per-step heap allocation). */
    std::vector<uint8_t> connectedFlags;

    /**
     * @name Flattened step state (compiled at adoptConfig() time)
     *
     * The per-step passes used to walk the arrangement's nested
     * vector<vector<int>> -- a pointer chase per branch, per step.
     * adoptConfig() instead compiles the arrangement once into three
     * contiguous arrays so every pass is a linear sweep: the connected
     * unit indices in branch-major config order, the half-open span of
     * branch b in that array, and each branch's member count as the
     * double the series-capacitance division consumes.  Capacity is
     * reserved to the unit count at construction (each unit appears at
     * most once), so recompilation never allocates.  Iteration order and
     * arithmetic match the nested walk exactly; results stay
     * bit-identical.
     * @{
     */
    std::vector<int32_t> flatUnits;
    /** branchSizes.size() + 1 offsets into flatUnits. */
    std::vector<int32_t> branchOffsets;
    std::vector<double> branchSizes;
    /**
     * Equivalent capacitance of the compiled arrangement.  A value
     * cache rebuilt where its operands change -- adoptConfig() for the
     * arrangement, restore() for the unit capacitance -- so the several
     * reads per Morphy step are a load, not a division per branch.
     */
    Farads eqCap{0.0};
    /** @} */

    /** Recompute eqCap from branchSizes and the unit capacitance. */
    void rebuildEqCap();

  public:
    /** Not copyable: nothing copies a network, and a copy would drop the
     *  full-pool reserve that keeps recompilation allocation-free. */
    CapacitorNetwork(const CapacitorNetwork &) = delete;
    CapacitorNetwork &operator=(const CapacitorNetwork &) = delete;
};

// Per-step passes, inline so they fold into the owning buffer's step():
// Morphy touches the network several times per engine step (leak, the
// standing-balance equalization, input/load routing, clip), and the
// cross-TU call overhead of these sweeps dominated its step cost.

inline Volts
CapacitorNetwork::flatBranchVoltage(std::size_t b) const
{
    Volts v{0.0};
    const int32_t end = branchOffsets[b + 1];
    for (int32_t k = branchOffsets[b]; k < end; ++k)
        v += units[static_cast<size_t>(flatUnits[static_cast<size_t>(k)])]
                 .voltage();
    return v;
}

inline Volts
CapacitorNetwork::outputVoltage() const
{
    // Between reconfigurations the connected branches stay equalized, so
    // any branch's terminal voltage is the node voltage.
    if (branchSizes.empty())
        return Volts(0.0);
    return flatBranchVoltage(0);
}

inline Joules
CapacitorNetwork::storedEnergy() const
{
    Joules e{0.0};
    for (const auto &unit : units)
        e += unit.energy();
    return e;
}

inline Joules
CapacitorNetwork::connectedEnergy() const
{
    // Linear sweep: flatUnits lists the connected units in the same
    // branch-major order the nested walk visited them.
    Joules e{0.0};
    for (int32_t idx : flatUnits)
        e += units[static_cast<size_t>(idx)].energy();
    return e;
}

inline void
CapacitorNetwork::addChargeAtOutput(Coulombs dq)
{
    if (branchSizes.empty())
        return;
    const Farads c_eq = equivalentCapacitance();
    const Volts dv = dq / c_eq;
    const Farads unit_cap = units[0].capacitance();
    for (std::size_t b = 0; b < branchSizes.size(); ++b) {
        const Coulombs dq_br = unit_cap / branchSizes[b] * dv;
        const int32_t end = branchOffsets[b + 1];
        for (int32_t k = branchOffsets[b]; k < end; ++k)
            units[static_cast<size_t>(flatUnits[static_cast<size_t>(k)])]
                .addCharge(dq_br);
    }
}

inline Joules
CapacitorNetwork::leak(Seconds dt)
{
    Joules lost{0.0};
    for (auto &unit : units)
        lost += unit.leak(dt);
    // Leakage perturbs series-chain balance only within a chain (all units
    // decay by the same factor, so equal units stay equal); connected
    // branches may drift apart slightly, which the next equalization
    // charges back -- physically this is the standing balancing current.
    return lost;
}

inline Joules
CapacitorNetwork::clipOutput(Volts ceiling)
{
    Joules clipped{0.0};
    const Volts v_out = outputVoltage();
    if (!branchSizes.empty() && v_out > ceiling) {
        const Joules e_before = connectedEnergy();
        addChargeAtOutput(equivalentCapacitance() * (ceiling - v_out));
        clipped += e_before - connectedEnergy();
    }
    // Disconnected units are bounded only by their rating; the flags are
    // maintained by adoptConfig() so this pass allocates nothing per step.
    for (int i = 0; i < unitCount(); ++i) {
        if (!connectedFlags[static_cast<size_t>(i)])
            clipped += units[static_cast<size_t>(i)].clip();
    }
    return clipped;
}

} // namespace buffer
} // namespace react

#endif // REACT_BUFFERS_CAPACITOR_NETWORK_HH
