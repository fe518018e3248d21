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

    /**
     * The one-sweep form of a run of addChargeAtOutput(dq[p]) calls,
     * each followed by storedEnergy(), for p in [0, count).  One pass
     * over the units in index order applies every charge to each
     * connected unit in turn and adds the unit's energy to that
     * charge's sum; a disconnected unit adds its unchanged energy to
     * every sum.  @p stored_after[p] receives the storedEnergy() the
     * p-th call would have left, bit for bit: each unit sees the same
     * voltage steps in the same order, and each sum adds the same unit
     * energies in the same order.  The scratch space is sized at
     * construction, so this allocates nothing.
     *
     * @param dq Output-node charges, applied in order.
     * @param count Number of charges, at most kMaxOutputCharges.
     * @param stored_after Stored energy after each charge (count slots).
     */
    void addChargesAtOutput(const Coulombs *dq, int count,
                            Joules *stored_after);

    /** Most charges one addChargesAtOutput() call applies. */
    static constexpr int kMaxOutputCharges = 4;

    /** What leak() lost, and the storedEnergy() it left. */
    struct LeakResult
    {
        Joules lost{0.0};
        Joules stored{0.0};
    };

    /** Apply self-discharge to every unit; returns the energy leaked
     *  and the stored energy left, summed in one pass. */
    LeakResult leak(Seconds dt);

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

    /** Validate an arrangement and compile the flattened step state and
     *  the unit -> branch map from it. */
    void adoptConfig(const NetworkConfig &next);

    /** Recompute the value caches (branchCaps, classCaps, eqCap) from
     *  the compiled arrangement and the unit capacitance. */
    void rebuildValueCaches();

    /**
     * Voltage step every member of a branch of series capacitance
     * @p series_cap takes for an output charge that moves the node by
     * @p dv: the branch's charge over the unit capacitance, which is
     * addCharge()'s division, done once per branch -- or once per size
     * class, since equal-size branches take the same step.  Exact for
     * every member because all units share one capacitance (restore()
     * rejects a checkpoint where they do not).
     */
    Volts seriesStep(Farads series_cap, Volts dv) const
    {
        return series_cap * dv / units[0].capacitance();
    }

    std::vector<sim::Capacitor> units;

    /**
     * @name Flattened step state (compiled at adoptConfig() time)
     *
     * adoptConfig() compiles the arrangement into contiguous arrays so
     * every pass is a linear sweep: the connected unit indices in
     * branch-major config order, the half-open span of branch b in that
     * array, the distinct branch sizes, and each unit's size class (its
     * branch's index into classSizes, -1 when disconnected; the clip
     * pass and the one-sweep charge pass read it in index order).
     * Capacity is reserved to the unit count at construction (each unit
     * appears at most once), so recompilation never allocates.
     * Iteration order and arithmetic match a walk of the nested config
     * exactly; results stay bit-identical.
     * @{
     */
    std::vector<int32_t> flatUnits;
    /** branchCaps.size() + 1 offsets into flatUnits. */
    std::vector<int32_t> branchOffsets;
    std::vector<int32_t> classSizes;
    std::vector<int32_t> unitClass;
    /** @} */

    /**
     * @name Value caches
     *
     * Rebuilt where their operands change -- adoptConfig() for the
     * arrangement, restore() for the unit capacitance -- so the reads
     * on every Morphy step are loads, not divisions.  Each holds the
     * value of the expression it replaces, evaluated the same way.
     * @{
     */
    /** Series capacitance of each branch: unit_cap / member count. */
    std::vector<Farads> branchCaps;
    /** The same per size class: unit_cap / classSizes[k]. */
    std::vector<Farads> classCaps;
    /** Equivalent capacitance: the branchCaps summed in branch order,
     *  the operation sequence of NetworkConfig::equivalentCapacitance(). */
    Farads eqCap{0.0};
    /** @} */

    /** addChargesAtOutput() scratch: each size class's step for each
     *  charge, class-major (kMaxOutputCharges per class).  Sized at
     *  construction. */
    std::vector<Volts> chargeSteps;

  public:
    /** Not copyable: nothing copies a network, and a copy would drop the
     *  full-pool reserve that keeps recompilation allocation-free. */
    CapacitorNetwork(const CapacitorNetwork &) = delete;
    CapacitorNetwork &operator=(const CapacitorNetwork &) = delete;
};

// Per-step passes, inline so they fold into the owning buffer's step():
// Morphy touches the network on every engine step (leak, the one-sweep
// charge pass, clip), and the cross-TU call overhead of these sweeps
// dominated its step cost.

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
    if (branchCaps.empty())
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
    if (branchCaps.empty())
        return;
    const Volts dv = dq / eqCap;
    for (std::size_t b = 0; b < branchCaps.size(); ++b) {
        const Volts step = seriesStep(branchCaps[b], dv);
        const int32_t end = branchOffsets[b + 1];
        for (int32_t k = branchOffsets[b]; k < end; ++k)
            units[static_cast<size_t>(flatUnits[static_cast<size_t>(k)])]
                .shiftVoltage(step);
    }
}

inline void
CapacitorNetwork::addChargesAtOutput(const Coulombs *dq, int count,
                                     Joules *stored_after)
{
    const auto n = static_cast<std::size_t>(count);
    if (!branchCaps.empty()) {
        for (std::size_t p = 0; p < n; ++p) {
            const Volts dv = dq[p] / eqCap;
            for (std::size_t k = 0; k < classCaps.size(); ++k)
                chargeSteps[k * kMaxOutputCharges + p] =
                    seriesStep(classCaps[k], dv);
        }
    }
    Joules sums[kMaxOutputCharges] = {};
    for (std::size_t i = 0; i < units.size(); ++i) {
        sim::Capacitor &unit = units[i];
        const int32_t k = unitClass[i];
        if (k < 0) {
            const Joules e = unit.energy();
            for (std::size_t p = 0; p < n; ++p)
                sums[p] += e;
            continue;
        }
        const Volts *step =
            &chargeSteps[static_cast<std::size_t>(k) * kMaxOutputCharges];
        for (std::size_t p = 0; p < n; ++p) {
            unit.shiftVoltage(step[p]);
            sums[p] += unit.energy();
        }
    }
    for (std::size_t p = 0; p < n; ++p)
        stored_after[p] = sums[p];
}

inline CapacitorNetwork::LeakResult
CapacitorNetwork::leak(Seconds dt)
{
    LeakResult r;
    for (auto &unit : units) {
        r.lost += unit.leak(dt);
        r.stored += unit.energy();
    }
    // Leakage perturbs series-chain balance only within a chain (all units
    // decay by the same factor, so equal units stay equal); connected
    // branches may drift apart slightly, which the next equalization
    // charges back -- physically this is the standing balancing current.
    return r;
}

inline Joules
CapacitorNetwork::clipOutput(Volts ceiling)
{
    Joules clipped{0.0};
    const Volts v_out = outputVoltage();
    if (!branchCaps.empty() && v_out > ceiling) {
        const Joules e_before = connectedEnergy();
        addChargeAtOutput(equivalentCapacitance() * (ceiling - v_out));
        clipped += e_before - connectedEnergy();
    }
    // Disconnected units are bounded only by their rating; the map is
    // maintained by adoptConfig() so this pass allocates nothing per step.
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (unitClass[i] < 0)
            clipped += units[i].clip();
    }
    return clipped;
}

} // namespace buffer
} // namespace react

#endif // REACT_BUFFERS_CAPACITOR_NETWORK_HH
