#include "morphy_buffer.hh"

#include <algorithm>

#include "sim/charge_transfer.hh"
#include "sim/fault_injector.hh"
#include "snapshot/snapshot.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace react {
namespace buffer {

namespace {

/**
 * Build the 11-configuration ladder used by the paper's Morphy
 * implementation: the seven reconfigurable units are regrouped into
 * parallel combinations of series chains, ordered by ascending
 * equivalent capacitance.  Each transition regroups chains -- placing
 * branch terminals at different potentials in parallel -- which is
 * exactly the dissipative charge sharing of Fig. 5 that REACT's bank
 * isolation avoids.  Units not referenced by a configuration are
 * disconnected (retaining charge).
 */
std::vector<NetworkConfig>
buildLadder(int unit_count)
{
    react_assert(unit_count == 7,
                 "the paper's Morphy ladder is defined for 7 units");
    auto cfg = [](std::vector<std::vector<int>> branches) {
        NetworkConfig c;
        c.branches = std::move(branches);
        return c;
    };
    std::vector<NetworkConfig> ladder;
    // Equivalent capacitances below include the 250 uF task capacitor.
    ladder.push_back(cfg({}));                          // 0.25 mF
    ladder.push_back(cfg({{0, 1, 2, 3, 4, 5, 6}}));     // 0.54 mF (7s)
    ladder.push_back(cfg({{0, 1, 2, 3}, {4, 5, 6}}));   // 1.42 mF (4s|3s)
    ladder.push_back(cfg({{0, 1, 2, 3, 4}, {5, 6}}));   // 1.65 mF (5s|2s)
    ladder.push_back(cfg({{0, 1, 2}, {3, 4}, {5, 6}})); // 2.92 mF
    ladder.push_back(cfg({{0, 1}, {2, 3}, {4, 5}}));    // 3.25 mF
    ladder.push_back(cfg({{0, 1}, {2, 3}, {4, 5}, {6}}));   // 5.25 mF
    ladder.push_back(cfg({{0, 1}, {2, 3}, {4}, {5}, {6}})); // 7.25 mF
    ladder.push_back(cfg({{0, 1}, {2}, {3}, {4}, {5}, {6}})); // 11.25 mF
    ladder.push_back(cfg({{0}, {1}, {2}, {3}, {4}, {5}}));  // 12.25 mF
    ladder.push_back(cfg({{0}, {1}, {2}, {3}, {4}, {5}, {6}})); // 14.25 mF
    return ladder;
}

} // namespace

MorphyBuffer::MorphyBuffer(const MorphyParams &morphy_params)
    : params(morphy_params), task(morphy_params.taskCap),
      network(morphy_params.unitCount, morphy_params.unitCap),
      configs(buildLadder(morphy_params.unitCount)),
      pollPeriod(1.0 / morphy_params.pollRateHz)
{
    react_assert(params.vHigh > params.vLow, "thresholds must be ordered");
    react_assert(params.railClamp >= params.vHigh,
                 "clamp must sit at or above the overvoltage threshold");
}

Volts
MorphyBuffer::railVoltage() const
{
    return task.voltage();
}

Joules
MorphyBuffer::storedEnergy() const
{
    return task.energy() + network.storedEnergy();
}

Farads
MorphyBuffer::equivalentCapacitance() const
{
    return task.capacitance() + network.equivalentCapacitance();
}

int
MorphyBuffer::maxCapacitanceLevel() const
{
    return static_cast<int>(configs.size()) - 1;
}

void
MorphyBuffer::requestMinLevel(int level)
{
    requestedLevel = std::clamp(level, 0, maxCapacitanceLevel());
}

bool
MorphyBuffer::levelSatisfied() const
{
    if (requestedLevel <= 0)
        return true;
    // Same stale-surrogate caveat as REACT: the ladder index guarantees
    // stored energy only while the buffer is near-full at that index.
    return configIndex >= requestedLevel &&
        railVoltage() >= params.vHigh;
}

Joules
MorphyBuffer::usableEnergyAtLevel(int level) const
{
    const int idx = std::clamp(level, 0, maxCapacitanceLevel());
    const Farads c = task.capacitance() +
        configs[static_cast<size_t>(idx)]
            .equivalentCapacitance(params.unitCap.capacitance);
    return units::capEnergyWindow(c, params.vHigh, params.vLow);
}

Coulombs
MorphyBuffer::splitRailCharge(Coulombs dq)
{
    // Between reconfigurations the connected network tracks the task cap,
    // so charge splits proportionally to capacitance.
    const Farads c_net = network.equivalentCapacitance();
    const Farads c_total = task.capacitance() + c_net;
    const Volts dv = dq / c_total;
    task.addCharge(task.capacitance() * dv);
    return c_net * dv;
}

void
MorphyBuffer::applyConfig(int index)
{
    react_assert(index >= 0 && index <= maxCapacitanceLevel(),
                 "morphy config index out of range");
    if (index == configIndex)
        return;
    // The whole regrouping rides on one fabric command; a jammed fabric
    // freezes Morphy at its present configuration (no watchdog here --
    // graceful degradation is REACT's contribution, not Morphy's).
    if (faults != nullptr && !faults->switchActuates("morphy.fabric"))
        return;
    if (faults != nullptr && faults->switchDelayed("morphy.fabric"))
        return;  // sluggish fabric: the controller retries next poll
    configIndex = index;
    ++reconfigCount;

    // The dissipation is booked as the measured stored-energy drop, not
    // the linear-model prediction: Capacitor::addCharge floors a unit at
    // 0 V, so deeply discharged chains deviate from the branch model and
    // only the physical delta keeps the ledger exactly conservative.
    const Joules e_before = task.energy() + network.storedEnergy();

    // Stage 1: branches of the new arrangement equalize among themselves
    // (reconfigure's own measured loss is subsumed by the bracket here).
    // The network compiles the entry into its reserved arrays without
    // copying it, so ladder transitions stay free of heap allocation on
    // the fixed-timestep path.
    network.reconfigure(configs[static_cast<size_t>(index)]);

    // Stage 2: the (now internally equalized) network shares the output
    // node with the task capacitor; equalize them too.  The staging is
    // energy-equivalent to a single simultaneous equalization.
    const Farads c_net = network.equivalentCapacitance();
    if (c_net > Farads(0.0)) {
        const Volts v_net = network.outputVoltage();
        const Volts v_final =
            (task.charge() + c_net * v_net) / (task.capacitance() + c_net);
        network.addChargeAtOutput(c_net * (v_final - v_net));
        task.setVoltage(v_final);
    }
    energyLedger.switchLoss +=
        e_before - (task.energy() + network.storedEnergy());
}

void
MorphyBuffer::pollController()
{
    Volts v = railVoltage();
    if (faults != nullptr)
        v = faults->comparatorRead("morphy.comparator", v);
    if (v >= params.vHigh && configIndex < maxCapacitanceLevel()) {
        applyConfig(configIndex + 1);
    } else if (v <= params.vLow && configIndex > 0) {
        applyConfig(configIndex - 1);
    }
}

void
MorphyBuffer::step(Seconds dt, Watts input_power, Amps load_current)
{
    // 0. Dielectric aging of the task capacitor (fault injection only;
    //    updated at the poll cadence, which far oversamples hour-scale
    //    fade).  The pooled units age behind the fabric's own dynamics
    //    and are left at their nominal value.
    if (faults != nullptr &&
        faults->plan().capacitanceFadePerHour > 0.0) {
        agingAccumulator += dt;
        if (agingAccumulator >= pollPeriod) {
            agingAccumulator = Seconds(0.0);
            energyLedger.faultLoss += task.setCapacitance(
                params.taskCap.capacitance *
                faults->capacitanceFactor("morphy.taskcap"));
        }
    }

    // 1. Self-discharge everywhere.
    const CapacitorNetwork::LeakResult net_leak = network.leak(dt);
    energyLedger.leaked += task.leak(dt) + net_leak.lost;

    // Steps 1b-4 each move the task capacitor and hand the network one
    // output-node charge.  None of them reads a unit voltage other than
    // the post-leak node voltage, so every charge is known before any
    // unit moves: the task side runs here as scalars, the network applies
    // all the charges in one sweep, and each phase books the measured
    // (task + network) energy change across it -- the bracket a pair of
    // storedEnergy() calls around the phase would compute.
    constexpr int kMaxPhases = CapacitorNetwork::kMaxOutputCharges;
    Joules *lines[kMaxPhases];
    bool gains[kMaxPhases];
    Coulombs net_charge[kMaxPhases];
    Joules task_e[kMaxPhases + 1];
    Joules net_e[kMaxPhases + 1];
    int count = 0;
    task_e[0] = task.energy();
    net_e[0] = net_leak.stored;
    // Close a phase: its ledger line, whether it books the energy gained
    // (after - before) rather than lost, and the network's charge.
    const auto phase = [&](Joules *line, bool gain, Coulombs to_network) {
        lines[count] = line;
        gains[count] = gain;
        net_charge[count] = to_network;
        task_e[++count] = task.energy();
    };

    // 1b. Asymmetric leakage pulls the network a hair below the task
    //     capacitor each step; physically they share the output node, so
    //     a standing balancing current keeps them equalized.  Restore the
    //     invariant and charge the (tiny) redistribution loss to leakage,
    //     measured, not modeled, for the same zero-floor reason as
    //     applyConfig.
    const Farads c_net = network.equivalentCapacitance();
    if (c_net > Farads(0.0)) {
        const Volts v_net = network.outputVoltage();
        const Volts v_task = task.voltage();
        if (v_net != v_task) {
            const Volts v_common = (task.charge() + c_net * v_net) /
                (task.capacitance() + c_net);
            const Coulombs to_network = c_net * (v_common - v_net);
            task.setVoltage(v_common);
            phase(&energyLedger.leaked, false, to_network);
        }
    }

    // 2. Harvested input lands on the common rail node.
    if (input_power > Watts(0.0)) {
        const Volts v_eff = std::max(railVoltage(), Volts(0.2));
        phase(&energyLedger.harvested, true,
              splitRailCharge(input_power / v_eff * dt));
    }

    // 3. Backend load.
    if (load_current > Amps(0.0))
        phase(&energyLedger.delivered, false,
              splitRailCharge(-load_current * dt));

    // 4. Overvoltage protection on the rail; disconnected units clamp to
    //    their rating inside the network.
    if (railVoltage() > params.railClamp) {
        const Farads c_total = equivalentCapacitance();
        phase(&energyLedger.clipped, false,
              splitRailCharge(c_total * (params.railClamp - railVoltage())));
    }

    if (count > 0 && c_net > Farads(0.0))
        network.addChargesAtOutput(net_charge, count, net_e + 1);
    else
        std::fill(net_e + 1, net_e + 1 + count, net_leak.stored);
    for (int p = 0; p < count; ++p) {
        const Joules before = task_e[p] + net_e[p];
        const Joules after = task_e[p + 1] + net_e[p + 1];
        *lines[p] += gains[p] ? after - before : before - after;
    }
    energyLedger.clipped += network.clipOutput(params.railClamp);

    // 5. Battery-powered controller polls at its fixed rate regardless of
    //    the backend's power state.
    pollAccumulator += dt;
    while (pollAccumulator >= pollPeriod) {
        pollAccumulator -= pollPeriod;
        pollController();
    }
}

void
MorphyBuffer::reset()
{
    task.setVoltage(Volts(0.0));
    for (int i = 0; i < network.unitCount(); ++i)
        network.setUnitVoltage(i, Volts(0.0));
    network.reconfigure(configs[0]);  // ladder entry 0 is empty
    configIndex = 0;
    requestedLevel = 0;
    pollAccumulator = Seconds(0.0);
    agingAccumulator = Seconds(0.0);
    reconfigCount = 0;
    energyLedger = sim::EnergyLedger();
}

void
MorphyBuffer::save(snapshot::SnapshotWriter &w) const
{
    EnergyBuffer::save(w);
    task.save(w);
    network.save(w);
    w.u32(static_cast<uint32_t>(configIndex));
    w.u32(static_cast<uint32_t>(requestedLevel));
    w.f64(pollAccumulator.raw());
    w.f64(agingAccumulator.raw());
    w.u64(reconfigCount);
}

void
MorphyBuffer::restore(snapshot::SnapshotReader &r)
{
    EnergyBuffer::restore(r);
    task.restore(r);
    network.restore(r);
    const uint32_t index = r.u32();
    if (index >= configs.size())
        throw snapshot::SnapshotError(
            "morphy snapshot ladder index out of range");
    configIndex = static_cast<int>(index);
    // Re-adopt the ladder arrangement without equalizing: the unit
    // voltages above already capture the equalized post-reconfiguration
    // state, and a modeled charge-share here would burn phantom energy.
    network.restoreArrangement(configs[index]);
    requestedLevel = static_cast<int>(r.u32());
    pollAccumulator = Seconds(r.f64());
    agingAccumulator = Seconds(r.f64());
    reconfigCount = r.u64();
}

} // namespace buffer
} // namespace react
