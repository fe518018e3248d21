/**
 * @file
 * Tests for the fully-interconnected capacitor network (the Morphy
 * substrate), centered on the paper's Fig. 5 / S 3.3.1 dissipation
 * analysis: 25 % loss for the 4-capacitor transition and 56.25 % for the
 * 8-capacitor one.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "buffers/capacitor_network.hh"
#include "snapshot/snapshot.hh"
#include "util/units.hh"

namespace react {
namespace buffer {
namespace {

using units::Amps;
using units::Coulombs;
using units::Farads;
using units::Joules;
using units::Seconds;
using units::Volts;

sim::CapacitorSpec
unitSpec(Farads c = Farads(1e-3))
{
    sim::CapacitorSpec s;
    s.capacitance = c;
    s.ratedVoltage = Volts(100.0);  // keep ratings out of the algebra here
    return s;
}

NetworkConfig
chainConfig(int n)
{
    NetworkConfig cfg;
    cfg.branches.emplace_back();
    for (int i = 0; i < n; ++i)
        cfg.branches.back().push_back(i);
    return cfg;
}

NetworkConfig
parallelConfig(int n)
{
    NetworkConfig cfg;
    for (int i = 0; i < n; ++i)
        cfg.branches.push_back({i});
    return cfg;
}

TEST(NetworkConfig, EquivalentCapacitance)
{
    EXPECT_NEAR(chainConfig(4).equivalentCapacitance(Farads(1e-3)).raw(),
                0.25e-3, 1e-12);
    EXPECT_NEAR(parallelConfig(4).equivalentCapacitance(Farads(1e-3)).raw(),
                4e-3, 1e-12);
    NetworkConfig mixed;
    mixed.branches = {{0, 1, 2}, {3}};  // C/3 + C = 4C/3
    EXPECT_NEAR(mixed.equivalentCapacitance(Farads(1e-3)).raw(),
                4.0e-3 / 3.0, 1e-12);
}

TEST(Network, ChargeAtOutputSplitsByBranch)
{
    CapacitorNetwork net(4, unitSpec());
    net.reconfigure(parallelConfig(4));
    net.addChargeAtOutput(Coulombs(4e-3));  // 4 mC into 4 mF -> 1 V
    EXPECT_NEAR(net.outputVoltage().raw(), 1.0, 1e-12);
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(net.unitVoltage(i).raw(), 1.0, 1e-12);
}

TEST(Network, SeriesChainSharesCurrent)
{
    CapacitorNetwork net(3, unitSpec());
    net.reconfigure(chainConfig(3));
    net.addChargeAtOutput(Coulombs(1e-3));  // 1 mC through the chain
    // Every member gains 1 mC -> 1 V each; terminal = 3 V.
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(net.unitVoltage(i).raw(), 1.0, 1e-12);
    EXPECT_NEAR(net.outputVoltage().raw(), 3.0, 1e-12);
}

TEST(Network, PaperFourCapacitorTransitionLoses25Percent)
{
    // Fig. 5: 4 caps in series charged to V, then one cap moves to
    // parallel with the remaining 3-series chain.  E_new / E_old = 0.75.
    const Volts v{4.0};
    CapacitorNetwork net(4, unitSpec());
    net.reconfigure(chainConfig(4));
    for (int i = 0; i < 4; ++i)
        net.setUnitVoltage(i, v / 4.0);

    const Joules e_old = net.storedEnergy();
    NetworkConfig next;
    next.branches = {{0, 1, 2}, {3}};
    const Joules loss = net.reconfigure(next);

    EXPECT_NEAR(net.outputVoltage().raw(), 3.0 * v.raw() / 8.0, 1e-9);
    EXPECT_NEAR(loss / e_old, 0.25, 1e-9);
    EXPECT_NEAR(net.storedEnergy() / e_old, 0.75, 1e-9);
}

TEST(Network, PaperEightCapacitorTransitionLoses5625Percent)
{
    // S 3.3.1: 8-parallel at V -> 7-series + 1-parallel wastes 56.25 %.
    const Volts v{2.0};
    CapacitorNetwork net(8, unitSpec());
    net.reconfigure(parallelConfig(8));
    for (int i = 0; i < 8; ++i)
        net.setUnitVoltage(i, v);

    const Joules e_old = net.storedEnergy();
    NetworkConfig next;
    next.branches = {{0, 1, 2, 3, 4, 5, 6}, {7}};
    const Joules loss = net.reconfigure(next);

    EXPECT_NEAR(loss / e_old, 0.5625, 1e-9);
    // Final output voltage: 7V/4 (charge conservation).
    EXPECT_NEAR(net.outputVoltage().raw(), 7.0 * v.raw() / 4.0, 1e-9);
}

TEST(Network, EqualVoltageReconfigurationIsLossless)
{
    CapacitorNetwork net(4, unitSpec());
    net.reconfigure(parallelConfig(4));
    for (int i = 0; i < 4; ++i)
        net.setUnitVoltage(i, Volts(2.0));
    // 4-parallel -> 2-parallel: surviving branches agree at 2 V.
    const Joules loss = net.reconfigure(parallelConfig(2));
    EXPECT_NEAR(loss.raw(), 0.0, 1e-15);
    EXPECT_NEAR(net.outputVoltage().raw(), 2.0, 1e-12);
    // Disconnected units keep their charge.
    EXPECT_NEAR(net.unitVoltage(3).raw(), 2.0, 1e-12);
}

TEST(Network, ChargeConservedAcrossReconfiguration)
{
    CapacitorNetwork net(5, unitSpec());
    net.reconfigure(parallelConfig(5));
    for (int i = 0; i < 5; ++i)
        net.setUnitVoltage(i, Volts(0.5 * (i + 1)));
    Coulombs q_before{0.0};
    for (int i = 0; i < 5; ++i)
        q_before += Farads(1e-3) * net.unitVoltage(i);

    NetworkConfig next;
    next.branches = {{0, 1}, {2}, {3}, {4}};
    net.reconfigure(next);

    // In the new arrangement the series pair counts charge once, so
    // compare total branch charge at the output node instead: the
    // equalization conserves sum(C_br * V_br).
    const Coulombs q_after = next.equivalentCapacitance(Farads(1e-3)) *
        net.outputVoltage();
    // Branch charges before equalization: pair (C/2 at v0+v1) + singles.
    const double q_pair = 0.5e-3 * (0.5 + 1.0);
    const double q_rest = 1e-3 * (1.5 + 2.0 + 2.5);
    EXPECT_NEAR(q_after.raw(), q_pair + q_rest, 1e-12);
}

TEST(Network, DisconnectedEverythingHasZeroOutput)
{
    CapacitorNetwork net(3, unitSpec());
    EXPECT_DOUBLE_EQ(net.outputVoltage().raw(), 0.0);
    EXPECT_DOUBLE_EQ(net.equivalentCapacitance().raw(), 0.0);
    net.addChargeAtOutput(Coulombs(1.0));  // no-op
    EXPECT_DOUBLE_EQ(net.storedEnergy().raw(), 0.0);
}

TEST(Network, LeakDrainsAllUnits)
{
    sim::CapacitorSpec leaky = unitSpec();
    leaky.ratedVoltage = Volts(6.3);
    leaky.leakageCurrentAtRated = Amps(6.3e-6);  // R = 1 MOhm
    CapacitorNetwork net(2, leaky);
    net.setUnitVoltage(0, Volts(3.0));
    net.setUnitVoltage(1, Volts(2.0));
    const Joules e_before = net.storedEnergy();
    const Joules lost = net.leak(Seconds(10.0)).lost;
    EXPECT_GT(lost.raw(), 0.0);
    EXPECT_NEAR(net.storedEnergy().raw(), (e_before - lost).raw(), 1e-15);
    EXPECT_LT(net.unitVoltage(0).raw(), 3.0);
    EXPECT_LT(net.unitVoltage(1).raw(), 2.0);
}

TEST(Network, EquivalentCapacitanceFollowsArrangementAndRestore)
{
    // The network keeps its equivalent capacitance as a value rebuilt
    // when the arrangement or the unit capacitance changes; every read
    // must equal the config's own sum, bit for bit.
    NetworkConfig mixed;
    mixed.branches = {{0, 1}, {2}, {3, 4, 5}};
    CapacitorNetwork net(6, unitSpec(Farads(1e-3)));
    for (const NetworkConfig &cfg :
         {chainConfig(4), parallelConfig(6), mixed, NetworkConfig{}}) {
        net.reconfigure(cfg);
        EXPECT_EQ(net.equivalentCapacitance().raw(),
                  cfg.equivalentCapacitance(Farads(1e-3)).raw());
    }

    // Restoring units of another size into an arranged network moves
    // the sum with them.
    CapacitorNetwork bigger(6, unitSpec(Farads(2e-3)));
    snapshot::SnapshotWriter w;
    w.beginSection("net");
    bigger.save(w);
    w.endSection();
    net.reconfigure(mixed);
    snapshot::SnapshotReader r(w.finish());
    r.beginSection("net");
    net.restore(r);
    r.endSection();
    EXPECT_EQ(net.equivalentCapacitance().raw(),
              mixed.equivalentCapacitance(Farads(2e-3)).raw());
}

TEST(Network, RestoreRejectsMixedOrBadUnitsAndLeavesNetworkUntouched)
{
    // The per-branch charge step divides by one unit capacitance for
    // every member, so a checkpoint whose units disagree -- or hold a
    // value no capacitor can -- is rejected before any unit changes.
    const auto image = [](const std::vector<std::pair<double, double>> &u) {
        snapshot::SnapshotWriter w;
        w.beginSection("net");
        w.u32(static_cast<uint32_t>(u.size()));
        for (const auto &[c, v] : u) {
            w.f64(c);
            w.f64(v);
        }
        w.endSection();
        return w.finish();
    };
    const auto restore = [](CapacitorNetwork &net,
                            const std::vector<uint8_t> &bytes) {
        snapshot::SnapshotReader r(bytes);
        r.beginSection("net");
        net.restore(r);
        r.endSection();
    };
    CapacitorNetwork net(3, unitSpec(Farads(1e-3)));
    net.reconfigure(parallelConfig(2));
    net.setUnitVoltage(0, Volts(1.0));
    net.setUnitVoltage(1, Volts(1.0));
    net.setUnitVoltage(2, Volts(0.5));
    const double eq_before = net.equivalentCapacitance().raw();
    const double e_before = net.storedEnergy().raw();

    const std::vector<std::vector<std::pair<double, double>>> lies = {
        {{2e-3, 2.0}, {3e-3, 2.0}, {2e-3, 2.0}},   // mixed capacitance
        {{2e-3, 2.0}, {2e-3, 2.0}, {0.0, 2.0}},    // zero capacitance
        {{2e-3, 2.0}, {2e-3, -1.0}, {2e-3, 2.0}},  // negative voltage
    };
    for (const auto &lie : lies) {
        EXPECT_THROW(restore(net, image(lie)), snapshot::SnapshotError);
        EXPECT_EQ(net.equivalentCapacitance().raw(), eq_before);
        EXPECT_EQ(net.storedEnergy().raw(), e_before);
        EXPECT_EQ(net.unitVoltage(0).raw(), 1.0);
    }
    restore(net, image({{2e-3, 2.0}, {2e-3, 2.0}, {2e-3, 2.0}}));
    EXPECT_EQ(net.equivalentCapacitance().raw(), 4e-3);
    EXPECT_EQ(net.unitVoltage(2).raw(), 2.0);
}

TEST(Network, ChargesInOneSweepMatchOneCallEach)
{
    // addChargesAtOutput() is the one-sweep form of addChargeAtOutput()
    // followed by storedEnergy(), once per charge: the same unit voltages
    // and the same sums, bit for bit.  The arrangement has two
    // single-unit branches sharing one step, two series chains, a
    // disconnected unit, and the last charge floors every unit at 0 V.
    NetworkConfig mixed;
    mixed.branches = {{4, 1}, {2}, {0, 5, 3}, {6}};
    const auto prime = [&mixed](CapacitorNetwork &net) {
        for (int i = 0; i < net.unitCount(); ++i)
            net.setUnitVoltage(i, Volts(0.3 + 0.1 * i));
        net.reconfigure(mixed);
    };
    CapacitorNetwork swept(8, unitSpec());
    CapacitorNetwork stepped(8, unitSpec());
    prime(swept);
    prime(stepped);

    const Coulombs dq[] = {Coulombs(1e-4), Coulombs(-2e-3), Coulombs(5e-4),
                           Coulombs(-1e-2)};
    Joules sums[4];
    swept.addChargesAtOutput(dq, 4, sums);
    for (int p = 0; p < 4; ++p) {
        stepped.addChargeAtOutput(dq[p]);
        EXPECT_EQ(sums[p].raw(), stepped.storedEnergy().raw()) << p;
    }
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(swept.unitVoltage(i).raw(), stepped.unitVoltage(i).raw())
            << i;
    EXPECT_EQ(swept.outputVoltage().raw(), 0.0);
}

TEST(Network, ClipOutputBurnsExcess)
{
    CapacitorNetwork net(2, unitSpec());
    net.reconfigure(parallelConfig(2));
    net.setUnitVoltage(0, Volts(5.0));
    net.setUnitVoltage(1, Volts(5.0));
    const Joules clipped = net.clipOutput(Volts(3.6));
    EXPECT_GT(clipped.raw(), 0.0);
    EXPECT_NEAR(net.outputVoltage().raw(), 3.6, 1e-9);
}

} // namespace
} // namespace buffer
} // namespace react
