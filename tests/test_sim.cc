/**
 * @file
 * Unit tests for the electrical substrate: capacitor physics against
 * closed forms, diode models, the exact charge-transfer integrator, the
 * hysteretic power gate, and ledger arithmetic.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/capacitor.hh"
#include "sim/charge_transfer.hh"
#include "sim/diode.hh"
#include "sim/energy_ledger.hh"
#include "sim/power_gate.hh"
#include "snapshot/snapshot.hh"
#include "util/units.hh"

namespace react {
namespace sim {
namespace {

using units::Amps;
using units::Coulombs;
using units::Farads;
using units::Joules;
using units::Ohms;
using units::Seconds;
using units::Volts;
using units::Watts;

CapacitorSpec
spec(Farads c, Volts rated = Volts(6.3), Amps leak = Amps(0.0))
{
    CapacitorSpec s;
    s.capacitance = c;
    s.ratedVoltage = rated;
    s.leakageCurrentAtRated = leak;
    return s;
}

TEST(Capacitor, ChargeAndEnergy)
{
    Capacitor cap(spec(Farads(1e-3)), Volts(2.0));
    EXPECT_DOUBLE_EQ(cap.charge().raw(), 2e-3);
    EXPECT_DOUBLE_EQ(cap.energy().raw(), 2e-3);
    cap.addCharge(Coulombs(1e-3));
    EXPECT_DOUBLE_EQ(cap.voltage().raw(), 3.0);
}

TEST(Capacitor, CurrentIntegration)
{
    Capacitor cap(spec(Farads(100e-6)), Volts(0.0));
    // 1 mA for 1 s into 100 uF -> 10 V.
    for (int i = 0; i < 1000; ++i)
        cap.applyCurrent(Amps(1e-3), Seconds(1e-3));
    EXPECT_NEAR(cap.voltage().raw(), 10.0, 1e-9);
}

TEST(Capacitor, RestoreRejectsUnrepresentableState)
{
    // CRC-valid sections a capacitor cannot hold: restoring a 0 F
    // capacitance used to succeed, and the next step's NaN voltage then
    // tripped setVoltage's assertion instead of the run cold-starting.
    const double bad[][2] = {
        {0.0, 1.0}, {-1e-3, 1.0}, {std::nan(""), 1.0},
        {1e-3, -1.0}, {1e-3, HUGE_VAL},
    };
    for (const auto &fields : bad) {
        snapshot::SnapshotWriter w;
        w.beginSection("cap");
        w.f64(fields[0]);
        w.f64(fields[1]);
        w.endSection();
        Capacitor cap(spec(Farads(1e-3)), Volts(2.0));
        snapshot::SnapshotReader r(w.finish());
        r.beginSection("cap");
        EXPECT_THROW(cap.restore(r), snapshot::SnapshotError)
            << "c " << fields[0] << " v " << fields[1];
        EXPECT_EQ(cap.capacitance().raw(), 1e-3);
        EXPECT_EQ(cap.voltage().raw(), 2.0);
    }
}

TEST(Capacitor, VoltageNeverNegative)
{
    Capacitor cap(spec(Farads(1e-3)), Volts(0.5));
    cap.addCharge(Coulombs(-1.0));  // far more than stored
    EXPECT_DOUBLE_EQ(cap.voltage().raw(), 0.0);
}

TEST(Capacitor, LeakMatchesExponential)
{
    // R = 6.3 V / 63 uA = 100 kOhm, tau = R C = 0.1 s for 1 uF.
    Capacitor cap(spec(Farads(1e-6), Volts(6.3), Amps(63e-6)), Volts(5.0));
    const Seconds tau = cap.spec().leakResistance() * cap.capacitance();
    EXPECT_NEAR(tau.raw(), 0.1, 1e-12);
    Joules leaked{0.0};
    for (int i = 0; i < 100; ++i)
        leaked += cap.leak(Seconds(1e-3));
    EXPECT_NEAR(cap.voltage().raw(), 5.0 * std::exp(-1.0), 1e-9);
    // Leaked energy equals the stored-energy drop.
    EXPECT_NEAR(leaked.raw(),
                (units::capEnergy(Farads(1e-6), Volts(5.0)) - cap.energy())
                    .raw(),
                1e-15);
}

TEST(Capacitor, LeakIsTimestepInvariant)
{
    Capacitor coarse(spec(Farads(1e-6), Volts(6.3), Amps(63e-6)), Volts(5.0));
    Capacitor fine(spec(Farads(1e-6), Volts(6.3), Amps(63e-6)), Volts(5.0));
    coarse.leak(Seconds(0.05));
    for (int i = 0; i < 5000; ++i)
        fine.leak(Seconds(1e-5));
    EXPECT_NEAR(coarse.voltage().raw(), fine.voltage().raw(), 1e-9);
}

TEST(Capacitor, NoLeakWhenUnspecified)
{
    Capacitor cap(spec(Farads(1e-3)), Volts(3.0));
    EXPECT_DOUBLE_EQ(cap.leak(Seconds(100.0)).raw(), 0.0);
    EXPECT_DOUBLE_EQ(cap.voltage().raw(), 3.0);
}

TEST(Capacitor, ClipReturnsDiscardedEnergy)
{
    Capacitor cap(spec(Farads(1e-3), Volts(6.3)), Volts(5.0));
    const Joules clipped = cap.clip(Volts(3.6));
    EXPECT_DOUBLE_EQ(cap.voltage().raw(), 3.6);
    EXPECT_NEAR(clipped.raw(),
                units::capEnergyWindow(Farads(1e-3), Volts(5.0), Volts(3.6))
                    .raw(),
                1e-15);
    EXPECT_DOUBLE_EQ(cap.clip(Volts(3.6)).raw(), 0.0);
}

TEST(Capacitor, ClipDefaultsToRating)
{
    Capacitor cap(spec(Farads(1e-3), Volts(4.0)), Volts(0.0));
    cap.setVoltage(Volts(5.0));
    cap.clip();
    EXPECT_DOUBLE_EQ(cap.voltage().raw(), 4.0);
}

TEST(Capacitor, EnergyAboveFloor)
{
    Capacitor cap(spec(Farads(2e-3)), Volts(3.0));
    EXPECT_NEAR(cap.energyAbove(Volts(1.8)).raw(),
                units::capEnergyWindow(Farads(2e-3), Volts(3.0), Volts(1.8))
                    .raw(),
                1e-15);
    EXPECT_DOUBLE_EQ(cap.energyAbove(Volts(3.5)).raw(), 0.0);
}

TEST(IdealDiode, DropIsOhmic)
{
    IdealDiode d(Ohms(0.079), Watts(0.8e-6));
    EXPECT_DOUBLE_EQ(d.forwardDrop(Amps(0.0)).raw(), 0.0);
    EXPECT_NEAR(d.forwardDrop(Amps(1e-3)).raw(), 79e-6, 1e-12);
    EXPECT_DOUBLE_EQ(d.quiescentPower().raw(), 0.8e-6);
}

TEST(SchottkyDiode, DropNearDatasheet)
{
    SchottkyDiode d;
    // Small-signal Schottky: ~0.3-0.4 V at 1 mA.
    const Volts v = d.forwardDrop(Amps(1e-3));
    EXPECT_GT(v.raw(), 0.25);
    EXPECT_LT(v.raw(), 0.45);
    // Monotone in current.
    EXPECT_GT(d.forwardDrop(Amps(10e-3)).raw(), v.raw());
}

TEST(DiodeComparison, IdealOrdersOfMagnitudeMoreEfficient)
{
    // The paper: the LM66100 circuit dissipates ~0.02 % of a Schottky's
    // conduction power at 1 mA.
    IdealDiode ideal;
    SchottkyDiode schottky;
    const double ratio = ideal.conductionPower(Amps(1e-3)) /
        schottky.conductionPower(Amps(1e-3));
    EXPECT_LT(ratio, 1e-3);
}

TEST(ChargeTransfer, ConservesChargeAndSettles)
{
    Capacitor a(spec(Farads(1e-3)), Volts(4.0));
    Capacitor b(spec(Farads(1e-3)), Volts(1.0));
    const Coulombs q_before = a.charge() + b.charge();
    // Long dt: complete relaxation to equal voltages.
    const auto res =
        transferCharge(a, b, Ohms(1.0), Volts(0.0), Seconds(10.0));
    EXPECT_NEAR(a.voltage().raw(), 2.5, 1e-6);
    EXPECT_NEAR(b.voltage().raw(), 2.5, 1e-6);
    EXPECT_NEAR((a.charge() + b.charge()).raw(), q_before.raw(), 1e-12);
    // Energy dissipated = 1/2 Ceq dV^2 = 1/2 * 0.5mF * 9 = 2.25 mJ.
    EXPECT_NEAR(res.resistiveLoss.raw(), 2.25e-3, 1e-6);
}

TEST(ChargeTransfer, ExactExponentialAtFiniteDt)
{
    const Ohms r{2.0};
    const Farads c{1e-3};
    Capacitor a(spec(c), Volts(3.0));
    Capacitor b(spec(c), Volts(1.0));
    const Seconds tau = r * (c * c) / (2.0 * c);  // R * Ceq = 1 ms
    const Seconds dt = tau;  // one time constant
    transferCharge(a, b, r, Volts(0.0), dt);
    const double dv_expected = 2.0 * std::exp(-1.0);
    EXPECT_NEAR((a.voltage() - b.voltage()).raw(), dv_expected, 1e-9);
}

TEST(ChargeTransfer, TimestepInvariant)
{
    Capacitor a1(spec(Farads(1e-3)), Volts(3.5));
    Capacitor b1(spec(Farads(770e-6)), Volts(1.9));
    Capacitor a2(spec(Farads(1e-3)), Volts(3.5));
    Capacitor b2(spec(Farads(770e-6)), Volts(1.9));
    transferCharge(a1, b1, Ohms(1.0), Volts(0.01), Seconds(0.01));
    for (int i = 0; i < 100; ++i)
        transferCharge(a2, b2, Ohms(1.0), Volts(0.01), Seconds(1e-4));
    EXPECT_NEAR(a1.voltage().raw(), a2.voltage().raw(), 1e-9);
    EXPECT_NEAR(b1.voltage().raw(), b2.voltage().raw(), 1e-9);
}

TEST(ChargeTransfer, DiodeBlocksReverse)
{
    Capacitor lo(spec(Farads(1e-3)), Volts(1.0));
    Capacitor hi(spec(Farads(1e-3)), Volts(3.0));
    const auto res =
        transferCharge(lo, hi, Ohms(1.0), Volts(0.0), Seconds(1.0));
    EXPECT_DOUBLE_EQ(res.charge.raw(), 0.0);
    EXPECT_DOUBLE_EQ(lo.voltage().raw(), 1.0);
}

TEST(ChargeTransfer, DiodeDropLimitsSettling)
{
    Capacitor a(spec(Farads(1e-3)), Volts(3.0));
    Capacitor b(spec(Farads(1e-3)), Volts(1.0));
    const auto res =
        transferCharge(a, b, Ohms(1.0), Volts(0.5), Seconds(100.0));
    // Settles when the difference equals the drop.
    EXPECT_NEAR((a.voltage() - b.voltage()).raw(), 0.5, 1e-6);
    EXPECT_NEAR(res.diodeLoss.raw(), (Volts(0.5) * res.charge).raw(), 1e-12);
}

TEST(ChargeFromPower, DeliversExpectedCharge)
{
    Capacitor cap(spec(Farads(1e-3)), Volts(2.0));
    const auto res = chargeFromPower(cap, Watts(10e-3), Seconds(1e-3));
    // I = P / V = 5 mA; dq = 5 uC -> dV = 5 mV.
    EXPECT_NEAR(res.charge.raw(), 5e-6, 1e-12);
    EXPECT_NEAR(cap.voltage().raw(), 2.005, 1e-9);
}

TEST(ChargeFromPower, ColdStartCurrentBounded)
{
    Capacitor cap(spec(Farads(1e-3)), Volts(0.0));
    const auto res = chargeFromPower(cap, Watts(10e-3), Seconds(1e-3),
                                     Volts(0.0), Volts(0.2));
    // I limited to P / 0.2 V = 50 mA.
    EXPECT_NEAR(res.charge.raw(), 50e-6, 1e-12);
}

TEST(EqualizeParallel, PaperFigure5Numbers)
{
    // 3-series string (as one branch capacitor C/3 at 3V/4) paralleled
    // with one capacitor at V/4 dissipates 25 % of stored energy.
    const Farads c{1e-3};
    const Volts v{4.0};
    Capacitor string(spec(c / 3.0), 3.0 * v / 4.0);
    Capacitor single(spec(c), v / 4.0);
    const Joules e_before = string.energy() + single.energy();
    const Joules loss = equalizeParallel(string, single);
    EXPECT_NEAR(string.voltage().raw(), 3.0 * v.raw() / 8.0, 1e-9);
    EXPECT_NEAR(loss / e_before, 0.25, 1e-9);
}

TEST(PowerGate, Hysteresis)
{
    PowerGate gate(Volts(3.3), Volts(1.8));
    EXPECT_FALSE(gate.isOn());
    EXPECT_FALSE(gate.update(Volts(3.0)));
    EXPECT_TRUE(gate.update(Volts(3.3)));
    EXPECT_TRUE(gate.isOn());
    // Stays on through the hysteresis band.
    EXPECT_FALSE(gate.update(Volts(2.0)));
    EXPECT_TRUE(gate.isOn());
    EXPECT_TRUE(gate.update(Volts(1.8)));
    EXPECT_FALSE(gate.isOn());
    // Does not re-enable until the enable threshold.
    EXPECT_FALSE(gate.update(Volts(2.5)));
    EXPECT_FALSE(gate.isOn());
}

TEST(PowerGate, AdjustableEnable)
{
    PowerGate gate(Volts(3.3), Volts(1.8));
    gate.setEnableVoltage(Volts(2.2));
    EXPECT_TRUE(gate.update(Volts(2.2)));
}

TEST(EnergyLedger, Arithmetic)
{
    EnergyLedger a;
    a.harvested = Joules(10.0);
    a.delivered = Joules(6.0);
    a.clipped = Joules(1.0);
    a.leaked = Joules(0.5);
    a.switchLoss = Joules(0.25);
    a.diodeLoss = Joules(0.15);
    a.overhead = Joules(0.1);
    EXPECT_DOUBLE_EQ(a.totalLoss().raw(), 2.0);
    EXPECT_DOUBLE_EQ(a.totalOut().raw(), 8.0);
    EXPECT_DOUBLE_EQ(a.efficiency(), 0.6);

    EnergyLedger b = a + a;
    EXPECT_DOUBLE_EQ(b.harvested.raw(), 20.0);
    EXPECT_DOUBLE_EQ(b.totalLoss().raw(), 4.0);
}

} // namespace
} // namespace sim
} // namespace react
