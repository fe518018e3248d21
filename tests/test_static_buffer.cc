/**
 * @file
 * Tests for the static buffer (the paper's baselines) and the
 * Dewdrop-style enable-voltage policy: charge/discharge physics,
 * overvoltage clipping, reactivity-longevity arithmetic, and ledger
 * conservation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "buffers/dewdrop_policy.hh"
#include "buffers/static_buffer.hh"
#include "harness/paper_setup.hh"
#include "util/units.hh"

namespace react {
namespace buffer {
namespace {

using units::Amps;
using units::Farads;
using units::Joules;
using units::Seconds;
using units::Volts;
using units::Watts;

void
run(EnergyBuffer &buf, double seconds, double power, double load,
    double dt = 1e-3)
{
    const int steps = static_cast<int>(seconds / dt);
    for (int i = 0; i < steps; ++i)
        buf.step(Seconds(dt), Watts(power), Amps(load));
}

void
expectConservation(const EnergyBuffer &buf)
{
    const auto &l = buf.ledger();
    const double balance =
        (l.harvested - l.delivered - l.totalLoss() - buf.storedEnergy())
            .raw();
    EXPECT_NEAR(balance, 0.0,
                1e-6 + 1e-3 * std::max(l.harvested.raw(),
                                       buf.storedEnergy().raw()));
}

TEST(StaticBuffer, DefaultNameFromCapacitance)
{
    StaticBuffer small(harness::staticBufferSpec(Farads(770e-6)));
    StaticBuffer big(harness::staticBufferSpec(Farads(10e-3)));
    EXPECT_EQ(small.name(), "770uF");
    EXPECT_EQ(big.name(), "10mF");
}

TEST(StaticBuffer, ChargeTimeScalesWithCapacitance)
{
    StaticBuffer small(harness::staticBufferSpec(Farads(1e-3)));
    StaticBuffer big(harness::staticBufferSpec(Farads(10e-3)));
    auto time_to = [](StaticBuffer &buf, double v) {
        double t = 0.0;
        while (buf.railVoltage() < Volts(v) && t < 1000.0) {
            buf.step(Seconds(1e-3), Watts(1e-3), Amps(0.0));
            t += 1e-3;
        }
        return t;
    };
    const double t_small = time_to(small, 3.3);
    const double t_big = time_to(big, 3.3);
    // Constant power: charge time proportional to capacitance.
    EXPECT_NEAR(t_big / t_small, 10.0, 0.8);
}

TEST(StaticBuffer, SmallBufferClipsSurplus)
{
    StaticBuffer small(harness::staticBufferSpec(Farads(770e-6)));
    run(small, 30.0, 5e-3, 0.0);
    EXPECT_NEAR(small.railVoltage().raw(), 3.6, 1e-6);
    // Nearly all harvested energy burned.
    EXPECT_GT(small.ledger().clipped / small.ledger().harvested, 0.9);
    expectConservation(small);
}

TEST(StaticBuffer, LargeBufferCapturesSurplus)
{
    // 5 mW for 18 s = 90 mJ, inside the 17 mF / 3.6 V capacity (110 mJ).
    StaticBuffer big(harness::staticBufferSpec(Farads(17e-3)));
    run(big, 18.0, 5e-3, 0.0);
    EXPECT_LT(big.ledger().clipped / big.ledger().harvested, 0.1);
    expectConservation(big);
}

TEST(StaticBuffer, DischargeUnderLoad)
{
    StaticBuffer buf(harness::staticBufferSpec(Farads(10e-3)));
    run(buf, 120.0, 5e-3, 0.0);
    const Volts v0 = buf.railVoltage();
    run(buf, 5.0, 0.0, 2e-3);
    // dV = I t / C = 2 mA * 5 s / 10 mF = 1 V.
    EXPECT_NEAR((v0 - buf.railVoltage()).raw(), 1.0, 0.05);
    EXPECT_GT(buf.ledger().delivered.raw(), 0.0);
    expectConservation(buf);
}

TEST(StaticBuffer, LeakageDrainsWhenIdle)
{
    StaticBuffer buf(harness::staticBufferSpec(Farads(1e-3)));
    run(buf, 10.0, 2e-3, 0.0);
    const Volts v0 = buf.railVoltage();
    run(buf, 500.0, 0.0, 0.0);
    // tau = 2000 s: noticeable but not catastrophic decay after 500 s.
    EXPECT_LT(buf.railVoltage().raw(), v0.raw());
    EXPECT_NEAR(buf.railVoltage().raw(),
                v0.raw() * std::exp(-500.0 / 2000.0), 0.05);
    EXPECT_GT(buf.ledger().leaked.raw(), 0.0);
}

TEST(StaticBuffer, AdaptiveSurfaceIsInert)
{
    StaticBuffer buf(harness::staticBufferSpec(Farads(1e-3)));
    EXPECT_EQ(buf.maxCapacitanceLevel(), 0);
    buf.requestMinLevel(5);
    EXPECT_TRUE(buf.levelSatisfied());
    EXPECT_DOUBLE_EQ(buf.softwareOverheadFraction(), 0.0);
}

TEST(DewdropPolicy, EnableVoltageCoversTaskEnergy)
{
    DewdropPolicy policy(Farads(10e-3), Volts(1.8), Volts(3.6), 1.0);
    const Joules e_task{5e-3};
    const Volts v = policy.enableVoltageFor(e_task);
    // Discharging from the enable voltage to brown-out yields the task
    // energy exactly (margin 1).
    EXPECT_NEAR(units::capEnergyWindow(Farads(10e-3), v, Volts(1.8)).raw(),
                e_task.raw(), 1e-12);
}

TEST(DewdropPolicy, ClampsToLegalRange)
{
    DewdropPolicy policy(Farads(1e-3), Volts(1.8), Volts(3.6), 1.3);
    // Free task: still needs hysteresis headroom.
    EXPECT_NEAR(policy.enableVoltageFor(Joules(0.0)).raw(), 1.9, 1e-12);
    // Oversized task: clamps at the rail limit.
    EXPECT_NEAR(policy.enableVoltageFor(Joules(1.0)).raw(), 3.6, 1e-12);
    EXPECT_FALSE(policy.feasible(Joules(1.0)));
}

TEST(DewdropPolicy, FeasibilityMatchesWindow)
{
    DewdropPolicy policy(Farads(10e-3), Volts(1.8), Volts(3.6), 1.0);
    const Joules window =
        units::capEnergyWindow(Farads(10e-3), Volts(3.6), Volts(1.8));
    EXPECT_TRUE(policy.feasible(window * 0.99));
    EXPECT_FALSE(policy.feasible(window * 1.01));
    EXPECT_NEAR(policy.maxTaskEnergy().raw(), window.raw(), 1e-12);
}

TEST(DewdropPolicy, MarginScalesRequirement)
{
    DewdropPolicy tight(Farads(10e-3), Volts(1.8), Volts(3.6), 1.0);
    DewdropPolicy loose(Farads(10e-3), Volts(1.8), Volts(3.6), 1.5);
    EXPECT_LT(tight.enableVoltageFor(Joules(3e-3)).raw(),
              loose.enableVoltageFor(Joules(3e-3)).raw());
    EXPECT_GT(tight.maxTaskEnergy().raw(), loose.maxTaskEnergy().raw());
}

TEST(DewdropPolicy, AdaptiveEnableSpeedsFirstTask)
{
    // End-to-end: a Dewdrop-planned enable voltage on a 10 mF buffer
    // starts a 1 mJ task far sooner than the fixed 3.3 V supervisor.
    DewdropPolicy policy(Farads(10e-3));
    const Volts v_adaptive = policy.enableVoltageFor(Joules(1e-3));
    ASSERT_LT(v_adaptive.raw(), 3.0);

    auto charge_time = [](Volts enable_v) {
        StaticBuffer buf(harness::staticBufferSpec(Farads(10e-3)));
        double t = 0.0;
        while (buf.railVoltage() < enable_v && t < 500.0) {
            buf.step(Seconds(1e-3), Watts(1e-3), Amps(0.0));
            t += 1e-3;
        }
        return t;
    };
    EXPECT_LT(charge_time(v_adaptive), 0.55 * charge_time(Volts(3.3)));
}

} // namespace
} // namespace buffer
} // namespace react
