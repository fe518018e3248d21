/**
 * @file
 * Tests for the REACT buffer: cold-start behaviour, controller-driven
 * expansion and reclamation, bank isolation, energy-ledger conservation,
 * and the software-directed longevity surface.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/react_buffer.hh"
#include "snapshot/snapshot.hh"
#include "util/byte_codec.hh"
#include "util/crc32.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace react {
namespace core {
namespace {

using units::Amps;
using units::Farads;
using units::Hertz;
using units::Joules;
using units::Seconds;
using units::Volts;
using units::Watts;

/** Drive the buffer with constant input power / load for a duration. */
void
run(ReactBuffer &buf, double seconds, double power, double load_current,
    double dt = 1e-3)
{
    const int steps = static_cast<int>(seconds / dt);
    for (int i = 0; i < steps; ++i)
        buf.step(Seconds(dt), Watts(power), Amps(load_current));
}

/** Ledger conservation: harvested == delivered + losses + stored delta. */
void
expectConservation(const ReactBuffer &buf)
{
    const auto &l = buf.ledger();
    const double balance =
        (l.harvested - l.delivered - l.totalLoss() - buf.storedEnergy())
            .raw();
    EXPECT_NEAR(balance, 0.0,
                1e-6 + 1e-3 * std::max(l.harvested.raw(),
                                       buf.storedEnergy().raw()));
}

TEST(ReactBuffer, ColdStartChargesOnlyLastLevel)
{
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    // The rail rises while every bank stays empty and disconnected.
    EXPECT_GT(buf.railVoltage().raw(), 3.0);
    for (int i = 0; i < buf.bankCount(); ++i) {
        EXPECT_EQ(buf.bank(i).state(), BankState::Disconnected);
        EXPECT_DOUBLE_EQ(buf.bank(i).unitVoltage().raw(), 0.0);
    }
    EXPECT_NEAR(buf.equivalentCapacitance().raw(), 770e-6, 1e-9);
    expectConservation(buf);
}

TEST(ReactBuffer, ChargesFasterThanEquivalentStaticCapacity)
{
    // The headline latency property: time to 3.3 V matches a 770 uF
    // buffer, not the 18 mF aggregate.
    ReactBuffer buf;
    double t = 0.0;
    const double dt = 1e-3, p = 1e-3;
    while (buf.railVoltage() < Volts(3.3) && t < 100.0) {
        buf.step(Seconds(dt), Watts(p), Amps(0.0));
        t += dt;
    }
    // Ideal 770 uF at 1 mW: E = 4.19 mJ -> ~4.2 s.
    EXPECT_LT(t, 8.0);
    EXPECT_GT(t, 2.0);
}

TEST(ReactBuffer, NoExpansionWhileBackendOff)
{
    ReactBuffer buf;
    // Without the MCU alive the controller cannot run: the rail clips at
    // the clamp and the level stays 0.
    run(buf, 20.0, 5e-3, 0.0);
    EXPECT_EQ(buf.capacitanceLevel(), 0);
    EXPECT_NEAR(buf.railVoltage().raw(), buf.config().railClamp.raw(),
                1e-6);
    EXPECT_GT(buf.ledger().clipped.raw(), 0.0);
}

TEST(ReactBuffer, ExpandsUnderSurplusWhenPowered)
{
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);  // charge to enable
    buf.notifyBackendPower(true);
    // Strong surplus with a light load: the controller should walk the
    // level up and capture energy in the banks.
    run(buf, 60.0, 5e-3, 0.1e-3);
    EXPECT_GT(buf.capacitanceLevel(), 2);
    EXPECT_GT(buf.storedEnergy().raw(),
              units::capEnergy(Farads(770e-6), Volts(3.6)).raw());
    // Rail must stay inside the operating band the whole time (sampled
    // at the end here; the characterization bench checks continuously).
    EXPECT_GE(buf.railVoltage().raw(), 1.8);
    EXPECT_LE(buf.railVoltage().raw(), buf.config().railClamp.raw() + 1e-9);
    expectConservation(buf);
}

TEST(ReactBuffer, CapturesMoreEnergyThanStaticSmallBuffer)
{
    // Surplus sized within REACT's 18 mF capacity (~115 mJ at 3.6 V): a
    // 770 uF static buffer would clip nearly all of it; REACT banks it.
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 40.0, 2.5e-3, 0.1e-3);
    const auto &l = buf.ledger();
    EXPECT_LT(l.clipped / l.harvested, 0.30);
    EXPECT_GT(buf.storedEnergy().raw(), 0.4 * l.harvested.raw());
}

TEST(ReactBuffer, ReclaimsChargeUnderDeficit)
{
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 60.0, 5e-3, 0.1e-3);  // fill banks
    const int level_full = buf.capacitanceLevel();
    ASSERT_GT(level_full, 2);

    // Now a heavy load with no input: the controller must walk levels
    // back down (parallel -> series boosts) to keep the rail alive.
    run(buf, 30.0, 0.0, 1.5e-3);
    EXPECT_LT(buf.capacitanceLevel(), level_full);
    expectConservation(buf);
}

TEST(ReactBuffer, ReclamationExtendsOperationVersusNoBanks)
{
    // With banks charged, operation under deficit should outlast the
    // last-level buffer alone by a large factor.
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 90.0, 5e-3, 0.1e-3);

    double survive = 0.0;
    const double dt = 1e-3;
    while (buf.railVoltage() > Volts(1.8) && survive < 300.0) {
        buf.step(Seconds(dt), Watts(0.0), Amps(1.5e-3));
        survive += dt;
    }
    // 770 uF alone from 3.6 to 1.8 V at ~1.5 mA lasts well under 2 s.
    EXPECT_GT(survive, 5.0);
}

TEST(ReactBuffer, BanksDisconnectOnBrownout)
{
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 60.0, 5e-3, 0.1e-3);
    ASSERT_GT(buf.capacitanceLevel(), 1);
    const Volts bank0_v = buf.bank(0).unitVoltage();

    buf.notifyBackendPower(false);
    for (int i = 0; i < buf.bankCount(); ++i)
        EXPECT_EQ(buf.bank(i).state(), BankState::Disconnected);
    // Charge retained through the off period (modulo leakage).
    EXPECT_NEAR(buf.bank(0).unitVoltage().raw(), bank0_v.raw(), 1e-3);

    // Power back up: FRAM state reconnects the banks.
    buf.notifyBackendPower(true);
    int connected = 0;
    for (int i = 0; i < buf.bankCount(); ++i)
        connected += buf.bank(i).connected() ? 1 : 0;
    EXPECT_GT(connected, 0);
}

TEST(ReactBuffer, UsableEnergyMonotoneInLevel)
{
    ReactBuffer buf;
    Joules prev = buf.usableEnergyAtLevel(0);
    EXPECT_GT(prev.raw(), 0.0);
    for (int level = 1; level <= buf.maxCapacitanceLevel(); ++level) {
        const Joules e = buf.usableEnergyAtLevel(level);
        EXPECT_GE(e.raw(), prev.raw());
        prev = e;
    }
    // Max level spans the full 18 mF window between thresholds.
    EXPECT_NEAR(buf.usableEnergyAtLevel(buf.maxCapacitanceLevel()).raw(),
                units::capEnergyWindow(Farads(18.03e-3), Volts(3.5),
                                       Volts(1.9))
                    .raw(),
                1e-4);
}

TEST(ReactBuffer, LongevityRequestSemantics)
{
    ReactBuffer buf;
    EXPECT_TRUE(buf.levelSatisfied());  // nothing requested
    buf.requestMinLevel(4);
    EXPECT_FALSE(buf.levelSatisfied());

    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 120.0, 6e-3, 0.1e-3);
    EXPECT_GE(buf.capacitanceLevel(), 4);
    EXPECT_TRUE(buf.levelSatisfied());

    // Requests clamp to the maximum level.
    buf.requestMinLevel(999);
    EXPECT_LE(buf.maxCapacitanceLevel(), 10);
}

TEST(ReactBuffer, SoftwareOverheadScalesWithPollRate)
{
    ReactConfig cfg = ReactConfig::paperConfig();
    ReactBuffer at10(cfg);
    EXPECT_NEAR(at10.softwareOverheadFraction(), 0.018, 1e-12);
    cfg.pollRateHz = Hertz(5.0);
    ReactBuffer at5(cfg);
    EXPECT_NEAR(at5.softwareOverheadFraction(), 0.009, 1e-12);
}

TEST(ReactBuffer, OverheadDrawAccrues)
{
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 30.0, 2e-3, 0.5e-3);
    EXPECT_GT(buf.ledger().overhead.raw(), 0.0);
    // Overhead is microwatt-scale: far below delivered energy.
    EXPECT_LT(buf.ledger().overhead.raw(),
              0.05 * buf.ledger().delivered.raw());
}

TEST(ReactBuffer, ResetRestoresColdStart)
{
    ReactBuffer buf;
    run(buf, 5.0, 2e-3, 0.0);
    buf.notifyBackendPower(true);
    run(buf, 30.0, 5e-3, 0.1e-3);
    buf.reset();
    EXPECT_DOUBLE_EQ(buf.railVoltage().raw(), 0.0);
    EXPECT_DOUBLE_EQ(buf.storedEnergy().raw(), 0.0);
    EXPECT_EQ(buf.capacitanceLevel(), 0);
    EXPECT_DOUBLE_EQ(buf.ledger().harvested.raw(), 0.0);
}

TEST(ReactBuffer, RestoreRejectsStateOffTheLadder)
{
    // CRC-valid "buffer" sections holding a controller level past the
    // top of the ladder, or a pending switch target that is no
    // BankState.  Restoring either used to succeed, and the next poll
    // then tripped an assertion instead of the run cold-starting.
    ReactBuffer source;
    snapshot::SnapshotWriter w;
    w.beginSection("buffer");
    source.save(w);
    w.endSection();
    const std::vector<uint8_t> image = w.finish();
    // Header 12 B, then the section's name length, name and u64 payload
    // length.  The payload holds the ledger (64 B), the last level
    // (16 B), the bank count (4 B) and 17 B per bank before the level.
    const size_t payload = 12 + 1 + 6 + 8;
    const size_t level_at = payload + 84 + 17 * source.bankCount();
    // Level, requested level, backendOn, two accumulators, transition
    // count, retired mask and FRAM recoveries take 41 B; bank 0's
    // watchdog record then puts its pending target 9 B in.
    const size_t target0_at = level_at + 41 + 9;

    const auto restoreLie = [&](size_t at, uint32_t value, bool word) {
        std::vector<uint8_t> lie = image;
        if (word)
            storeLe32(lie.data() + at, value);
        else
            lie[at] = static_cast<uint8_t>(value);
        storeLe32(lie.data() + lie.size() - 4,
                  crc32(lie.data() + 12, lie.size() - 4 - 12));
        ReactBuffer target;
        snapshot::SnapshotReader r(std::move(lie));
        r.beginSection("buffer");
        target.restore(r);
        r.endSection();
    };
    // The offsets are right: the level and target read back unchanged.
    EXPECT_NO_THROW(restoreLie(level_at, 0, true));
    EXPECT_NO_THROW(restoreLie(target0_at, 0, false));
    EXPECT_THROW(restoreLie(level_at,
                            static_cast<uint32_t>(
                                source.maxCapacitanceLevel() + 1),
                            true),
                 snapshot::SnapshotError);
    EXPECT_THROW(restoreLie(level_at, 0xffffffffu, true),
                 snapshot::SnapshotError);
    EXPECT_THROW(restoreLie(target0_at, 3, false), snapshot::SnapshotError);
}

TEST(ReactBuffer, LedgerConservationUnderMixedDrive)
{
    ReactBuffer buf;
    Rng rng(99);
    buf.notifyBackendPower(false);
    double t = 0.0;
    bool on = false;
    while (t < 120.0) {
        const double p = rng.uniform(0.0, 8e-3);
        const double load = on ? rng.uniform(0.0, 3e-3) : 0.0;
        for (int i = 0; i < 1000; ++i)
            buf.step(Seconds(1e-3), Watts(p), Amps(load));
        t += 1.0;
        // Emulate gate transitions.
        if (!on && buf.railVoltage() >= Volts(3.3)) {
            on = true;
            buf.notifyBackendPower(true);
        } else if (on && buf.railVoltage() <= Volts(1.8)) {
            on = false;
            buf.notifyBackendPower(false);
        }
    }
    expectConservation(buf);
}

} // namespace
} // namespace core
} // namespace react
