/**
 * @file
 * Tests for REACT's isolated capacitor banks, the level policy, and the
 * configuration constraints (Equations 1-2, S 3.3.5).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/bank.hh"
#include "core/bank_policy.hh"
#include "core/react_config.hh"
#include "snapshot/snapshot.hh"
#include "util/units.hh"

namespace react {
namespace core {
namespace {

using units::Amps;
using units::Coulombs;
using units::Farads;
using units::Joules;
using units::Seconds;
using units::Volts;

BankSpec
makeSpec(int n, Farads c_unit)
{
    BankSpec spec;
    spec.count = n;
    spec.unit.capacitance = c_unit;
    spec.unit.ratedVoltage = Volts(6.3);
    return spec;
}

TEST(BankSpec, CapacitanceArithmetic)
{
    const BankSpec spec = makeSpec(3, Farads(220e-6));
    EXPECT_NEAR(spec.seriesCapacitance().raw(), 220e-6 / 3.0, 1e-12);
    EXPECT_NEAR(spec.parallelCapacitance().raw(), 660e-6, 1e-12);
}

TEST(Bank, TerminalAbstractionByState)
{
    CapacitorBank bank(makeSpec(3, Farads(220e-6)));
    bank.setUnitVoltage(Volts(1.5));

    EXPECT_EQ(bank.state(), BankState::Disconnected);
    EXPECT_DOUBLE_EQ(bank.terminalVoltage().raw(), 0.0);
    EXPECT_DOUBLE_EQ(bank.terminalCapacitance().raw(), 0.0);

    bank.setState(BankState::Series);
    EXPECT_NEAR(bank.terminalVoltage().raw(), 4.5, 1e-12);
    EXPECT_NEAR(bank.terminalCapacitance().raw(), 220e-6 / 3.0, 1e-15);

    bank.setState(BankState::Parallel);
    EXPECT_NEAR(bank.terminalVoltage().raw(), 1.5, 1e-12);
    EXPECT_NEAR(bank.terminalCapacitance().raw(), 660e-6, 1e-12);
}

TEST(Bank, ReconfigurationConservesEnergy)
{
    // S 3.3.3-3.3.4: series<->parallel transitions conserve stored energy
    // exactly (per-capacitor charge untouched).
    CapacitorBank bank(makeSpec(4, Farads(100e-6)));
    bank.setUnitVoltage(Volts(2.0));
    bank.setState(BankState::Parallel);
    const Joules e = bank.storedEnergy();
    bank.setState(BankState::Series);
    EXPECT_DOUBLE_EQ(bank.storedEnergy().raw(), e.raw());
    bank.setState(BankState::Disconnected);
    EXPECT_DOUBLE_EQ(bank.storedEnergy().raw(), e.raw());
    bank.setState(BankState::Parallel);
    EXPECT_DOUBLE_EQ(bank.storedEnergy().raw(), e.raw());
}

TEST(Bank, ReclamationBoostsVoltageByN)
{
    // A parallel bank drained to V_low presents N * V_low in series.
    CapacitorBank bank(makeSpec(3, Farads(880e-6)));
    bank.setState(BankState::Parallel);
    bank.setUnitVoltage(Volts(1.9));
    bank.setState(BankState::Series);
    EXPECT_NEAR(bank.terminalVoltage().raw(), 5.7, 1e-12);
}

TEST(Bank, StrandedEnergyShrinksByNSquared)
{
    // S 3.3.4: draining the series bank to V_low strands
    // E = C_unit V_low^2 / (2 N) versus N C_unit V_low^2 / 2 without
    // reclamation -- an N^2 reduction.
    const int n = 3;
    const Farads c{880e-6};
    const Volts v_low{1.9};
    CapacitorBank bank(makeSpec(n, c));
    bank.setState(BankState::Parallel);
    bank.setUnitVoltage(v_low);
    const Joules stranded_without = bank.storedEnergy();

    bank.setState(BankState::Series);
    // Drain the terminal down to v_low.
    const Coulombs dq = bank.terminalCapacitance() *
        (v_low - bank.terminalVoltage());
    bank.addChargeAtTerminal(dq);
    const Joules stranded_with = bank.storedEnergy();

    EXPECT_NEAR(stranded_without / stranded_with,
                static_cast<double>(n * n), 1e-9);
}

TEST(Bank, SeriesChargePassesThroughEveryUnit)
{
    CapacitorBank bank(makeSpec(2, Farads(100e-6)));
    bank.setState(BankState::Series);
    bank.addChargeAtTerminal(Coulombs(100e-6 * 1.0));  // 100 uC
    // Each unit gains 1 V; terminal 2 V; C_eff = 50 uF.
    EXPECT_NEAR(bank.unitVoltage().raw(), 1.0, 1e-12);
    EXPECT_NEAR(bank.terminalVoltage().raw(), 2.0, 1e-12);
}

TEST(Bank, ParallelChargeSplits)
{
    CapacitorBank bank(makeSpec(2, Farads(100e-6)));
    bank.setState(BankState::Parallel);
    bank.addChargeAtTerminal(Coulombs(100e-6 * 1.0));
    EXPECT_NEAR(bank.unitVoltage().raw(), 0.5, 1e-12);
    EXPECT_NEAR(bank.terminalVoltage().raw(), 0.5, 1e-12);
}

TEST(Bank, LeakAndClip)
{
    BankSpec spec = makeSpec(2, Farads(100e-6));
    spec.unit.leakageCurrentAtRated = Amps(6.3e-6);  // 1 MOhm
    CapacitorBank bank(spec);
    bank.setUnitVoltage(Volts(3.0));
    const Joules lost = bank.leak(Seconds(5.0));
    EXPECT_GT(lost.raw(), 0.0);
    EXPECT_LT(bank.unitVoltage().raw(), 3.0);

    bank.setUnitVoltage(Volts(7.0));
    const Joules clipped = bank.clipToRating();
    EXPECT_NEAR(bank.unitVoltage().raw(), 6.3, 1e-12);
    EXPECT_GT(clipped.raw(), 0.0);
}

TEST(Bank, RestoreRejectsUnrepresentableFields)
{
    // CRC-valid "bank" sections whose fields no bank can hold.  State 3
    // (no such arrangement) would otherwise decode as a connected bank
    // with a 0 F terminal; the others would reach the unit's asserting
    // setters.
    struct Section
    {
        uint8_t state;
        double voltage;
        double capacitance;
    };
    const double inf = std::numeric_limits<double>::infinity();
    const Section bad[] = {
        {3, 1.0, 1e-3},   {1, -1.0, 1e-3}, {1, std::nan(""), 1e-3},
        {1, inf, 1e-3},   {1, 1.0, 0.0},   {1, 1.0, -1e-3},
        {1, 1.0, inf},
    };
    for (const Section &sec : bad) {
        snapshot::SnapshotWriter w;
        w.beginSection("bank");
        w.u8(sec.state);
        w.f64(sec.voltage);
        w.f64(sec.capacitance);
        w.endSection();
        CapacitorBank bank(makeSpec(3, Farads(220e-6)));
        bank.setUnitVoltage(Volts(1.5));
        snapshot::SnapshotReader r(w.finish());
        r.beginSection("bank");
        EXPECT_THROW(bank.restore(r), snapshot::SnapshotError)
            << "state " << int(sec.state) << " v " << sec.voltage
            << " c " << sec.capacitance;
        // Nothing was assigned before the throw.
        EXPECT_EQ(bank.state(), BankState::Disconnected);
        EXPECT_EQ(bank.unitVoltage().raw(), 1.5);
        EXPECT_EQ(bank.storedEnergy().raw(),
                  3.0 * units::capEnergy(Farads(220e-6), Volts(1.5)).raw());
    }
}

TEST(BankPolicy, LevelMapping)
{
    BankPolicy policy(3);
    EXPECT_EQ(policy.maxLevel(), 6);
    EXPECT_EQ(policy.healthyCount(), 3);
    // Level 0: everything disconnected.
    for (int b = 0; b < 3; ++b)
        EXPECT_EQ(policy.stateForLevel(b, 0), BankState::Disconnected);
    // Level 3: bank0 parallel, bank1 series, bank2 disconnected.
    EXPECT_EQ(policy.stateForLevel(0, 3), BankState::Parallel);
    EXPECT_EQ(policy.stateForLevel(1, 3), BankState::Series);
    EXPECT_EQ(policy.stateForLevel(2, 3), BankState::Disconnected);
    // Level 6: everything parallel.
    for (int b = 0; b < 3; ++b)
        EXPECT_EQ(policy.stateForLevel(b, 6), BankState::Parallel);

    // Bank 1 retired: the ladder closes over banks 0 and 2, and bank 2
    // takes the slots bank 1 owned.
    const uint32_t mask = 0b010;
    EXPECT_EQ(policy.healthyCount(mask), 2);
    EXPECT_EQ(policy.maxLevel(mask), 4);
    EXPECT_EQ(policy.stateForLevel(0, 3, mask), BankState::Parallel);
    EXPECT_EQ(policy.stateForLevel(1, 3, mask), BankState::Disconnected);
    EXPECT_EQ(policy.stateForLevel(2, 3, mask), BankState::Series);
    for (int lv = 0; lv <= 4; ++lv)
        EXPECT_EQ(policy.stateForLevel(1, lv, mask),
                  BankState::Disconnected);
    EXPECT_EQ(policy.stateForLevel(2, 4, mask), BankState::Parallel);
}

TEST(ReactConfig, PaperTable1Inventory)
{
    const ReactConfig cfg = ReactConfig::paperConfig();
    EXPECT_NEAR(cfg.minCapacitance().raw(), 770e-6, 1e-9);
    // 770u + 660u + 1320u + 2640u + 2640u + 10000u = 18.03 mF.
    EXPECT_NEAR(cfg.maxCapacitance().raw(), 18.03e-3, 1e-6);
    EXPECT_EQ(cfg.banks.size(), 5u);
    EXPECT_TRUE(cfg.validate());
}

TEST(ReactConfig, Equation1SpikeVoltage)
{
    const ReactConfig cfg = ReactConfig::paperConfig();
    for (const auto &bank : cfg.banks) {
        const Volts v_new = cfg.reclamationSpikeVoltage(bank);
        // Charge conservation sanity: between V_low and N V_low...
        EXPECT_GT(v_new.raw(), cfg.vLow.raw());
        EXPECT_LT(v_new.raw(), bank.count * cfg.vLow.raw() + 1e-9);
        // ...and below the buffer-full threshold (the Eq. 2 guarantee).
        EXPECT_LT(v_new.raw(), cfg.vHigh.raw());
    }
}

TEST(ReactConfig, Equation2Limit)
{
    ReactConfig cfg = ReactConfig::paperConfig();
    // N = 3, C_last = 770 uF, V_high = 3.5, V_low = 1.9:
    // limit = 3 * 770u * 1.6 / (5.7 - 3.5) = 1680 uF.
    EXPECT_NEAR(cfg.unitCapacitanceLimit(3).raw(), 1680e-6, 1e-8);
    // N V_low <= V_high -> unconstrained.
    cfg.vLow = Volts(1.0);
    cfg.vHigh = Volts(3.5);
    EXPECT_TRUE(std::isinf(cfg.unitCapacitanceLimit(3).raw()));
}

TEST(ReactConfig, ValidateRejectsOversizedUnits)
{
    ReactConfig cfg = ReactConfig::paperConfig();
    cfg.banks[0].unit.capacitance = Farads(5e-3);  // >> 1680 uF limit, N=3
    std::string error;
    EXPECT_FALSE(cfg.validate(&error));
    EXPECT_NE(error.find("Eq. 2"), std::string::npos);
}

TEST(ReactConfig, ValidateRejectsBadThresholds)
{
    ReactConfig cfg = ReactConfig::paperConfig();
    cfg.vLow = Volts(3.6);
    EXPECT_FALSE(cfg.validate());

    cfg = ReactConfig::paperConfig();
    cfg.vHigh = Volts(3.7);  // above the 3.6 V clamp
    EXPECT_FALSE(cfg.validate());
}

} // namespace
} // namespace core
} // namespace react
