/**
 * @file
 * Property tests for the hot-loop transcendental caches (DESIGN.md,
 * "Hot loop").
 *
 * The engine's correctness claim is *bit-identity*: every cache
 * re-evaluates its value through the exact operation sequence the
 * uncached code used (leak decay, transfer decay), so a cached run and
 * an uncached run produce the same bytes.  These tests
 * pin that claim across every mutation path that can stale a cached
 * value -- setCapacitance, setUnitCapacitance, fault-injected aging
 * drift, and snapshot restore -- by comparing against freshly
 * constructed objects whose caches are provably cold.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/bank.hh"
#include "sim/capacitor.hh"
#include "sim/charge_transfer.hh"
#include "sim/fault_injector.hh"
#include "sim/hotloop_stats.hh"
#include "snapshot/snapshot.hh"
#include "util/units.hh"

namespace react {
namespace sim {
namespace {

using core::BankSpec;
using core::CapacitorBank;
using units::Amps;
using units::Farads;
using units::Ohms;
using units::Seconds;
using units::Volts;

CapacitorSpec
leakySpec(Farads c = Farads(10e-3))
{
    CapacitorSpec spec;
    spec.capacitance = c;
    spec.ratedVoltage = Volts(6.3);
    spec.leakageCurrentAtRated = Amps(28e-6);
    return spec;
}

TEST(HotLoopCache, LeakCacheHitsAreBitIdentical)
{
    // A warm cache must reproduce the cold compute exactly: step a
    // long-lived capacitor (hits after the first step) against a fresh
    // capacitor rebuilt at the same voltage every step (all misses).
    const CapacitorSpec spec = leakySpec();
    const Seconds dt(1e-3);
    Capacitor cached(spec, Volts(3.3));
    double v_prev = 3.3;
    hotloop::resetCounters();
    for (int i = 0; i < 1000; ++i) {
        cached.leak(dt);
        Capacitor fresh(spec, Volts(v_prev));
        fresh.leak(dt);
        ASSERT_EQ(cached.voltage().raw(), fresh.voltage().raw())
            << "step " << i;
        v_prev = cached.voltage().raw();
    }
    const auto &c = hotloop::counters();
    // cached: 1 miss then hits; each fresh: 1 miss.
    EXPECT_EQ(c.leakCacheHits, 999u);
    EXPECT_EQ(c.leakCacheMisses, 1001u);
}

TEST(HotLoopCache, SetCapacitanceInvalidatesLeakCache)
{
    const Seconds dt(1e-3);
    Capacitor cap(leakySpec(), Volts(3.0));
    cap.leak(dt);  // warm the cache at the original tau
    cap.setCapacitance(Farads(4e-3));
    const double v_at_change = cap.voltage().raw();
    cap.leak(dt);

    Capacitor fresh(leakySpec(Farads(4e-3)), Volts(v_at_change));
    fresh.leak(dt);
    EXPECT_EQ(cap.voltage().raw(), fresh.voltage().raw());
}

TEST(HotLoopCache, AgingDriftInvalidatesEveryStep)
{
    // Fault-injected dielectric fade mutates capacitance repeatedly
    // mid-run (the aging path calls setCapacitance at the poll
    // cadence); every post-mutation leak must equal a cold compute.
    const Seconds dt(1e-3);
    Capacitor cap(leakySpec(), Volts(3.0));
    double c_now = 10e-3;
    for (int i = 0; i < 100; ++i) {
        c_now *= 0.9999;  // monotone drift, fresh tau each iteration
        cap.setCapacitance(Farads(c_now));
        const double v_before = cap.voltage().raw();
        cap.leak(dt);
        Capacitor fresh(leakySpec(Farads(c_now)), Volts(v_before));
        fresh.leak(dt);
        ASSERT_EQ(cap.voltage().raw(), fresh.voltage().raw())
            << "iteration " << i;
    }
}

TEST(HotLoopCache, SnapshotRestoreInvalidatesLeakCache)
{
    const Seconds dt(1e-3);
    // Source: derated capacitance (aging happened before the save).
    Capacitor source(leakySpec(), Volts(2.5));
    source.setCapacitance(Farads(7e-3));
    snapshot::SnapshotWriter w;
    w.beginSection("cap");
    source.save(w);
    w.endSection();

    // Target: same part, cache warmed at the *nominal* tau.  Restore
    // must rebuild the cache for the restored capacitance.
    Capacitor target(leakySpec(), Volts(3.0));
    target.leak(dt);
    snapshot::SnapshotReader r(w.finish());
    r.beginSection("cap");
    target.restore(r);
    r.endSection();
    EXPECT_EQ(target.capacitance().raw(), 7e-3);
    const double v_restored = target.voltage().raw();
    target.leak(dt);

    Capacitor fresh(leakySpec(Farads(7e-3)), Volts(v_restored));
    fresh.leak(dt);
    EXPECT_EQ(target.voltage().raw(), fresh.voltage().raw());
}

TEST(HotLoopCache, InfiniteLeakResistanceTakesZeroCostPath)
{
    // A lossless part (zero leakage current => infinite R_leak) must
    // skip the division and exp entirely: no energy moves and the
    // telemetry counters stay untouched (the early-out never reaches
    // the cache).
    CapacitorSpec spec;
    spec.capacitance = Farads(1e-3);
    spec.ratedVoltage = Volts(6.3);
    spec.leakageCurrentAtRated = Amps(0.0);
    Capacitor cap(spec, Volts(3.0));
    hotloop::resetCounters();
    double leaked = 0.0;
    for (int i = 0; i < 1000; ++i)
        leaked += cap.leak(Seconds(1e-3)).raw();
    EXPECT_EQ(leaked, 0.0);
    EXPECT_EQ(cap.voltage().raw(), 3.0);
    const auto &c = hotloop::counters();
    EXPECT_EQ(c.leakTotal(), 0u);
}

TEST(HotLoopCache, BankSetUnitCapacitanceInvalidates)
{
    const Seconds dt(1e-3);
    BankSpec spec;
    spec.count = 4;
    spec.unit = leakySpec(Farads(2e-3));
    CapacitorBank bank(spec);
    bank.setUnitVoltage(Volts(2.0));
    bank.leak(dt);  // warm at the nominal tau
    bank.setUnitCapacitance(Farads(1.5e-3));
    const double v_unit = bank.unitVoltage().raw();
    bank.leak(dt);

    BankSpec fresh_spec = spec;
    fresh_spec.unit.capacitance = Farads(1.5e-3);
    CapacitorBank fresh(fresh_spec);
    fresh.setUnitVoltage(Volts(v_unit));
    fresh.leak(dt);
    EXPECT_EQ(bank.unitVoltage().raw(), fresh.unitVoltage().raw());
}

TEST(HotLoopCache, BankRestoreInvalidates)
{
    const Seconds dt(1e-3);
    BankSpec spec;
    spec.count = 4;
    spec.unit = leakySpec(Farads(2e-3));
    CapacitorBank source(spec);
    source.setUnitVoltage(Volts(1.7));
    source.setUnitCapacitance(Farads(1.2e-3));
    snapshot::SnapshotWriter w;
    w.beginSection("bank");
    source.save(w);
    w.endSection();

    CapacitorBank target(spec);
    target.setUnitVoltage(Volts(2.2));
    target.leak(dt);  // warm at the nominal tau
    snapshot::SnapshotReader r(w.finish());
    r.beginSection("bank");
    target.restore(r);
    r.endSection();
    const double v_unit = target.unitVoltage().raw();
    target.leak(dt);

    BankSpec fresh_spec = spec;
    fresh_spec.unit.capacitance = Farads(1.2e-3);
    CapacitorBank fresh(fresh_spec);
    fresh.setUnitVoltage(Volts(v_unit));
    fresh.leak(dt);
    EXPECT_EQ(target.unitVoltage().raw(), fresh.unitVoltage().raw());
}

TEST(HotLoopCache, TransferCacheBitIdenticalToUncached)
{
    // Two identical capacitor pairs relaxed step by step, one through a
    // TransferCache and one without: every voltage and every ledger
    // quantity must match bitwise, including across key changes
    // (resistance and dt both flip mid-run -- the cache self-invalidates
    // on the key check, no explicit reset call exists).
    const CapacitorSpec spec = leakySpec(Farads(1e-3));
    Capacitor src_c(spec, Volts(3.5)), sink_c(spec, Volts(1.9));
    Capacitor src_u(spec, Volts(3.5)), sink_u(spec, Volts(1.9));
    TransferCache cache;
    hotloop::resetCounters();
    for (int i = 0; i < 500; ++i) {
        const Ohms r(i < 300 ? 1.0 : 2.5);       // key change at 300
        const Seconds dt(i < 400 ? 1e-3 : 5e-4); // key change at 400
        // Re-split every 20 steps so the pair never fully equalizes:
        // once dv falls below the diode drop transferCharge early-returns
        // and the key-check path (the thing under test) stops running.
        if (i % 20 == 0) {
            src_c.setVoltage(Volts(3.5));
            sink_c.setVoltage(Volts(1.9));
            src_u.setVoltage(Volts(3.5));
            sink_u.setVoltage(Volts(1.9));
        }
        const auto a = transferCharge(src_c, sink_c, r, Volts(0.01), dt,
                                      &cache);
        const auto b =
            transferCharge(src_u, sink_u, r, Volts(0.01), dt, nullptr);
        ASSERT_EQ(a.charge.raw(), b.charge.raw()) << "step " << i;
        ASSERT_EQ(a.resistiveLoss.raw(), b.resistiveLoss.raw());
        ASSERT_EQ(a.diodeLoss.raw(), b.diodeLoss.raw());
        ASSERT_EQ(src_c.voltage().raw(), src_u.voltage().raw());
        ASSERT_EQ(sink_c.voltage().raw(), sink_u.voltage().raw());
    }
    const auto &c = hotloop::counters();
    // The cached side misses on the first step and at both key changes.
    EXPECT_EQ(c.transferCacheMisses, 3u);
    EXPECT_GT(c.transferCacheHits, 0u);
}

} // namespace
} // namespace sim
} // namespace react
