/**
 * @file
 * Tests for the deterministic hardware fault injector and the hardened
 * management software it exercises: per-component stream derivation,
 * schedule determinism, torn-FRAM crash consistency, the REACT watchdog's
 * bank retirement, and safe-default recovery from corrupt config records.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/react_buffer.hh"
#include "harness/grid.hh"
#include "intermittent/nonvolatile.hh"
#include "sim/fault_injector.hh"
#include "snapshot/snapshot.hh"
#include "trace/paper_traces.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace react {
namespace {

using core::ReactBuffer;
using sim::FaultEventKind;
using sim::FaultInjector;
using sim::FaultPlan;
using units::Amps;
using units::Seconds;
using units::Volts;
using units::Watts;

// ---------------------------------------------------------------------
// Seeding: child streams are pure functions of (master seed, tag).
// ---------------------------------------------------------------------

TEST(FaultSeeding, ChildStreamsAreReproducible)
{
    Rng a(42);
    Rng b(42);
    Rng child_a = a.child(7);
    // Consuming draws from the master or other children must not shift
    // an already-derived (or later-derived) child stream.
    a.uniform(0.0, 1.0);
    Rng unrelated = a.child(99);
    unrelated.uniform(0.0, 1.0);
    Rng child_b = b.child(7);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(child_a.next(), child_b.next());
}

TEST(FaultSeeding, ComponentStreamsAreOrderIndependent)
{
    // Component streams are keyed by name, so the order in which
    // components first touch the injector must not change any stream.
    FaultPlan plan;
    plan.comparatorMisreadsPerHour = 1000.0;
    plan.comparatorDriftVoltsPerSqrtHour = 0.1;

    FaultInjector first(plan, 123);
    FaultInjector second(plan, 123);

    // Warm them up in opposite component order.
    first.comparatorRead("alpha", Volts(2.0));
    first.comparatorRead("beta", Volts(2.0));
    second.comparatorRead("beta", Volts(2.0));
    second.comparatorRead("alpha", Volts(2.0));

    for (int i = 0; i < 2000; ++i) {
        first.advance(Seconds(1e-3));
        second.advance(Seconds(1e-3));
        EXPECT_DOUBLE_EQ(first.comparatorRead("alpha", Volts(2.5)).raw(),
                         second.comparatorRead("alpha", Volts(2.5)).raw());
        EXPECT_DOUBLE_EQ(first.comparatorRead("beta", Volts(2.5)).raw(),
                         second.comparatorRead("beta", Volts(2.5)).raw());
    }
}

// ---------------------------------------------------------------------
// Determinism: the same plan and seed replay the same fault schedule.
// ---------------------------------------------------------------------

TEST(FaultInjector, SamePlanAndSeedReplayIdentically)
{
    const FaultPlan plan = FaultPlan::stress(2.0);
    FaultInjector a(plan, 0xabcdef);
    FaultInjector b(plan, 0xabcdef);

    double sum_a = 0.0;
    double sum_b = 0.0;
    for (int i = 0; i < 200000; ++i) {
        a.advance(Seconds(1e-3));
        b.advance(Seconds(1e-3));
        sum_a += a.filterHarvest(Watts(1e-3)).raw();
        sum_b += b.filterHarvest(Watts(1e-3)).raw();
        sum_a += a.comparatorRead("comp", Volts(2.0)).raw();
        sum_b += b.comparatorRead("comp", Volts(2.0)).raw();
    }
    EXPECT_DOUBLE_EQ(sum_a, sum_b);
    EXPECT_EQ(a.faultCount(), b.faultCount());
    EXPECT_EQ(a.events().size(), b.events().size());
    for (size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_DOUBLE_EQ(a.events()[i].time.raw(), b.events()[i].time.raw());
    }
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    FaultPlan plan;
    plan.harvesterDropoutsPerHour = 500.0;
    FaultInjector a(plan, 1);
    FaultInjector b(plan, 2);
    double first_a = -1.0;
    double first_b = -1.0;
    for (int i = 0; i < 3600000 && (first_a < 0.0 || first_b < 0.0);
         ++i) {
        a.advance(Seconds(1e-3));
        b.advance(Seconds(1e-3));
        if (first_a < 0.0 && a.inHarvesterDropout())
            first_a = a.now().raw();
        if (first_b < 0.0 && b.inHarvesterDropout())
            first_b = b.now().raw();
    }
    ASSERT_GE(first_a, 0.0);
    ASSERT_GE(first_b, 0.0);
    EXPECT_NE(first_a, first_b);
}

TEST(FaultInjector, DropoutsZeroHarvestAndAreBalanced)
{
    FaultPlan plan;
    plan.harvesterDropoutsPerHour = 200.0;
    plan.harvesterDropoutMeanSeconds = Seconds(2.0);
    FaultInjector inj(plan, 7);
    for (int i = 0; i < 3600000; ++i) {
        inj.advance(Seconds(1e-3));
        if (inj.inHarvesterDropout())
            EXPECT_EQ(inj.filterHarvest(Watts(5e-3)).raw(), 0.0);
        else
            EXPECT_EQ(inj.filterHarvest(Watts(5e-3)).raw(), 5e-3);
    }
    const uint64_t begins =
        inj.eventCount(FaultEventKind::HarvesterDropoutBegin);
    const uint64_t ends =
        inj.eventCount(FaultEventKind::HarvesterDropoutEnd);
    EXPECT_GT(begins, 0u);
    // Every dropout that began either ended or is still in progress.
    EXPECT_GE(begins, ends);
    EXPECT_LE(begins - ends, 1u);
}

TEST(FaultInjector, ZeroPlanIsTransparent)
{
    // An attached all-zero injector must behave as if absent: reads pass
    // through, switches never jam, harvest is untouched.
    FaultInjector inj(FaultPlan::none(), 99);
    for (int i = 0; i < 1000; ++i) {
        inj.advance(Seconds(1e-3));
        EXPECT_EQ(inj.comparatorRead("c", Volts(1.23)).raw(), 1.23);
        EXPECT_TRUE(inj.switchActuates("s"));
        EXPECT_EQ(inj.filterHarvest(Watts(2e-3)).raw(), 2e-3);
        EXPECT_EQ(inj.capacitanceFactor("cap"), 1.0);
        EXPECT_EQ(inj.esrMultiplier("sw"), 1.0);
    }
    EXPECT_EQ(inj.faultCount(), 0u);
}

// ---------------------------------------------------------------------
// Torn FRAM writes must never break crash consistency: the committed
// double-buffer slot stays readable, only the in-flight slot is hit.
// ---------------------------------------------------------------------

TEST(FaultInjector, TornWriteLeavesCommittedDataReadable)
{
    FaultPlan plan;
    plan.framCorruptionPerPowerLoss = 1.0;
    FaultInjector inj(plan, 5);

    intermittent::NonVolatileStore nv;
    nv.attachFaultInjector(&inj);

    const std::vector<uint8_t> committed = {1, 2, 3, 4};
    nv.stage("key", committed);
    nv.commit();

    for (int attempt = 0; attempt < 8; ++attempt) {
        nv.stage("key", std::vector<uint8_t>(64, 0xee));
        nv.failInFlightWrites();  // tear guaranteed by the plan
        std::vector<uint8_t> out;
        ASSERT_TRUE(nv.read("key", &out));
        EXPECT_EQ(out, committed);
    }
    EXPECT_GT(inj.eventCount(FaultEventKind::FramCorruption), 0u);
}

// ---------------------------------------------------------------------
// Watchdog: a jammed bank switch is detected from terminal-voltage
// telemetry and the bank is retired; the buffer keeps operating on the
// remaining banks (ultimately last-level-only).
// ---------------------------------------------------------------------

TEST(Watchdog, RetiresStuckBanksAndKeepsOperating)
{
    FaultPlan plan;
    plan.switchStuckProbability = 1.0;  // every commanded transition jams
    FaultInjector inj(plan, 11);

    ReactBuffer buf;
    buf.attachFaultInjector(&inj);

    // Generous harvest drives the controller up the ladder; every bank
    // connection attempt jams and must be retired within a few polls.
    // The management software runs on the backend MCU, so emulate the
    // power gate (on at 3.3 V, brown-out at 1.8 V).
    bool on = false;
    for (int i = 0; i < 400000; ++i) {
        inj.advance(Seconds(1e-3));
        buf.step(Seconds(1e-3), Watts(20e-3), Amps(on ? 1e-3 : 0.0));
        if (!on && buf.railVoltage() >= Volts(3.3)) {
            on = true;
            buf.notifyBackendPower(true);
        } else if (on && buf.railVoltage() <= Volts(1.8)) {
            on = false;
            buf.notifyBackendPower(false);
        }
    }

    EXPECT_EQ(buf.retiredBankCount(), buf.bankCount());
    EXPECT_EQ(buf.maxCapacitanceLevel(), 0);
    EXPECT_EQ(static_cast<int>(
                  inj.eventCount(FaultEventKind::BankRetired)),
              buf.bankCount());

    // Last-level-only operation: the rail still regulates inside the
    // paper's comparator band and the backend can draw from it.
    EXPECT_GE(buf.railVoltage().raw(), buf.config().vLow.raw());
    EXPECT_LE(buf.railVoltage().raw(), buf.config().railClamp.raw() + 1e-9);
    const units::Joules before = buf.storedEnergy();
    buf.step(Seconds(1e-3), Watts(0.0), Amps(1e-3));
    EXPECT_LT(buf.storedEnergy().raw(), before.raw());
}

TEST(Watchdog, HealthyBuffersNeverRetireUnderMisreads)
{
    // Transient comparator misreads alone must not accumulate into a
    // retirement: the counters reset whenever telemetry matches the
    // commanded state again.
    FaultPlan plan;
    plan.comparatorMisreadsPerHour = 3000.0;
    plan.comparatorMisreadMagnitude = 1.5;
    FaultInjector inj(plan, 13);

    ReactBuffer buf;
    buf.attachFaultInjector(&inj);
    bool on = false;
    for (int i = 0; i < 600000; ++i) {
        inj.advance(Seconds(1e-3));
        buf.step(Seconds(1e-3), Watts(15e-3),
                 Amps(on && i % 2 == 0 ? 1e-3 : 0.0));
        if (!on && buf.railVoltage() >= Volts(3.3)) {
            on = true;
            buf.notifyBackendPower(true);
        } else if (on && buf.railVoltage() <= Volts(1.8)) {
            on = false;
            buf.notifyBackendPower(false);
        }
    }
    EXPECT_GT(buf.capacitanceLevel(), 0);  // the controller did run
    EXPECT_EQ(buf.retiredBankCount(), 0);
}

// ---------------------------------------------------------------------
// FRAM config record: a corrupt record is detected by CRC and replaced
// with the safe default instead of being trusted.
// ---------------------------------------------------------------------

TEST(FramRecovery, CorruptRecordFallsBackToSafeDefault)
{
    FaultPlan plan;
    plan.framCorruptionPerPowerLoss = 1.0;
    FaultInjector inj(plan, 17);

    ReactBuffer buf;
    buf.attachFaultInjector(&inj);

    // Charge until the backend window opens, then let the controller
    // climb the ladder (it polls only while the backend is powered).
    bool on = false;
    for (int i = 0; i < 300000; ++i) {
        inj.advance(Seconds(1e-3));
        buf.step(Seconds(1e-3), Watts(20e-3), Amps(0.0));
        if (!on && buf.railVoltage() >= Volts(3.3)) {
            on = true;
            buf.notifyBackendPower(true);
        }
    }
    ASSERT_TRUE(on);
    ASSERT_GT(buf.capacitanceLevel(), 0);

    // Power loss tears the persisted record; the next boot must detect
    // the corruption and restart from the safe default level 0.
    buf.notifyBackendPower(false);
    buf.notifyBackendPower(true);
    EXPECT_EQ(buf.capacitanceLevel(), 0);
    EXPECT_EQ(buf.framRecoveries(), 1);
    EXPECT_GE(static_cast<int>(
                  inj.eventCount(FaultEventKind::FramRecovery)),
              1);

    // The buffer keeps working after recovery: it can climb again
    // (the backend is on, so the controller resumes polling).
    for (int i = 0; i < 200000; ++i) {
        inj.advance(Seconds(1e-3));
        buf.step(Seconds(1e-3), Watts(20e-3), Amps(0.0));
    }
    EXPECT_GT(buf.capacitanceLevel(), 0);
}

// ---------------------------------------------------------------------
// Snapshot round-trip: a restored injector replays the uninterrupted
// fault schedule bit-for-bit (the property experiment checkpoints rely
// on -- a resumed run must see the exact same faults it would have).
// ---------------------------------------------------------------------

TEST(FaultSnapshot, RestoredInjectorReplaysTheExactSchedule)
{
    FaultPlan plan;
    plan.comparatorMisreadsPerHour = 2000.0;
    plan.comparatorDriftVoltsPerSqrtHour = 0.05;
    plan.switchStuckProbability = 0.01;
    plan.switchSlowProbability = 0.05;
    plan.harvesterDropoutsPerHour = 400.0;
    plan.framCorruptionPerPowerLoss = 0.5;

    FaultInjector live(plan, 97);
    // Warm up: let every component lazily create its stream, including
    // one that has already jammed by the time we snapshot.
    Rng stim(5);
    for (int i = 0; i < 5000; ++i) {
        live.advance(Seconds(1e-3));
        (void)live.comparatorRead("cmp", Volts(stim.uniform(1.0, 3.0)));
        if (i % 50 == 0)
            (void)live.switchActuates("sw");
    }

    snapshot::SnapshotWriter w;
    w.beginSection("inj");
    live.save(w);
    w.endSection();
    const std::vector<uint8_t> image = w.finish();

    // Restore into an injector built with a different seed: every word
    // of stream state must come from the snapshot, not the constructor.
    FaultInjector restored(plan, 1);
    snapshot::SnapshotReader r(image);
    r.beginSection("inj");
    restored.restore(r);
    r.endSection();

    EXPECT_DOUBLE_EQ(restored.now().raw(), live.now().raw());
    EXPECT_EQ(restored.faultCount(), live.faultCount());
    for (int i = 0; i < 20000; ++i) {
        live.advance(Seconds(1e-3));
        restored.advance(Seconds(1e-3));
        const Volts v(stim.uniform(1.0, 3.0));
        EXPECT_DOUBLE_EQ(restored.comparatorRead("cmp", v).raw(),
                         live.comparatorRead("cmp", v).raw());
        EXPECT_EQ(restored.filterHarvest(Watts(1e-3)).raw(),
                  live.filterHarvest(Watts(1e-3)).raw());
        if (i % 100 == 0) {
            EXPECT_EQ(restored.switchActuates("sw"),
                      live.switchActuates("sw"));
            std::vector<uint8_t> a{1, 2, 3, 4}, b{1, 2, 3, 4};
            EXPECT_EQ(restored.maybeCorruptOnPowerLoss("fram", &a),
                      live.maybeCorruptOnPowerLoss("fram", &b));
            EXPECT_EQ(a, b);
        }
    }
    EXPECT_EQ(restored.faultCount(), live.faultCount());
    EXPECT_EQ(restored.recoveryCount(), live.recoveryCount());
}

// ---------------------------------------------------------------------
// Fault paths pinned bit for bit.  The goldens run fault-free, so they
// do not reach REACT's shorted-diode back transfer, the slow-switch
// landing, or either buffer's capacitance fade.  One RF cell per
// reconfigurable buffer runs under a plan that fires all of them; its
// state digest, counters, residual energy and the raw bits of every
// ledger category are literals.  They move only if the faulted physics
// changes.  (The digest alone would not do: it is a CRC-32 over an
// image that ends in its own section CRC, so it depends only on the
// image length.)
// ---------------------------------------------------------------------

FaultPlan
pinnedFaultPlan()
{
    FaultPlan plan;
    plan.switchSlowProbability = 0.3;
    plan.capacitanceFadePerHour = 0.5;
    plan.esrRisePerHour = 2.0;
    plan.diodeFailuresPerHour = 8.0;
    plan.diodeShortFraction = 0.5;
    return plan;
}

uint64_t
bitsOf(double raw)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &raw, sizeof bits);
    return bits;
}

/** Count of logged events of @p kind on a component whose name
 *  contains @p part. */
int
loggedEvents(const harness::ExperimentResult &r, FaultEventKind kind,
             const std::string &part)
{
    int n = 0;
    for (const sim::FaultEvent &e : r.faultLog) {
        if (e.kind == kind && e.component.find(part) != std::string::npos)
            ++n;
    }
    return n;
}

struct CellPin
{
    uint32_t digest;
    uint64_t steps, workUnits, faultEvents, residualEnergy;
    uint64_t harvested, delivered, clipped, leaked, switchLoss, diodeLoss,
        overhead, faultLoss;
};

void
expectPinned(const harness::ExperimentResult &r, const CellPin &pin)
{
    EXPECT_EQ(r.stateDigest, pin.digest);
    EXPECT_EQ(r.steps, pin.steps);
    EXPECT_EQ(r.workUnits, pin.workUnits);
    EXPECT_EQ(r.faultEvents, pin.faultEvents);
    EXPECT_EQ(bitsOf(r.residualEnergy), pin.residualEnergy);
    EXPECT_EQ(bitsOf(r.ledger.harvested.raw()), pin.harvested);
    EXPECT_EQ(bitsOf(r.ledger.delivered.raw()), pin.delivered);
    EXPECT_EQ(bitsOf(r.ledger.clipped.raw()), pin.clipped);
    EXPECT_EQ(bitsOf(r.ledger.leaked.raw()), pin.leaked);
    EXPECT_EQ(bitsOf(r.ledger.switchLoss.raw()), pin.switchLoss);
    EXPECT_EQ(bitsOf(r.ledger.diodeLoss.raw()), pin.diodeLoss);
    EXPECT_EQ(bitsOf(r.ledger.overhead.raw()), pin.overhead);
    EXPECT_EQ(bitsOf(r.ledger.faultLoss.raw()), pin.faultLoss);
}

harness::ExperimentResult
runPinnedCell(harness::BufferKind kind)
{
    harness::ExperimentConfig cfg;
    cfg.faultPlan = pinnedFaultPlan();
    return harness::runGridCell(kind, harness::BenchmarkKind::SenseCompute,
                                trace::PaperTrace::RfCart, cfg);
}

TEST(FaultPathPin, ReactRfCellUnderFadeDiodeAndSlowSwitchFaults)
{
    const auto r = runPinnedCell(harness::BufferKind::React);
    // The plan reaches the paths the pin is for.
    EXPECT_GT(loggedEvents(r, FaultEventKind::DiodeShort, ".diode.out"), 0);
    EXPECT_GT(loggedEvents(r, FaultEventKind::DiodeOpen, ".diode"), 0);
    EXPECT_GT(loggedEvents(r, FaultEventKind::SwitchSlow, ".switch"), 0);
    EXPECT_GT(r.ledger.faultLoss.raw(), 0.0);
    expectPinned(r, CellPin{0xca752d77u, 415487u, 77u, 13u,
                            0x3f988037176b0a71u, 0x3fe53bdb584b4b5fu,
                            0x3fdad7b3271005a0u, 0x3fc4e64904b0052cu,
                            0x3f920d8a27732bffu, 0x3f66ac846eac2080u,
                            0x3f62f01cef0ea7f2u, 0x3f9e26fa25c2a1c4u,
                            0x3f7396838a426ecdu});
}

TEST(FaultPathPin, MorphyRfCellUnderFadeAndSlowSwitchFaults)
{
    const auto r = runPinnedCell(harness::BufferKind::Morphy);
    EXPECT_GT(loggedEvents(r, FaultEventKind::SwitchSlow, "morphy.fabric"),
              0);
    EXPECT_GT(r.ledger.faultLoss.raw(), 0.0);
    expectPinned(r, CellPin{0xf09fcc02u, 425183u, 78u, 14u,
                            0x3f66bf719f8310c1u, 0x3fe53bfb9275ce2au,
                            0x3fdb43b371a29281u, 0x3fc774cd0001b04cu,
                            0x3f9d1678a6a202c6u, 0x3f9796f7fb9d2b34u,
                            0x0000000000000000u, 0x0000000000000000u,
                            0x3f18745e50353324u});
}

} // namespace
} // namespace react
