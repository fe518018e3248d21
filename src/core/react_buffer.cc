#include "react_buffer.hh"

#include <algorithm>
#include <cmath>

#include "sim/charge_transfer.hh"
#include "sim/fault_injector.hh"
#include "snapshot/snapshot.hh"
#include "util/byte_codec.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace react {
namespace core {

namespace {

/** Floating-terminal threshold: below this a commanded-connected bank
 *  reads as not-actually-in-the-network. */
constexpr Volts kFloatingVoltage{0.02};

/** Stable per-bank component name, e.g. "react.bank2.switch". */
std::string
bankComponent(int index, const char *part)
{
    return "react.bank" + std::to_string(index) + "." + part;
}

} // namespace

ReactBuffer::ReactBuffer(const ReactConfig &config)
    : cfg(config), policy(static_cast<int>(config.banks.size())),
      lastLevel(config.lastLevel), pollPeriod(1.0 / config.pollRateHz)
{
    std::string error;
    react_assert(cfg.validate(&error), "invalid REACT config: %s",
                 error.c_str());
    react_assert(cfg.banks.size() <= 32,
                 "retirement mask supports at most 32 banks");
    banks.reserve(cfg.banks.size());
    for (const auto &spec : cfg.banks)
        banks.emplace_back(spec);
    watch.resize(banks.size());
    outTransfer.resize(banks.size());
    backTransfer.resize(banks.size());
    for (int i = 0; i < bankCount(); ++i) {
        switchNames.push_back(bankComponent(i, "switch"));
        telemetryNames.push_back(bankComponent(i, "telemetry"));
        inDiodeNames.push_back(bankComponent(i, "diode.in"));
        outDiodeNames.push_back(bankComponent(i, "diode.out"));
        bankCapNames.push_back(bankComponent(i, "cap"));
    }
}

void
ReactBuffer::attachFaultInjector(sim::FaultInjector *injector)
{
    faults = injector;
    if (faults != nullptr)
        persistFramRecord();
}

int
ReactBuffer::retiredBankCount() const
{
    return bankCount() - policy.healthyCount(retiredMask);
}

Volts
ReactBuffer::railVoltage() const
{
    return lastLevel.voltage();
}

Joules
ReactBuffer::storedEnergy() const
{
    Joules e = lastLevel.energy();
    for (const auto &bank : banks)
        e += bank.storedEnergy();
    return e;
}

Farads
ReactBuffer::equivalentCapacitance() const
{
    Farads c = lastLevel.capacitance();
    for (const auto &bank : banks)
        c += bank.terminalCapacitance();
    return c;
}

void
ReactBuffer::requestMinLevel(int min_level)
{
    requestedLevel = std::clamp(min_level, 0, policy.maxLevel(retiredMask));
}

bool
ReactBuffer::levelSatisfied() const
{
    if (requestedLevel <= 0)
        return true;
    // The capacitance level is only a valid stored-energy surrogate
    // while the buffer is near-full (it is raised at V_high and decays
    // into staleness after a discharge until an undervoltage walks it
    // down).  The guarantee therefore requires both: at or beyond the
    // requested level, with the buffer-full comparator asserted --
    // stored energy is then at least the requested level's full window.
    return level >= requestedLevel && lastLevel.voltage() >= cfg.vHigh;
}

Joules
ReactBuffer::usableEnergyAtLevel(int query_level) const
{
    // Conservative: the discharge window between the two comparator
    // thresholds at that level's capacitance (reclamation extracts more).
    const int lv = std::clamp(query_level, 0, policy.maxLevel(retiredMask));
    Farads c = lastLevel.capacitance();
    for (int i = 0; i < bankCount(); ++i) {
        const BankState s = policy.stateForLevel(i, lv, retiredMask);
        const BankSpec &spec = cfg.banks[static_cast<size_t>(i)];
        if (s == BankState::Series)
            c += spec.seriesCapacitance();
        else if (s == BankState::Parallel)
            c += spec.parallelCapacitance();
    }
    return units::capEnergyWindow(c, cfg.vHigh, cfg.vLow);
}

Joules
ReactBuffer::availableEnergy(Volts floor_voltage) const
{
    // Last-level window plus every connected bank's discharge window
    // down to the same rail floor (banks feed the rail through their
    // output diodes).  Conservative: ignores the extra charge the
    // parallel->series reclamation would recover below the floor.
    Joules e{0.0};
    if (lastLevel.voltage() > floor_voltage) {
        e += units::capEnergyWindow(lastLevel.capacitance(),
                                    lastLevel.voltage(), floor_voltage);
    }
    for (const auto &bank : banks) {
        if (!bank.connected())
            continue;
        const Volts v_t = bank.terminalVoltage();
        if (v_t > floor_voltage) {
            e += units::capEnergyWindow(bank.terminalCapacitance(), v_t,
                                        floor_voltage);
        }
    }
    return e;
}

void
ReactBuffer::notifyBackendPower(bool on)
{
    if (on == backendOn)
        return;
    backendOn = on;
    if (on) {
        // Power-up: restore the FRAM-recorded bank states.  The switches
        // reconnect banks at whatever charge they retained; isolation
        // diodes prevent any equalization current, so this is lossless.
        // Under fault injection the record is CRC-checked first: a write
        // torn by the preceding power loss resets to the safe default.
        if (faults != nullptr)
            restoreFramRecord();
        applyLevel();
        pollAccumulator = Seconds(0.0);
    } else {
        // Brown-out: normally-open switches release; banks float,
        // retaining per-capacitor charge.  A jammed switch cannot
        // release and keeps its bank wired into the network.
        for (int i = 0; i < bankCount(); ++i) {
            if (faults != nullptr &&
                faults->isSwitchStuck(switchNames[static_cast<size_t>(i)])) {
                continue;
            }
            banks[static_cast<size_t>(i)].setState(BankState::Disconnected);
        }
        // The power loss may have interrupted an FRAM config write.
        if (faults != nullptr && !framImage.empty())
            faults->maybeCorruptOnPowerLoss("react.fram", &framImage);
    }
}

double
ReactBuffer::softwareOverheadFraction() const
{
    return cfg.softwareOverheadAt10Hz * (cfg.pollRateHz / Hertz(10.0));
}

const CapacitorBank &
ReactBuffer::bank(int index) const
{
    return banks.at(static_cast<size_t>(index));
}

void
ReactBuffer::applyLevel()
{
    for (int i = 0; i < bankCount(); ++i) {
        const BankState target = policy.stateForLevel(i, level, retiredMask);
        actuateBank(i, target);
    }
}

bool
ReactBuffer::actuateBank(int index, BankState target)
{
    auto &bank = banks[static_cast<size_t>(index)];
    if (bank.state() == target)
        return true;
    if (faults == nullptr) {
        bank.setState(target);
        ++transitionCount;
        return true;
    }

    const size_t i = static_cast<size_t>(index);
    const BankState from = bank.state();
    const Volts v_before = bank.terminalVoltage();
    const double n = static_cast<double>(bank.count());

    bool moved = false;
    if (faults->switchActuates(switchNames[i])) {
        if (faults->switchDelayed(switchNames[i])) {
            // Sluggish mechanism: the transition lands one poll late.
            // In flight, not a fault the read-back should punish.
            watch[i].pending = true;
            watch[i].pendingTarget = target;
            return false;
        }
        bank.setState(target);
        ++transitionCount;
        moved = true;
    }

    // Read-back verification: lossless reconfiguration makes the
    // post-actuation terminal predictable from the pre-actuation reading
    // whenever the bank was already in the network (a bank reconnecting
    // from Disconnected floats beforehand, so its retained charge -- and
    // hence the expected terminal -- is unknown to the software).
    Volts expected{-1.0};
    if (target == BankState::Disconnected)
        expected = Volts(0.0);
    else if (from == BankState::Parallel && target == BankState::Series)
        expected = v_before * n;
    else if (from == BankState::Series && target == BankState::Parallel)
        expected = v_before / n;

    const Volts observed =
        faults->comparatorRead(telemetryNames[i], bank.terminalVoltage());
    if (expected >= Volts(0.0)) {
        if (units::abs(observed - expected) > cfg.watchdogTolerance)
            ++watch[i].mismatch;
        else if (moved)
            watch[i].mismatch = 0;
    } else if (!moved && observed < kFloatingVoltage) {
        // Commanded into the network but the terminal still floats.
        // Count only under harvest surplus: a healthy just-connected
        // empty bank would be soaking up input and rising off zero.
        if (lastLevel.voltage() >= cfg.vHigh - Volts(0.1))
            ++watch[i].floating;
    } else if (moved) {
        watch[i].floating = 0;
    }
    return moved;
}

void
ReactBuffer::watchdogService()
{
    // 1. Land slow actuations drawn at the previous poll.
    for (size_t i = 0; i < banks.size(); ++i) {
        if (!watch[i].pending)
            continue;
        watch[i].pending = false;
        if (banks[i].state() != watch[i].pendingTarget) {
            banks[i].setState(watch[i].pendingTarget);
            ++transitionCount;
        }
    }

    // 2. Retry divergent banks (read-back inside actuateBank feeds the
    //    counters) and retire any past the thresholds.
    bool retired_any = false;
    for (int i = 0; i < bankCount(); ++i) {
        if ((retiredMask & (1u << i)) != 0)
            continue;
        const BankState target =
            policy.stateForLevel(i, level, retiredMask);
        if (banks[static_cast<size_t>(i)].state() != target) {
            actuateBank(i, target);
        } else {
            // Physical state agrees with the command: the counters only
            // measure *persistent* divergence, so clear them (a transient
            // telemetry misread must not linger toward retirement).
            watch[static_cast<size_t>(i)].mismatch = 0;
            watch[static_cast<size_t>(i)].floating = 0;
        }
        const BankWatch &w = watch[static_cast<size_t>(i)];
        if (w.mismatch >= cfg.watchdogMismatchPolls ||
            w.floating >= cfg.watchdogFloatingPolls) {
            retireBank(i);
            retired_any = true;
        }
    }
    // Retirement remapped the ladder; re-command the survivors.
    if (retired_any)
        applyLevel();
}

void
ReactBuffer::retireBank(int index)
{
    if ((retiredMask & (1u << index)) != 0)
        return;
    retiredMask |= 1u << index;

    // Best effort: command the bank out of the network.  A switch jammed
    // closed keeps the bank electrically present, but the software stops
    // counting on it either way.
    auto &bank = banks[static_cast<size_t>(index)];
    if (!faults->isSwitchStuck(switchNames[static_cast<size_t>(index)]) &&
        bank.state() != BankState::Disconnected) {
        bank.setState(BankState::Disconnected);
        ++transitionCount;
    }

    const int top = policy.maxLevel(retiredMask);
    if (level > top)
        level = top;
    if (requestedLevel > top)
        requestedLevel = top;

    faults->recordEvent(sim::FaultEventKind::BankRetired,
                        switchNames[static_cast<size_t>(index)],
                        static_cast<double>(index));
    persistFramRecord();
}

void
ReactBuffer::pollController()
{
    if (faults != nullptr)
        watchdogService();

    Volts v = lastLevel.voltage();
    if (faults != nullptr)
        v = faults->comparatorRead("react.comparator", v);

    const int top = policy.maxLevel(retiredMask);
    if (v >= cfg.vHigh && level < top) {
        ++level;
        applyLevel();
        if (faults != nullptr)
            persistFramRecord();
    } else if (v <= cfg.vLow && level > 0) {
        --level;
        applyLevel();
        if (faults != nullptr)
            persistFramRecord();
    }
}

void
ReactBuffer::persistFramRecord()
{
    // Layout: [version][level][retiredMask LE32][crc32 LE32] = 10 bytes.
    framImage.assign(10, 0);
    framImage[0] = 1;
    framImage[1] = static_cast<uint8_t>(level);
    storeLe32(framImage.data() + 2, retiredMask);
    storeLe32(framImage.data() + 6, crc32(framImage.data(), 6));
}

void
ReactBuffer::restoreFramRecord()
{
    bool valid = framImage.size() == 10 && framImage[0] == 1;
    if (valid)
        valid = loadLe32(framImage.data() + 6) ==
            crc32(framImage.data(), 6);
    if (valid) {
        const uint32_t mask = loadLe32(framImage.data() + 2);
        const int lv = framImage[1];
        valid = onLadder(lv, mask);
        if (valid) {
            retiredMask = mask;
            level = lv;
            return;
        }
    }
    // Torn or nonsensical record: fall back to the safe default.  Level
    // 0 re-grows from the last-level buffer exactly like a cold start;
    // forgetting retirements only costs the watchdog a re-detection.
    level = 0;
    retiredMask = 0;
    if (requestedLevel > policy.maxLevel(retiredMask))
        requestedLevel = policy.maxLevel(retiredMask);
    ++framRecoveryCount;
    faults->recordEvent(sim::FaultEventKind::FramRecovery, "react.fram");
    persistFramRecord();
}

bool
ReactBuffer::onLadder(int lv, uint32_t mask) const
{
    const uint32_t mask_limit = bankCount() >= 32
        ? 0xffffffffu
        : (1u << bankCount()) - 1u;
    return (mask & ~mask_limit) == 0 && lv >= 0 &&
        lv <= policy.maxLevel(mask);
}

void
ReactBuffer::applyAging()
{
    energyLedger.faultLoss += lastLevel.setCapacitance(
        cfg.lastLevel.capacitance *
        faults->capacitanceFactor("react.lastlevel.cap"));
    for (int i = 0; i < bankCount(); ++i) {
        auto &bank = banks[static_cast<size_t>(i)];
        energyLedger.faultLoss += bank.setUnitCapacitance(
            cfg.banks[static_cast<size_t>(i)].unit.capacitance *
            faults->capacitanceFactor(bankCapNames[static_cast<size_t>(i)]));
    }
}

void
ReactBuffer::routeInput(Watts input_power, Seconds dt)
{
    if (input_power <= Watts(0.0))
        return;

    // Current from the harvester flows through the input ideal diodes to
    // the lowest-voltage connected element (S 3.2.1).  Under fault
    // injection a diode failed open removes its path from the race (that
    // element can no longer charge); one failed short merely loses its
    // forward drop.
    int target = -1;      // -1 == last-level buffer, -2 == no path at all
    Volts drop = cfg.diodeDrop;
    Volts v_min = lastLevel.voltage();
    if (faults != nullptr) {
        const sim::DiodeFault f = faults->diodeFault("react.lastlevel.diode.in");
        if (f == sim::DiodeFault::Open)
            target = -2;
        else if (f == sim::DiodeFault::Short)
            drop = Volts(0.0);
    }
    for (int i = 0; i < bankCount(); ++i) {
        const auto &bank = banks[static_cast<size_t>(i)];
        if (!bank.connected())
            continue;
        sim::DiodeFault f = sim::DiodeFault::None;
        if (faults != nullptr)
            f = faults->diodeFault(inDiodeNames[static_cast<size_t>(i)]);
        if (f == sim::DiodeFault::Open)
            continue;
        if (bank.terminalVoltage() < v_min || target == -2) {
            v_min = bank.terminalVoltage();
            target = i;
            drop = f == sim::DiodeFault::Short ? Volts(0.0) : cfg.diodeDrop;
        }
    }

    if (target == -2) {
        // Every input path failed open: the harvested power never enters
        // the buffer (it is dissipated at the stalled harvester).
        return;
    }
    if (target < 0) {
        const Joules e_before = lastLevel.energy();
        const auto res = sim::chargeFromPower(lastLevel, input_power, dt,
                                              drop);
        energyLedger.harvested += lastLevel.energy() - e_before +
            res.diodeLoss;
        energyLedger.diodeLoss += res.diodeLoss;
    } else {
        auto &bank = banks[static_cast<size_t>(target)];
        sim::Terminal view = bank.terminal();
        const Joules e_before = view.energy();
        const auto res = sim::chargeFromPower(view, input_power, dt,
                                              drop);
        bank.addChargeAtTerminal(res.charge);
        energyLedger.harvested += view.energy() - e_before + res.diodeLoss;
        energyLedger.diodeLoss += res.diodeLoss;
    }
}

void
ReactBuffer::replenishLastLevel(Seconds dt)
{
    // Output isolation diodes: every connected bank whose terminal sits
    // above the rail sources current into the last-level buffer.  Exact
    // two-capacitor relaxation keeps this stable even during the
    // reclamation voltage spike (terminal boosted to N * V_low).
    for (int i = 0; i < bankCount(); ++i) {
        auto &bank = banks[static_cast<size_t>(i)];
        if (!bank.connected())
            continue;

        Volts drop = cfg.diodeDrop;
        Ohms resistance = cfg.transferResistance;
        if (faults != nullptr) {
            const sim::DiodeFault f =
                faults->diodeFault(outDiodeNames[static_cast<size_t>(i)]);
            resistance *=
                faults->esrMultiplier(switchNames[static_cast<size_t>(i)]);
            if (f == sim::DiodeFault::Open)
                continue;  // the bank can no longer feed the rail
            if (f == sim::DiodeFault::Short) {
                drop = Volts(0.0);
                // A shorted isolation diode also conducts backwards: a
                // rail above the bank terminal bleeds into the bank.
                // The resistive dissipation is fault-attributed.
                if (lastLevel.voltage() > bank.terminalVoltage()) {
                    sim::Terminal view = bank.terminal();
                    const auto back = sim::transferCharge(
                        lastLevel, view, resistance, Volts(0.0), dt,
                        &backTransfer[static_cast<size_t>(i)]);
                    bank.addChargeAtTerminal(back.charge);
                    energyLedger.faultLoss += back.resistiveLoss;
                    continue;
                }
            }
        }

        if (bank.terminalVoltage() <= lastLevel.voltage() + drop)
            continue;
        sim::Terminal view = bank.terminal();
        const auto res = sim::transferCharge(view, lastLevel, resistance,
                                             drop, dt,
                                             &outTransfer[static_cast<size_t>(i)]);
        bank.addChargeAtTerminal(-res.charge);
        energyLedger.switchLoss += res.resistiveLoss;
        energyLedger.diodeLoss += res.diodeLoss;
    }
}

void
ReactBuffer::step(Seconds dt, Watts input_power, Amps load_current)
{
    // 0. Hardware aging (fault injection only): re-derate capacitances
    //    at the controller's poll cadence -- far finer than the hours
    //    over which fade acts, far cheaper than every millisecond step.
    if (faults != nullptr &&
        faults->plan().capacitanceFadePerHour > 0.0) {
        agingAccumulator += dt;
        if (agingAccumulator >= pollPeriod) {
            agingAccumulator = Seconds(0.0);
            applyAging();
        }
    }

    // 1. Self-discharge (banks leak even while disconnected).
    Joules leaked = lastLevel.leak(dt);
    for (auto &bank : banks)
        leaked += bank.leak(dt);
    energyLedger.leaked += leaked;

    // 2. Harvested input.
    routeInput(input_power, dt);

    // 3. Backend load plus REACT's own hardware draw, both from the
    //    rail.  The comparator/ideal-diode control circuits are powered
    //    from the gated rail (the paper measures the 68 uW draw while
    //    the MCU runs), so the draw vanishes with the backend.
    int connected = 0;
    for (const auto &bank : banks)
        connected += bank.connected() ? 1 : 0;
    const Watts overhead_power =
        backendOn ? cfg.overheadBase + cfg.overheadPerBank * connected
                  : Watts(0.0);
    const Volts v_rail = std::max(lastLevel.voltage(), Volts(0.5));
    const Amps overhead_current = overhead_power / v_rail;
    const Amps total_current = load_current + overhead_current;
    if (total_current > Amps(0.0) && lastLevel.voltage() > Volts(0.0)) {
        const Joules e_before = lastLevel.energy();
        lastLevel.applyCurrent(-total_current, dt);
        const Joules removed = e_before - lastLevel.energy();
        const double load_share =
            total_current > Amps(0.0) ? load_current / total_current : 0.0;
        energyLedger.delivered += removed * load_share;
        energyLedger.overhead += removed * (1.0 - load_share);
    }

    // 4. Banks above the rail refill the last-level buffer.
    replenishLastLevel(dt);

    // 5. Overvoltage protection: the clamp sits on the rail; banks are
    //    additionally bounded by their per-part rating.
    energyLedger.clipped += lastLevel.clip(cfg.railClamp);
    for (auto &bank : banks)
        energyLedger.clipped += bank.clipToRating();

    // 6. Management software: polls only while the backend MCU is alive.
    if (backendOn) {
        pollAccumulator += dt;
        while (pollAccumulator >= pollPeriod) {
            pollAccumulator -= pollPeriod;
            pollController();
        }
    }
}

void
ReactBuffer::reset()
{
    lastLevel.setVoltage(Volts(0.0));
    for (auto &bank : banks) {
        bank.setUnitVoltage(Volts(0.0));
        bank.setState(BankState::Disconnected);
    }
    level = 0;
    requestedLevel = 0;
    backendOn = false;
    pollAccumulator = Seconds(0.0);
    agingAccumulator = Seconds(0.0);
    transitionCount = 0;
    retiredMask = 0;
    framRecoveryCount = 0;
    std::fill(watch.begin(), watch.end(), BankWatch());
    framImage.clear();
    if (faults != nullptr)
        persistFramRecord();
    energyLedger = sim::EnergyLedger();
}

void
ReactBuffer::save(snapshot::SnapshotWriter &w) const
{
    EnergyBuffer::save(w);
    lastLevel.save(w);
    w.u32(static_cast<uint32_t>(banks.size()));
    for (const auto &bank : banks)
        bank.save(w);
    w.u32(static_cast<uint32_t>(level));
    w.u32(static_cast<uint32_t>(requestedLevel));
    w.b(backendOn);
    w.f64(pollAccumulator.raw());
    w.f64(agingAccumulator.raw());
    w.u64(transitionCount);
    w.u32(retiredMask);
    w.u32(static_cast<uint32_t>(framRecoveryCount));
    for (const BankWatch &bw : watch) {
        w.u32(static_cast<uint32_t>(bw.mismatch));
        w.u32(static_cast<uint32_t>(bw.floating));
        w.b(bw.pending);
        w.u8(static_cast<uint8_t>(bw.pendingTarget));
    }
    // The raw image, not its decoded fields: a torn record must survive
    // the checkpoint verbatim so boot-time CRC recovery replays the same.
    w.bytes(framImage);
}

void
ReactBuffer::restore(snapshot::SnapshotReader &r)
{
    EnergyBuffer::restore(r);
    lastLevel.restore(r);
    const uint32_t count = r.u32();
    if (count != banks.size())
        throw snapshot::SnapshotError(
            "react-buffer snapshot bank count mismatch");
    for (auto &bank : banks)
        bank.restore(r);
    level = static_cast<int>(r.u32());
    requestedLevel = static_cast<int>(r.u32());
    backendOn = r.b();
    pollAccumulator = Seconds(r.f64());
    agingAccumulator = Seconds(r.f64());
    transitionCount = r.u64();
    retiredMask = r.u32();
    if (!onLadder(level, retiredMask))
        throw snapshot::SnapshotError(
            "react-buffer snapshot: level " + std::to_string(level) +
            " is off the ladder");
    framRecoveryCount = static_cast<int>(r.u32());
    for (BankWatch &bw : watch) {
        bw.mismatch = static_cast<int>(r.u32());
        bw.floating = static_cast<int>(r.u32());
        bw.pending = r.b();
        const uint8_t target = r.u8();
        if (target > static_cast<uint8_t>(BankState::Parallel))
            throw snapshot::SnapshotError(
                "react-buffer snapshot: unknown pending bank state " +
                std::to_string(target));
        bw.pendingTarget = static_cast<BankState>(target);
    }
    framImage = r.bytes();
}

} // namespace core
} // namespace react
