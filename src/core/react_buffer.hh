/**
 * @file
 * The REACT energy buffer: the paper's primary contribution (S 3).
 *
 * Hardware model (Fig. 2): a small always-connected last-level buffer sets
 * the cold-start capacitance, so the system enables as fast as the
 * smallest static design.  Configurable banks hang off the harvester node
 * through normally-open switches and ideal isolation diodes: banks charge
 * only from the harvester (current flows to the lowest-voltage connected
 * element) and discharge only into the last-level buffer (when their
 * terminal exceeds the rail).  Because capacitors within a bank are only
 * ever full-series or full-parallel, reconfiguration never moves charge
 * between capacitors and is lossless -- the decisive difference from the
 * fully-interconnected Morphy network.
 *
 * Software model (S 3.4): the management code runs on the backend MCU,
 * polling two comparators at 10 Hz.  Overvoltage raises the capacitance
 * level (connect-in-series, then reconfigure-to-parallel); undervoltage
 * lowers it (parallel -> series boosts the bank terminal by N, reclaiming
 * charge below V_low; series -> disconnected retires a drained bank).
 * When the MCU loses power the normally-open switches release: all banks
 * physically disconnect, retaining charge, and reconnect from FRAM state
 * at the next power-up.
 *
 * Fault hardening (only active while a sim::FaultInjector is attached):
 * every commanded switch actuation is verified by reading the bank
 * terminal back against the lossless-reconfiguration prediction, and a
 * bank whose telemetry keeps disagreeing -- or that keeps floating when
 * commanded into the network under harvest surplus -- is *retired*: the
 * level ladder is rebuilt over the surviving banks, degrading in the
 * limit to last-level-only operation (static 770 uF equivalent).  The
 * controller level and retirement mask are persisted in a CRC-protected
 * FRAM record; a record torn by a power-loss write is detected at boot
 * and replaced with the safe default (level 0, nothing retired).
 */

#ifndef REACT_CORE_REACT_BUFFER_HH
#define REACT_CORE_REACT_BUFFER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "buffers/energy_buffer.hh"
#include "core/bank.hh"
#include "core/bank_policy.hh"
#include "core/react_config.hh"
#include "sim/capacitor.hh"
#include "sim/charge_transfer.hh"

namespace react {
namespace core {

using units::Amps;

/** REACT: reconfigurable, energy-adaptive capacitor banks. */
class ReactBuffer final : public buffer::EnergyBuffer
{
  public:
    /** @param config Hardware description; must pass validate(). */
    explicit ReactBuffer(const ReactConfig &config =
                             ReactConfig::paperConfig());

    std::string name() const override { return "REACT"; }
    void step(Seconds dt, Watts input_power, Amps load_current) override;
    Volts railVoltage() const override;
    Joules storedEnergy() const override;
    Farads equivalentCapacitance() const override;
    void reset() override;

    int capacitanceLevel() const override { return level; }
    int maxCapacitanceLevel() const override
    {
        return policy.maxLevel(retiredMask);
    }
    Joules availableEnergy(Volts floor_voltage) const override;
    void requestMinLevel(int min_level) override;
    bool levelSatisfied() const override;
    Joules usableEnergyAtLevel(int query_level) const override;
    void notifyBackendPower(bool on) override;

    /** Compute-time fraction stolen by the 10 Hz monitoring software. */
    double softwareOverheadFraction() const override;

    /** Hardware configuration. */
    const ReactConfig &config() const { return cfg; }

    /** Voltage on the last-level buffer (== rail). */
    Volts lastLevelVoltage() const { return lastLevel.voltage(); }

    /** Run-time state of one bank. */
    const CapacitorBank &bank(int index) const;

    /** Number of configurable banks. */
    int bankCount() const { return static_cast<int>(banks.size()); }

    /** Cumulative count of bank state transitions. */
    uint64_t transitions() const { return transitionCount; }

    /** Attach the fault injector and seed the FRAM config record. */
    void attachFaultInjector(sim::FaultInjector *injector) override;

    /** Watchdog retirement mask: bit i set when bank i was retired. */
    uint32_t retiredBankMask() const { return retiredMask; }

    /** Number of banks the watchdog has retired. */
    int retiredBankCount() const;

    /** Times a corrupt FRAM record was replaced with the safe default. */
    int framRecoveries() const { return framRecoveryCount; }

    void save(snapshot::SnapshotWriter &w) const override;
    void restore(snapshot::SnapshotReader &r) override;

  private:
    /** Watchdog bookkeeping for one bank's switch. */
    struct BankWatch
    {
        /** Consecutive failed actuation read-backs. */
        int mismatch = 0;
        /** Consecutive floating reads while commanded connected. */
        int floating = 0;
        /** A slow actuation is in flight, landing at the next poll. */
        bool pending = false;
        BankState pendingTarget = BankState::Disconnected;
    };

    /** Reapply the logical (FRAM) bank states to the physical switches. */
    void applyLevel();

    /**
     * Command one bank's switch toward `target`, drawing stuck/slow
     * faults and verifying the actuation by terminal read-back.
     *
     * @return true when the bank physically reached `target`.
     */
    bool actuateBank(int index, BankState target);

    /** Per-poll watchdog pass: land slow actuations, retry and verify
     *  divergent banks, retire banks past the thresholds. */
    void watchdogService();

    /** Retire a bank: pin it out of the ladder and persist the mask. */
    void retireBank(int index);

    /** One controller poll: read comparators, step the level. */
    void pollController();

    /** Route harvested input to the lowest-voltage connected element. */
    void routeInput(Watts input_power, Seconds dt);

    /** Drain banks above the rail into the last-level buffer. */
    void replenishLastLevel(Seconds dt);

    /** Apply capacitance fade to the last level and every bank. */
    void applyAging();

    /** Serialize {level, retiredMask} + CRC into the FRAM image. */
    void persistFramRecord();

    /** Decode the FRAM image; on CRC failure fall back to the safe
     *  default (level 0, no retirements) and log the recovery. */
    void restoreFramRecord();

    /** Whether @p mask names only existing banks and @p lv is a rung
     *  of the ladder it leaves. */
    bool onLadder(int lv, uint32_t mask) const;

    ReactConfig cfg;
    BankPolicy policy;
    sim::Capacitor lastLevel;
    std::vector<CapacitorBank> banks;
    /** 1 / cfg.pollRateHz: the controller's poll period, which is also
     *  the aging cadence.  The config is fixed after construction. */
    Seconds pollPeriod;

    /** Controller level persisted in FRAM across power failures. */
    int level = 0;
    int requestedLevel = 0;
    bool backendOn = false;
    Seconds pollAccumulator{0.0};
    Seconds agingAccumulator{0.0};
    uint64_t transitionCount = 0;

    /**
     * @name Per-path charge-transfer memos
     *
     * One TransferCache per bank for the bank -> last-level output-diode
     * path, plus one for the fault-only reverse path through a shorted
     * isolation diode.  The caches are key-checked on every use
     * (capacitance, resistance, dt), so reconfiguration, aging, and
     * snapshot restore need no explicit invalidation -- a changed key
     * simply recomputes.  Sized once at construction; never reallocated
     * on the step path.
     * @{
     */
    std::vector<sim::TransferCache> outTransfer;
    std::vector<sim::TransferCache> backTransfer;
    /** @} */

    /** @name Fault-hardening state (inert without an injector). @{ */
    uint32_t retiredMask = 0;
    int framRecoveryCount = 0;
    std::vector<BankWatch> watch;
    std::vector<uint8_t> framImage;
    /** Cached component names (stable injector stream identities). */
    std::vector<std::string> switchNames;
    std::vector<std::string> telemetryNames;
    std::vector<std::string> inDiodeNames;
    std::vector<std::string> outDiodeNames;
    std::vector<std::string> bankCapNames;
    /** @} */
};

} // namespace core
} // namespace react

#endif // REACT_CORE_REACT_BUFFER_HH
