/**
 * @file
 * Common interface for energy-buffer architectures.
 *
 * Every buffer the paper evaluates -- fixed capacitors, the Morphy switched
 * network, and REACT itself -- sits between the harvesting frontend and the
 * power-gated computational backend.  The harness drives them all through
 * this interface: feed input power, draw load current, observe the rail
 * voltage, and audit the energy ledger.  Adaptive buffers additionally
 * expose a small control surface (capacitance levels) that the paper's
 * software-directed longevity mechanism (S 3.4.1) builds on.
 */

#ifndef REACT_BUFFERS_ENERGY_BUFFER_HH
#define REACT_BUFFERS_ENERGY_BUFFER_HH

#include <cstdint>
#include <string>

#include "sim/energy_ledger.hh"
#include "util/units.hh"

namespace react {
namespace sim {
class FaultInjector;
}
namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}
namespace buffer {

using units::Amps;
using units::Farads;
using units::Joules;
using units::Seconds;
using units::Volts;
using units::Watts;

/** Abstract energy buffer between harvester and backend. */
class EnergyBuffer
{
  public:
    virtual ~EnergyBuffer() = default;

    /** Display name used in reports ("770uF", "Morphy", "REACT"...). */
    virtual std::string name() const = 0;

    /**
     * Advance the buffer by one timestep.
     *
     * @param dt Timestep.
     * @param input_power Power entering the buffer from the harvester.
     * @param load_current Current drawn by the backend from the rail
     *        (0 when the power gate is open).
     */
    virtual void step(Seconds dt, Watts input_power,
                      Amps load_current) = 0;

    /** Voltage presented to the power gate / backend. */
    virtual Volts railVoltage() const = 0;

    /** Total energy stored across all capacitors. */
    virtual Joules storedEnergy() const = 0;

    /** Present equivalent capacitance seen at the rail. */
    virtual Farads equivalentCapacitance() const = 0;

    /**
     * Energy extractable right now before the rail falls to the given
     * floor voltage (an ADC-style self-check the workloads use to gate
     * short atomic operations).
     */
    virtual Joules availableEnergy(Volts floor_voltage) const;

    /** Cumulative energy accounting since the last reset. */
    const sim::EnergyLedger &ledger() const { return energyLedger; }

    /** Return to the cold-start state (all charge gone, ledger cleared). */
    virtual void reset() = 0;

    /**
     * @name Adaptive-capacitance control surface
     *
     * Static buffers keep the defaults (a single level, always satisfied).
     * REACT and Morphy map levels onto their bank / configuration state
     * machines; level k is only reached when the buffer was near-full at
     * level k-1, so "level >= k" doubles as a stored-energy guarantee.
     * @{
     */

    /** Current capacitance level (0 = minimum configuration). */
    virtual int capacitanceLevel() const { return 0; }

    /** Largest reachable level. */
    virtual int maxCapacitanceLevel() const { return 0; }

    /**
     * Software-directed longevity request (S 3.4.1): ask the buffer to
     * accumulate at least the given level before levelSatisfied() reports
     * true.  Values above maxCapacitanceLevel() are clamped.
     */
    virtual void requestMinLevel(int level) { (void)level; }

    /** Whether the most recent longevity request has been met. */
    virtual bool levelSatisfied() const { return true; }

    /**
     * Usable energy guaranteed once the given level is reached, i.e. the
     * discharge window the backend can count on for an atomic operation.
     */
    virtual Joules usableEnergyAtLevel(int level) const
    {
        (void)level;
        return Joules(0.0);
    }

    /**
     * Notify the buffer of backend power transitions.  REACT's management
     * software runs on the backend MCU, so its banks physically disconnect
     * (normally-open switches) when the MCU loses power.
     */
    virtual void notifyBackendPower(bool on) { (void)on; }

    /**
     * Fraction of backend compute time consumed by the buffer's
     * monitoring software (REACT: 1.8 % at 10 Hz polling; 0 for buffers
     * with no on-MCU component).
     */
    virtual double softwareOverheadFraction() const { return 0.0; }

    /** @} */

    /**
     * Attach (or detach with nullptr) a hardware fault injector.  While
     * attached, the buffer's step path routes switch actuations,
     * comparator reads, and aging queries through it; implementations
     * that harden against faults (REACT's watchdog) also report recovery
     * events back.  Detached (the default) means ideal hardware, and the
     * step path must be bit-identical to a build without this feature.
     */
    virtual void attachFaultInjector(sim::FaultInjector *injector)
    {
        faults = injector;
    }

    /**
     * Serialize the buffer's complete mutable state (charge, control
     * state machines, counters, and the energy ledger).  Construction
     * parameters (specs, clamps, ladders) are not serialized: restore()
     * assumes an identically-constructed buffer, and the injector
     * attachment is re-established by the owner.  Overrides must call
     * the base implementation first so the ledger occupies a fixed
     * position in the layout.
     */
    virtual void save(snapshot::SnapshotWriter &w) const;
    virtual void restore(snapshot::SnapshotReader &r);

  protected:
    sim::EnergyLedger energyLedger;
    sim::FaultInjector *faults = nullptr;
};

} // namespace buffer
} // namespace react

#endif // REACT_BUFFERS_ENERGY_BUFFER_HH
