/**
 * @file
 * Hysteretic power gate between the energy buffer and the computational
 * backend.
 *
 * Every platform in the paper's evaluation uses the same intermediate
 * circuit: the MSP430 is enabled once the buffer charges to 3.3 V and
 * disconnected when it falls to 1.8 V (S 4).  Dewdrop-style designs vary
 * the enable voltage at run time, so the threshold is mutable.
 */

#ifndef REACT_SIM_POWER_GATE_HH
#define REACT_SIM_POWER_GATE_HH

#include <cstdint>

#include "util/units.hh"

namespace react {
namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}
namespace sim {

using units::Volts;

class FaultInjector;

/** Voltage-supervisor power gate with enable/brown-out hysteresis. */
class PowerGate
{
  public:
    /**
     * @param enable_voltage Rising threshold that turns the backend on.
     * @param brownout_voltage Falling threshold that cuts power.
     */
    PowerGate(Volts enable_voltage = Volts(3.3),
              Volts brownout_voltage = Volts(1.8));

    /**
     * Observe the rail voltage and update the gate state.
     *
     * @param rail_voltage Buffer output voltage.
     * @return true when the state changed during this update.
     */
    bool update(Volts rail_voltage);

    /** Whether the backend is currently powered. */
    bool isOn() const { return on; }

    /** Rising enable threshold. */
    Volts enableVoltage() const { return vEnable; }

    /** Falling brown-out threshold. */
    Volts brownoutVoltage() const { return vBrownout; }

    /**
     * Retarget the enable threshold (Dewdrop-style adaptive wake-up).
     * Must remain above the brown-out threshold.
     */
    void setEnableVoltage(Volts enable_voltage);

    /** Reset to the powered-off state. */
    void reset();

    /**
     * Attach (or detach with nullptr) a fault injector: the supervisor
     * comparator then observes the rail through the injector's offset
     * drift and misread model.
     */
    void attachFaultInjector(FaultInjector *injector) { faults = injector; }

    /** Serialize the mutable state (enable threshold, gate latch); the
     *  brown-out threshold is construction-fixed and the injector
     *  attachment is re-established by the owner. */
    void save(snapshot::SnapshotWriter &w) const;
    void restore(snapshot::SnapshotReader &r);

  private:
    Volts vEnable;
    Volts vBrownout;
    bool on = false;
    FaultInjector *faults = nullptr;
};

/**
 * Lane-major mirror of up to kMaxLanes PowerGate latches for the batch
 * runner's hot loop: the per-step threshold check becomes one compare
 * pair per lane producing a transition bitmask -- no call, no unit
 * wrapping, no per-lane object walk.
 *
 * Without a fault injector, PowerGate::update is a pure hysteresis
 * latch (compare against one of two fixed thresholds), so the mirror
 * is bit-identical by construction; the authoritative PowerGate object
 * remains the source of truth for serialization, and the runner calls
 * its update() on every flagged transition to keep the two in lockstep.
 * The batch runner admits no fault plan, so every gate it mirrors is
 * injector-free (an injector's comparator reads consume randomness on
 * every call and could not be mirrored).  Every lane is compared; the
 * caller masks off the lanes it does not occupy.
 */
struct GateLaneBank
{
    static constexpr int kMaxLanes = 8;

    /** Rising enable threshold per lane, volts. */
    double vEnable[kMaxLanes] = {};
    /** Falling brown-out threshold per lane, volts. */
    double vBrownout[kMaxLanes] = {};
    /** Bit l set: lane l's latch is currently on. */
    uint8_t onMask = 0;

    /**
     * The hysteresis check for every lane at once.
     *
     * @param rail Lane-major rail voltages (e.g.
     *        sim::BatchStepper::voltages()).
     * @return Mask of lanes whose latch flips on this rail.  The caller
     *         forwards each flip to the authoritative PowerGate::update
     *         and toggles onMask.
     */
    uint8_t transitionMask(const double *rail) const
    {
        uint8_t flips = 0;
        for (int l = 0; l < kMaxLanes; ++l) {
            const bool on = (onMask >> l) & 1u;
            const bool flip = on ? rail[l] <= vBrownout[l]
                                 : rail[l] >= vEnable[l];
            flips |= static_cast<uint8_t>(flip ? 1u << l : 0u);
        }
        return flips;
    }

    /** Apply a transition mask to the latch mirror. */
    void toggle(uint8_t mask) { onMask ^= mask; }

    /** The mirrored latch state for one lane. */
    bool isOn(int lane) const { return (onMask >> lane) & 1u; }
};

} // namespace sim
} // namespace react

#endif // REACT_SIM_POWER_GATE_HH
