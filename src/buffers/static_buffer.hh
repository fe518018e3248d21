/**
 * @file
 * Fixed-size capacitor buffer: the conventional design point REACT is
 * evaluated against (770 uF / 10 mF / 17 mF in the paper).
 *
 * A static buffer is a single capacitor across the rail.  Its behaviour
 * embodies the tradeoff of S 2.1: small capacitors charge quickly (high
 * reactivity) but clip harvested energy once full; large capacitors capture
 * surplus but enable slowly and strand cold-start energy below the minimum
 * operating voltage.
 */

#ifndef REACT_BUFFERS_STATIC_BUFFER_HH
#define REACT_BUFFERS_STATIC_BUFFER_HH

#include <string>

#include "buffers/energy_buffer.hh"
#include "sim/capacitor.hh"

namespace react {
namespace buffer {

/** Single fixed capacitor across the rail. */
class StaticBuffer final : public EnergyBuffer
{
  public:
    /**
     * @param spec Capacitor part parameters.
     * @param rail_clamp Overvoltage-protection clamp; harvested energy
     *        beyond it is discarded as heat (the paper's 3.6 V).
     * @param display_name Report label; derived from capacitance if empty.
     */
    explicit StaticBuffer(const sim::CapacitorSpec &spec,
                          Volts rail_clamp = Volts(3.6),
                          std::string display_name = "");

    std::string name() const override { return label; }
    void step(Seconds dt, Watts input_power, Amps load_current) override;
    Volts railVoltage() const override;
    Joules storedEnergy() const override;
    Farads equivalentCapacitance() const override;
    void reset() override;

    /** Overvoltage clamp. */
    Volts railClamp() const { return clamp; }

    /**
     * @name Lane-engine seam (harness/batch_runner.cc)
     *
     * The batch stepper owns the per-step physics while a cell runs in
     * a SIMD lane; the buffer object stays the source of truth for
     * everything else (aging bookkeeping, fault attachment, snapshot
     * layout).  The driver syncs the lane voltage back through
     * laneCapacitor() before any observer can read the buffer, and
     * writes the lane ledger totals back at finalization, so save() and
     * ledger() report exactly what per-cell stepping would have.
     * @{
     */
    /** The rail capacitor (lane voltage sync + aging resync reads). */
    sim::Capacitor &laneCapacitor() { return cap; }
    const sim::Capacitor &laneCapacitor() const { return cap; }
    /** Mutable ledger (lane accumulator write-back at finalization). */
    sim::EnergyLedger &laneLedger() { return energyLedger; }
    /** Does step() run the dielectric-aging phase for this buffer? */
    bool laneAgingEnabled() const;
    /** Step phase 0 (dielectric aging) alone, on the current capacitor
     *  voltage; the fault-loss delta books into this buffer's ledger
     *  exactly as a full step() would. */
    void laneStepAging(Seconds dt);
    /** @} */

    void save(snapshot::SnapshotWriter &w) const override;
    void restore(snapshot::SnapshotReader &r) override;

  private:
    sim::Capacitor cap;
    Volts clamp;
    std::string label;
    /** Nominal capacitance, the baseline that fault-injected dielectric
     *  aging derates from. */
    Farads baseCapacitance;
    Seconds agingAccumulator{0.0};
};

} // namespace buffer
} // namespace react

#endif // REACT_BUFFERS_STATIC_BUFFER_HH
