/**
 * @file
 * Morphy-style unified dynamic buffer (Yang et al., SenSys'21), the prior
 * dynamic-capacitance system the paper evaluates REACT against (S 4.1).
 *
 * Configuration mirrors the paper's implementation: eight 2 mF capacitors,
 * one kept as an always-connected task capacitor to smooth switching
 * transients, the other seven arranged by software through a fully
 * interconnected switch fabric.  Eleven configurations span roughly
 * 250 uF - 16 mF of equivalent capacitance.  A battery-powered secondary
 * microcontroller (free energy, as in the paper's setup) polls the rail at
 * 10 Hz and steps the configuration ladder up on overvoltage and down on
 * undervoltage.
 *
 * Because all branches share the output node without isolation, every
 * reconfiguration equalizes capacitors at different potentials and burns
 * the energy difference (Fig. 5) -- the architectural flaw REACT's isolated
 * banks eliminate.
 */

#ifndef REACT_BUFFERS_MORPHY_BUFFER_HH
#define REACT_BUFFERS_MORPHY_BUFFER_HH

#include <string>
#include <vector>

#include "buffers/capacitor_network.hh"
#include "buffers/energy_buffer.hh"
#include "sim/capacitor.hh"

namespace react {
namespace buffer {

using units::Hertz;

/** Parameters for the Morphy reproduction. */
struct MorphyParams
{
    /** Always-connected smoothing capacitor across the rail. */
    sim::CapacitorSpec taskCap{Farads(250e-6), Volts(6.3), Amps(0.0)};
    /** Unit capacitor of the reconfigurable pool (paper: 2 mF
     *  electrolytics, ~25.2 uA leakage at 6.3 V). */
    sim::CapacitorSpec unitCap{Farads(2e-3), Volts(6.3), Amps(6.3e-6)};
    /** Number of reconfigurable units. */
    int unitCount = 7;
    /** Overvoltage threshold: step the ladder up at/above this rail
     *  voltage. */
    Volts vHigh{3.5};
    /** Undervoltage threshold: step the ladder down at/below it. */
    Volts vLow{1.9};
    /** Overvoltage-protection clamp on the rail. */
    Volts railClamp{3.6};
    /** Controller sampling rate (battery powered: always on). */
    Hertz pollRateHz{10.0};
};

/** The Morphy buffer: task capacitor + switched network + controller. */
class MorphyBuffer final : public EnergyBuffer
{
  public:
    explicit MorphyBuffer(const MorphyParams &params = MorphyParams());

    std::string name() const override { return "Morphy"; }
    void step(Seconds dt, Watts input_power, Amps load_current) override;
    Volts railVoltage() const override;
    Joules storedEnergy() const override;
    Farads equivalentCapacitance() const override;
    void reset() override;

    int capacitanceLevel() const override { return configIndex; }
    int maxCapacitanceLevel() const override;
    void requestMinLevel(int level) override;
    bool levelSatisfied() const override;
    Joules usableEnergyAtLevel(int level) const override;

    /** The configuration ladder (exposed for tests and benches). */
    const std::vector<NetworkConfig> &ladder() const { return configs; }

    /** Cumulative count of ladder transitions taken. */
    uint64_t reconfigurations() const { return reconfigCount; }

    void save(snapshot::SnapshotWriter &w) const override;
    void restore(snapshot::SnapshotReader &r) override;

  private:
    /**
     * Split a signed rail charge between the task capacitor and the
     * network in proportion to capacitance: apply the task's share and
     * return the network's, which the caller adds at the network's
     * output.
     */
    Coulombs splitRailCharge(Coulombs dq);

    /** One controller decision at the poll rate. */
    void pollController();

    /** Move to the given ladder index, recording switching loss. */
    void applyConfig(int index);

    MorphyParams params;
    sim::Capacitor task;
    CapacitorNetwork network;
    std::vector<NetworkConfig> configs;
    /** 1 / params.pollRateHz: the poll period, which is also the aging
     *  cadence.  The parameters are fixed after construction. */
    Seconds pollPeriod;
    int configIndex = 0;
    int requestedLevel = 0;
    Seconds pollAccumulator{0.0};
    Seconds agingAccumulator{0.0};
    uint64_t reconfigCount = 0;
};

} // namespace buffer
} // namespace react

#endif // REACT_BUFFERS_MORPHY_BUFFER_HH
