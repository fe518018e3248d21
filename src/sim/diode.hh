/**
 * @file
 * Diode models for REACT's bank-isolation network.
 *
 * The paper contrasts two implementations (S 3.3.2): passive Schottky
 * diodes, whose forward drop at milliamp currents wastes substantial power,
 * and active "ideal diode" circuits (TI LM66100: a comparator plus a pass
 * FET) which present a tiny series resistance and a microwatt-scale
 * quiescent draw.  Both are modelled here so the diode-type ablation bench
 * can reproduce the paper's 0.02 % dissipation claim.
 */

#ifndef REACT_SIM_DIODE_HH
#define REACT_SIM_DIODE_HH

#include "util/units.hh"

namespace react {
namespace sim {

using units::Amps;
using units::Ohms;
using units::Volts;
using units::Watts;

/** Common interface: forward voltage as a function of forward current. */
class Diode
{
  public:
    virtual ~Diode() = default;

    /**
     * Forward voltage drop when conducting the given current.
     *
     * @param current Forward current (>= 0).
     * @return Drop (0 when current is 0 for the ideal diode).
     */
    virtual Volts forwardDrop(Amps current) const = 0;

    /** Always-on control power (comparator supply etc.). */
    virtual Watts quiescentPower() const = 0;

    /** Power dissipated while conducting the given current. */
    Watts conductionPower(Amps current) const;
};

/**
 * Active ideal diode (LM66100-like): pass FET with on-resistance plus a
 * quiescent comparator draw.  Blocks reverse current exactly.
 */
class IdealDiode : public Diode
{
  public:
    /**
     * @param on_resistance Pass-FET resistance (LM66100: 79 mOhm).
     * @param quiescent Control power (LM66100: ~0.25 uA @ 3.3 V).
     */
    explicit IdealDiode(Ohms on_resistance = Ohms(0.079),
                        Watts quiescent = Watts(0.8e-6));

    Volts forwardDrop(Amps current) const override;
    Watts quiescentPower() const override { return quiescent; }

    /** Series on-resistance. */
    Ohms onResistance() const { return rOn; }

  private:
    Ohms rOn;
    Watts quiescent;
};

/**
 * Passive Schottky diode modelled by the Shockley equation
 * V_f = n V_T ln(1 + I / I_s), matched to a small-signal part
 * (~0.3 V at 1 mA).
 */
class SchottkyDiode : public Diode
{
  public:
    /**
     * @param saturation_current Reverse saturation current.
     * @param ideality Diode ideality factor n (dimensionless).
     * @param thermal_voltage kT/q (25.85 mV at 300 K).
     */
    explicit SchottkyDiode(Amps saturation_current = Amps(5e-8),
                           double ideality = 1.5,
                           Volts thermal_voltage = Volts(0.02585));

    Volts forwardDrop(Amps current) const override;
    Watts quiescentPower() const override { return Watts(0.0); }

  private:
    Amps iSat;
    double n;
    Volts vt;
};

} // namespace sim
} // namespace react

#endif // REACT_SIM_DIODE_HH
