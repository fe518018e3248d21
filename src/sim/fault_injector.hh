/**
 * @file
 * Deterministic hardware fault injection for the energy-circuit simulator.
 *
 * The reproduction's baseline models ideal hardware: every DPDT switch
 * actuates, every comparator reads true, every capacitor holds its
 * datasheet value.  Real batteryless deployments treat misbehaving
 * hardware as the common case, so this module injects the failure modes
 * the intermittency literature documents -- stuck/slow switches,
 * comparator offset drift and transient misreads, capacitance fade and
 * ESR rise, diode open/short failures, harvester dropouts, and FRAM
 * corruption on power-loss writes -- while keeping every run exactly
 * repeatable.
 *
 * ## Seeding scheme (reproducible per-component schedules)
 *
 * A single master seed drives the whole fault universe.  Each simulated
 * component (a bank's switch, a comparator, a diode...) is identified by
 * a stable string name, e.g. "react.bank2.switch"; its private stream is
 * derived as
 *
 *     Rng master(seed);
 *     Rng stream = master.child(fnv1a64(component_name));
 *
 * `Rng::child` is a pure function of (master state, tag), so a
 * component's schedule depends only on the experiment seed and its own
 * name -- never on how many other components exist or the order in which
 * they first query the injector.  Two runs with the same seed and the
 * same component names replay bit-identical fault schedules.
 *
 * Time-driven faults (diode failures, harvester dropouts, comparator
 * misreads) are drawn as Poisson event schedules; per-actuation faults
 * (stuck/slow switches, FRAM torn writes) are Bernoulli draws from the
 * owning component's stream at each opportunity.  The injector never
 * perturbs anything when the corresponding plan rate is zero, so an
 * attached all-zero plan leaves the simulation bit-identical to an
 * unattached one.
 */

#ifndef REACT_SIM_FAULT_INJECTOR_HH
#define REACT_SIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/rng.hh"
#include "util/units.hh"

namespace react {
namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}
namespace sim {

using units::Seconds;
using units::Volts;
using units::Watts;

/** Failure state of one isolation/input diode. */
enum class DiodeFault
{
    /** Operating normally. */
    None,
    /** Failed open: no current passes in either direction. */
    Open,
    /** Failed short: conducts both directions with no forward drop. */
    Short,
};

/** Rates and probabilities for every modelled fault class.
 *  All-zero (the default) disables injection entirely. */
struct FaultPlan
{
    /** P[a commanded switch transition jams, permanently]. */
    double switchStuckProbability = 0.0;
    /** P[a commanded transition lands one controller poll late]. */
    double switchSlowProbability = 0.0;

    /** Comparator offset random-walk intensity, volts per sqrt(hour). */
    double comparatorDriftVoltsPerSqrtHour = 0.0;
    /** Transient comparator misreads per hour (Poisson). */
    double comparatorMisreadsPerHour = 0.0;
    /** Peak magnitude of a misread, volts (error ~ U[-m, +m]). */
    double comparatorMisreadMagnitude = 1.0;

    /** Fraction of capacitance lost per hour (dielectric aging). */
    double capacitanceFadePerHour = 0.0;
    /** Fractional growth of switch/diode series resistance per hour. */
    double esrRisePerHour = 0.0;

    /** Diode failures per diode-hour (Poisson; fail-stop). */
    double diodeFailuresPerHour = 0.0;
    /** Fraction of diode failures that short (rest fail open). */
    double diodeShortFraction = 0.5;

    /** Harvester trace dropouts per hour (Poisson). */
    double harvesterDropoutsPerHour = 0.0;
    /** Mean dropout duration (exponential). */
    Seconds harvesterDropoutMeanSeconds{5.0};

    /** P[a power-loss write tears the FRAM record being written]. */
    double framCorruptionPerPowerLoss = 0.0;

    /** Whether any fault class is active. */
    bool enabled() const;

    /** The all-zero plan (explicit spelling of the default). */
    static FaultPlan none() { return FaultPlan(); }

    /**
     * A canonical mixed-fault plan scaled by a severity knob; severity 1
     * is a plausible harsh deployment, 0 disables everything.  Used by
     * the fault-sweep bench so REACT and the static baselines face the
     * same schedule.
     */
    static FaultPlan stress(double severity);
};

/** What happened, when, to which component. */
enum class FaultEventKind
{
    SwitchStuck,
    SwitchSlow,
    ComparatorMisread,
    DiodeOpen,
    DiodeShort,
    HarvesterDropoutBegin,
    HarvesterDropoutEnd,
    FramCorruption,
    /** Recovery action: the watchdog retired a faulty bank. */
    BankRetired,
    /** Recovery action: a corrupt FRAM config record was reset. */
    FramRecovery,
};

/** Human-readable event-kind name. */
const char *faultEventKindName(FaultEventKind kind);

/** Whether the kind is a recovery action (vs an injected fault). */
bool isRecoveryEvent(FaultEventKind kind);

/** One fault or recovery occurrence. */
struct FaultEvent
{
    /** Injector time. */
    Seconds time{0.0};
    FaultEventKind kind = FaultEventKind::SwitchStuck;
    /** Component name ("react.bank2.switch", "harvester", ...). */
    std::string component;
    /** Kind-specific magnitude (misread error volts, corrupted byte...). */
    double magnitude = 0.0;
};

/**
 * Seeded, deterministic, schedule-driven fault source.  One injector is
 * shared by every component of one experiment; the harness advances its
 * clock once per timestep and components query it from their step paths.
 */
class FaultInjector
{
  public:
    /** Master seed of every experiment's injector. */
    static constexpr uint64_t kMasterSeed = 0x5eedull;

    explicit FaultInjector(const FaultPlan &plan,
                           uint64_t seed = kMasterSeed);

    const FaultPlan &plan() const { return faultPlan; }

    /** Injector clock. */
    Seconds now() const { return Seconds(t); }

    /** Advance the clock; steps the harvester-dropout schedule. */
    void advance(Seconds dt);

    /**
     * Draw the outcome of one commanded switch actuation.  A stuck draw
     * is permanent: every later actuation of the same component fails
     * too (the mechanism is jammed).
     *
     * @return true when the switch physically moved.
     */
    bool switchActuates(const std::string &component);

    /** Whether the component's switch has jammed (no draw; pure query). */
    bool isSwitchStuck(const std::string &component) const;

    /** One-shot draw: the actuation lands one controller poll late. */
    bool switchDelayed(const std::string &component);

    /**
     * Pass a voltage through a faulty comparator: applies the
     * component's accumulated offset drift, plus a transient misread
     * when the component's Poisson misread schedule fired since the
     * previous read.  Returns the (non-negative) observed voltage.
     */
    Volts comparatorRead(const std::string &component, Volts actual);

    /** Multiplicative capacitance derating at the current time (<= 1). */
    double capacitanceFactor(const std::string &component);

    /** Multiplicative series-resistance growth at the current time. */
    double esrMultiplier(const std::string &component);

    /** Failure state of the named diode at the current time. */
    DiodeFault diodeFault(const std::string &component);

    /** Gate harvester power through the dropout schedule. */
    Watts filterHarvest(Watts input_power) const;

    /** Whether a harvester dropout is in progress. */
    bool inHarvesterDropout() const { return dropoutActive; }

    /**
     * Draw a power-loss torn-write fault; on a hit, flips one random bit
     * of @p bytes (when given and non-empty) and logs the corruption.
     *
     * @return true when the record was corrupted.
     */
    bool maybeCorruptOnPowerLoss(const std::string &component,
                                 std::vector<uint8_t> *bytes);

    /** Append to the event log (components report recovery actions). */
    void recordEvent(FaultEventKind kind, const std::string &component,
                     double magnitude = 0.0);

    /** Event log, oldest first (capped; counts stay exact). */
    const std::vector<FaultEvent> &events() const { return eventLog; }

    /** Exact number of events of one kind, including any dropped from
     *  the capped log. */
    uint64_t eventCount(FaultEventKind kind) const;

    /** Total injected faults (excludes recovery events). */
    uint64_t faultCount() const;

    /** Total recovery actions (bank retirements, FRAM resets). */
    uint64_t recoveryCount() const;

    /**
     * Serialize the complete injector state: clock, master stream, the
     * dropout machine, every lazily-created component (including its
     * full RNG stream state -- there is no hidden static or
     * thread-local state anywhere in the injector), the event log, and
     * the exact per-kind counters.  After restore(), every subsequent
     * draw matches the uninterrupted sequence bit-for-bit.  The plan is
     * construction state and must match (validated by the caller's
     * snapshot layout, not here).
     */
    void save(snapshot::SnapshotWriter &w) const;
    void restore(snapshot::SnapshotReader &r);

  private:
    /** Lazily created per-component fault state. */
    struct Component
    {
        Rng rng{0};
        bool stuck = false;
        double driftOffset = 0.0;
        double driftUpdatedAt = 0.0;
        double nextMisreadAt = 0.0;
        double agingJitter = 1.0;
        double diodeFailsAt = 0.0;
        DiodeFault diodeMode = DiodeFault::None;
        bool diodeReported = false;
    };

    Component &component(const std::string &name);
    const Component *findComponent(const std::string &name) const;

    FaultPlan faultPlan;
    Rng master;
    double t = 0.0;
    std::map<std::string, Component> components;

    /** Harvester dropout state machine (advanced with the clock). */
    bool dropoutActive = false;
    double nextDropoutEdge = 0.0;
    bool dropoutScheduleInit = false;

    std::vector<FaultEvent> eventLog;
    uint64_t kindCounts[10] = {};
};

} // namespace sim
} // namespace react

#endif // REACT_SIM_FAULT_INJECTOR_HH
