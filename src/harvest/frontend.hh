/**
 * @file
 * Ekho-style record-and-replay harvesting frontend.
 *
 * The paper makes its experiments repeatable by replaying recorded power
 * traces through a programmable supply (S 4.3).  HarvesterFrontend is the
 * simulator's equivalent: it binds a PowerTrace to an optional converter
 * model and answers "how much power is entering the buffer at time t".
 * The evaluation traces (Table 3) are recorded at the harvester *output*,
 * so the main experiments use the identity converter; the converter models
 * are exercised by the frontend ablation bench and by users composing raw
 * irradiance/RF-field traces.
 */

#ifndef REACT_HARVEST_FRONTEND_HH
#define REACT_HARVEST_FRONTEND_HH

#include <memory>
#include <vector>

#include "harvest/converter.hh"
#include "trace/power_trace.hh"
#include "util/units.hh"

namespace react {
namespace harvest {

using units::Seconds;

/** Replay frontend: trace plus converter. */
class HarvesterFrontend
{
  public:
    /**
     * @param trace Power trace to replay (copied).
     * @param converter Conversion stage; identity when null.
     */
    explicit HarvesterFrontend(trace::PowerTrace trace,
                               std::unique_ptr<Converter> converter =
                                   nullptr);

    /** Power delivered into the buffer at the given time. */
    Watts power(Seconds t) const;

    /**
     * Compile the per-step at-buffer power sequence of a fixed-dt
     * replay (`t = 0; repeat { t += step_dt; power(Seconds(t)); }`)
     * into run-length spans, appended to @p out.  The trace's raw spans
     * (trace::PowerTrace::compileStepSpans) are mapped through the
     * converter once per span -- zero-order hold means equal input bits
     * yield equal output bits, so one evaluation covers every step of
     * the span -- and adjacent spans with bit-equal outputs are merged.
     * Sweeping the result is bit-identical to calling power() every
     * step; the lane engine's hot loop relies on exactly that.
     *
     * @param step_dt Replay timestep, seconds (> 0).
     * @param out Receives the spans (appended; not cleared).
     */
    void compileStepSpans(double step_dt,
                          std::vector<trace::StepSpan> &out) const;

    /** Duration of the underlying trace. */
    Seconds traceDuration() const;

    /** Underlying trace. */
    const trace::PowerTrace &trace() const { return powerTrace; }

  private:
    trace::PowerTrace powerTrace;
    std::unique_ptr<Converter> conv;
};

} // namespace harvest
} // namespace react

#endif // REACT_HARVEST_FRONTEND_HH
