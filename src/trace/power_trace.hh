/**
 * @file
 * Power-trace container and characterization.
 *
 * A PowerTrace is a fixed-rate, zero-order-hold sampling of harvested power
 * versus time -- the digital equivalent of what the paper's Ekho-style
 * frontend replays into the buffer.  The characterization helpers compute
 * the statistics the paper reports: Table 3's mean power and coefficient of
 * variation, and S 2.1.2's spike-energy decomposition (what fraction of
 * total energy arrives above a power threshold, what fraction of time is
 * spent below one).
 */

#ifndef REACT_TRACE_POWER_TRACE_HH
#define REACT_TRACE_POWER_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace react {
namespace trace {

/**
 * Raised when a trace file is malformed: unreadable, truncated,
 * non-numeric, non-monotonic or non-uniform timestamps, or negative
 * power.  what() carries file and line context ("path:line: message")
 * so a bad row in a thousand-line capture is findable directly.
 */
class TraceError : public std::runtime_error
{
  public:
    explicit TraceError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

/**
 * One run of consecutive fixed-dt replay steps over which power() keeps
 * returning the same double (bit-identical).  The batch runner's hot
 * loop consumes a precompiled span table as a linear sweep -- one
 * counter decrement per lane per step -- instead of a per-step
 * divide-and-index lookup.
 */
struct StepSpan
{
    /** steps value of the final span: the trace has ended and power()
     *  is 0.0 (or the converter's image of 0.0) forever after. */
    static constexpr uint64_t kOpenEnded = ~0ull;

    /** power() during every step of the span, watts. */
    double watts = 0.0;
    /** Number of consecutive steps the value holds (kOpenEnded for the
     *  unbounded tail past the trace end). */
    uint64_t steps = 0;
};

/** Summary statistics for a trace (the paper's Table 3 row). */
struct TraceStats
{
    double duration = 0.0;      ///< seconds
    double meanPower = 0.0;     ///< watts
    double cv = 0.0;            ///< stddev / mean
    double totalEnergy = 0.0;   ///< joules
    double peakPower = 0.0;     ///< watts
};

/** Fixed-rate power-versus-time series with zero-order-hold lookup. */
class PowerTrace
{
  public:
    PowerTrace() = default;

    /**
     * @param sample_dt Sampling interval in seconds (> 0).
     * @param samples Power samples in watts (each >= 0).
     * @param name Human-readable label used in reports.
     */
    PowerTrace(double sample_dt, std::vector<double> samples,
               std::string name = "");

    /** Trace label. */
    const std::string &name() const { return label; }

    /** Sampling interval in seconds. */
    double sampleDt() const { return dt; }

    /** Number of samples. */
    size_t size() const { return samples.size(); }

    /** Total duration in seconds. */
    double duration() const;

    /** Raw sample access. */
    const std::vector<double> &data() const { return samples; }

    /**
     * Power at the given time (zero-order hold); 0 outside the trace.
     *
     * @param t Time in seconds from the start of the trace.
     */
    double power(double t) const;

    /**
     * Compile the fixed-dt replay `t = 0; repeat { t += step_dt;
     * power(t); }` into run-length spans, appended to @p out.  The
     * boundaries come from replaying that exact accumulated-t sequence
     * (including its floating-point rounding) through power()'s own
     * index arithmetic, so sweeping the spans yields bit-identical
     * power values to calling power() every step -- this is what lets
     * the lane engine hoist trace sampling out of its hot loop.  The
     * final span is the unbounded zero tail past the trace end
     * (StepSpan::kOpenEnded).
     *
     * @param step_dt Replay timestep, seconds (> 0).
     * @param out Receives the spans (appended; not cleared).
     */
    void compileStepSpans(double step_dt,
                          std::vector<StepSpan> &out) const;

    /** Total energy contained in the trace, in joules. */
    double totalEnergy() const;

    /** Table-3 style summary statistics. */
    TraceStats stats() const;

    /** Fraction of total energy delivered while power >= threshold. */
    double energyFractionAbove(double threshold) const;

    /** Fraction of time spent with power <= threshold. */
    double timeFractionBelow(double threshold) const;

    /** Multiply every sample by the given factor. */
    void scale(double factor);

    /** Rescale samples so the mean power equals the target. */
    void scaleToMeanPower(double target_mean);

    /**
     * Resample to a different interval (zero-order hold).
     *
     * @param new_dt Target sampling interval in seconds.
     */
    PowerTrace resampled(double new_dt) const;

    /** Serialize as two-column CSV (time_s, power_w). */
    std::string toCsv() const;

    /**
     * Parse from two-column CSV (time_s, power_w); dt from row spacing.
     * Validates the same invariants as fromCsvFile().
     * @throws TraceError on malformed input.
     */
    static PowerTrace fromCsv(const std::string &text,
                              const std::string &name = "");

    /**
     * Load and validate a trace capture from disk.  Rejected with a
     * TraceError carrying "path:line" context: unreadable or empty
     * files, fewer than two data rows, non-numeric fields, timestamps
     * that are not strictly increasing on a uniform grid, non-finite or
     * negative power samples, and rows missing a column.
     *
     * @param path CSV file with time_s/power_w columns (or two unnamed
     *        columns in that order).
     * @param name Trace label; defaults to the path.
     */
    static PowerTrace fromCsvFile(const std::string &path,
                                  const std::string &name = "");

  private:
    std::string label;
    double dt = 0.0;
    std::vector<double> samples;
};

} // namespace trace
} // namespace react

#endif // REACT_TRACE_POWER_TRACE_HH
