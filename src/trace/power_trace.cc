#include "power_trace.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/csv.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace react {
namespace trace {

namespace {

/** Prefix a diagnostic with its source ("path: msg" / "path:line: msg"). */
[[noreturn]] void
traceFail(const std::string &source, size_t line, const std::string &msg)
{
    std::string where = source;
    if (line > 0)
        where += ":" + std::to_string(line);
    throw TraceError(where + ": " + msg);
}

/**
 * Validate a parsed table as a power capture and build the trace:
 * >= 2 rows, every row wide enough, timestamps strictly increasing on a
 * uniform grid (dt from the first two rows, 0.1 % relative tolerance --
 * loggers quantize timestamps), power finite and non-negative.
 */
PowerTrace
traceFromTable(const CsvTable &table, const std::string &source,
               const std::string &name)
{
    if (table.rows.size() < 2)
        traceFail(source, 0,
                  "a trace needs at least 2 data rows (got " +
                      std::to_string(table.rows.size()) + ")");
    int t_col = table.columnIndex("time_s");
    int p_col = table.columnIndex("power_w");
    if (t_col < 0 || p_col < 0) {
        t_col = 0;
        p_col = 1;
    }
    const size_t width =
        static_cast<size_t>(std::max(t_col, p_col)) + 1;
    auto row_line = [&](size_t i) {
        return i < table.rowLines.size() ? table.rowLines[i] : 0;
    };
    for (size_t i = 0; i < table.rows.size(); ++i) {
        if (table.rows[i].size() < width)
            traceFail(source, row_line(i),
                      "row has " + std::to_string(table.rows[i].size()) +
                          " column(s), need " + std::to_string(width));
    }

    const double t0 = table.rows[0][static_cast<size_t>(t_col)];
    const double sample_dt =
        table.rows[1][static_cast<size_t>(t_col)] - t0;
    if (!(sample_dt > 0.0) || !std::isfinite(sample_dt))
        traceFail(source, row_line(1),
                  "timestamps must be strictly increasing (dt = " +
                      std::to_string(sample_dt) + ")");

    std::vector<double> samples;
    samples.reserve(table.rows.size());
    for (size_t i = 0; i < table.rows.size(); ++i) {
        const double t = table.rows[i][static_cast<size_t>(t_col)];
        const double expected = t0 + static_cast<double>(i) * sample_dt;
        if (!std::isfinite(t) ||
            std::abs(t - expected) > 1e-3 * sample_dt)
            traceFail(source, row_line(i),
                      "timestamp " + std::to_string(t) +
                          " breaks the uniform grid (expected " +
                          std::to_string(expected) + ")");
        const double p = table.rows[i][static_cast<size_t>(p_col)];
        if (!std::isfinite(p) || p < 0.0)
            traceFail(source, row_line(i),
                      "power sample " + std::to_string(p) +
                          " must be finite and >= 0");
        samples.push_back(p);
    }
    return PowerTrace(sample_dt, std::move(samples), name);
}

} // namespace

PowerTrace::PowerTrace(double sample_dt, std::vector<double> sample_values,
                       std::string name)
    : label(std::move(name)), dt(sample_dt), samples(std::move(sample_values))
{
    react_assert(sample_dt > 0.0, "trace sample interval must be positive");
    for (double p : this->samples)
        react_assert(p >= 0.0, "trace power samples must be >= 0");
}

double
PowerTrace::duration() const
{
    return dt * static_cast<double>(samples.size());
}

double
PowerTrace::power(double t) const
{
    if (t < 0.0 || samples.empty())
        return 0.0;
    const size_t idx = static_cast<size_t>(t / dt);
    if (idx >= samples.size())
        return 0.0;
    return samples[idx];
}

namespace {

/** Bit equality: the span sweep must reproduce power()'s exact result
 *  doubles, and value equality would conflate 0.0 with -0.0 (whose bits
 *  diverge downstream, e.g. through std::max in a converter). */
inline bool
sameBits(double a, double b)
{
    uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

} // namespace

void
PowerTrace::compileStepSpans(double step_dt,
                             std::vector<StepSpan> &out) const
{
    react_assert(step_dt > 0.0, "span replay timestep must be positive");
    const size_t n = samples.size();
    double t = 0.0;
    double current = 0.0;
    uint64_t run = 0;
    if (n > 0) {
        for (;;) {
            // Exactly power()'s arithmetic under the caller's
            // accumulated t (t > 0 always holds here).
            t += step_dt;
            const size_t idx = static_cast<size_t>(t / dt);
            if (idx >= n)
                break;
            const double w = samples[idx];
            if (run > 0 && sameBits(w, current)) {
                ++run;
                continue;
            }
            if (run > 0)
                out.push_back({current, run});
            current = w;
            run = 1;
        }
        if (run > 0)
            out.push_back({current, run});
    }
    // Past the trace end power() is 0.0 forever (t only grows).
    out.push_back({0.0, StepSpan::kOpenEnded});
}

double
PowerTrace::totalEnergy() const
{
    double e = 0.0;
    for (double p : samples)
        e += p * dt;
    return e;
}

TraceStats
PowerTrace::stats() const
{
    RunningStats rs;
    for (double p : samples)
        rs.add(p);
    TraceStats out;
    out.duration = duration();
    out.meanPower = rs.mean();
    out.cv = rs.cv();
    out.totalEnergy = totalEnergy();
    out.peakPower = rs.max();
    return out;
}

double
PowerTrace::energyFractionAbove(double threshold) const
{
    const double total = totalEnergy();
    if (total <= 0.0)
        return 0.0;
    double above = 0.0;
    for (double p : samples) {
        if (p >= threshold)
            above += p * dt;
    }
    return above / total;
}

double
PowerTrace::timeFractionBelow(double threshold) const
{
    if (samples.empty())
        return 0.0;
    size_t below = 0;
    for (double p : samples) {
        if (p <= threshold)
            ++below;
    }
    return static_cast<double>(below) / static_cast<double>(samples.size());
}

void
PowerTrace::scale(double factor)
{
    react_assert(factor >= 0.0, "trace scale factor must be >= 0");
    for (double &p : samples)
        p *= factor;
}

void
PowerTrace::scaleToMeanPower(double target_mean)
{
    RunningStats rs;
    for (double p : samples)
        rs.add(p);
    const double mean = rs.mean();
    react_assert(mean > 0.0, "cannot rescale an all-zero trace");
    scale(target_mean / mean);
}

PowerTrace
PowerTrace::resampled(double new_dt) const
{
    react_assert(new_dt > 0.0, "resample interval must be positive");
    const size_t n = static_cast<size_t>(std::ceil(duration() / new_dt));
    std::vector<double> out(n, 0.0);
    for (size_t i = 0; i < n; ++i)
        out[i] = power(static_cast<double>(i) * new_dt);
    return PowerTrace(new_dt, std::move(out), label);
}

std::string
PowerTrace::toCsv() const
{
    std::ostringstream out;
    out << "time_s,power_w\n";
    out.precision(9);
    for (size_t i = 0; i < samples.size(); ++i)
        out << static_cast<double>(i) * dt << ',' << samples[i] << '\n';
    return out.str();
}

PowerTrace
PowerTrace::fromCsv(const std::string &text, const std::string &name)
{
    CsvTable table;
    std::string error;
    if (!tryParseCsv(text, &table, &error))
        traceFail("<csv>", 0, error);
    return traceFromTable(table, "<csv>", name);
}

PowerTrace
PowerTrace::fromCsvFile(const std::string &path, const std::string &name)
{
    std::ifstream in(path);
    if (!in)
        traceFail(path, 0, "cannot open trace file");
    std::stringstream buf;
    buf << in.rdbuf();
    CsvTable table;
    std::string error;
    if (!tryParseCsv(buf.str(), &table, &error))
        traceFail(path, 0, error);
    return traceFromTable(table, path, name.empty() ? path : name);
}

} // namespace trace
} // namespace react
