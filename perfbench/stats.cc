/**
 * @file
 * Clocks, order statistics, span log and result checks of perfbench.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

#include "harness/grid.hh"
#include "perfbench.hh"

namespace perfbench {

using namespace react;

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

void
busyWait(double seconds)
{
    const double until = now() + seconds;
    while (now() < until) {
    }
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mad(const std::vector<double> &v)
{
    const double m = median(v);
    std::vector<double> dev;
    dev.reserve(v.size());
    for (const double x : v)
        dev.push_back(std::abs(x - m));
    return median(std::move(dev));
}

int
tailPercentile(size_t n)
{
    for (int p = 99; p > 50; --p) {
        // Samples strictly beyond the p-th percentile.
        if (static_cast<double>(n) * (100 - p) / 100.0 >= 10.0)
            return p;
    }
    return 50;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t
Tracer::add(uint64_t parent, std::string name, double start, double end)
{
    Span s;
    s.id = log.size() + 1;
    s.parent = parent;
    s.name = std::move(name);
    s.start = start;
    s.end = end;
    log.push_back(std::move(s));
    return log.back().id;
}

void
Tracer::write(const std::string &path, double origin) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return;
    for (const Span &s : log) {
        std::fprintf(f,
                     "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                     "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     s.name.c_str(), s.start - origin, s.end - origin);
    }
    std::fclose(f);
}

void
Outcome::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

bool
passesDone(const Options &opt, bool traced_run, double begin,
           size_t traced, size_t untraced)
{
    if (now() - begin < opt.seconds)
        return false;
    return !traced_run || (traced > 0 && (opt.seconds <= 0.0 || untraced > 0));
}

void
putTraceOverhead(const std::vector<double> &untraced,
                 const std::vector<double> &traced, MetricMap &layers)
{
    if (untraced.empty() || traced.empty())
        return;
    layers["trace_overhead_frac"] = {median(traced) / median(untraced) - 1.0,
                                     "frac"};
}

bool
resultSane(const harness::ExperimentResult &r)
{
    const double tolerance = 1e-9 * std::max(1.0, r.ledger.harvested.raw());
    return r.steps > 0 && std::abs(r.conservationError) <= tolerance;
}

std::vector<double>
traceSynthSamples(int samples)
{
    std::vector<double> out;
    double t0 = now();
    harness::prewarmEvaluationTraces();
    out.push_back(now() - t0);
    for (int i = 1; i < samples; ++i) {
        t0 = now();
        for (const auto which : trace::kAllPaperTraces) {
            const trace::PowerTrace fresh = trace::makePaperTrace(which);
            if (fresh.duration() <= 0.0)
                std::fprintf(stderr, "perfbench: empty trace\n");
        }
        out.push_back(now() - t0);
    }
    return out;
}

} // namespace perfbench
