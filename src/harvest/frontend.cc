#include "frontend.hh"

#include <cstdint>
#include <cstring>

namespace react {
namespace harvest {

namespace {

/** Bit equality (see trace::PowerTrace::compileStepSpans): converter
 *  outputs must merge only when the hot loop would see identical
 *  doubles, and -0.0 != +0.0 bitwise. */
inline bool
sameBits(double a, double b)
{
    uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

/** Span-length addition with the open-ended tail absorbing. */
inline uint64_t
addSpanSteps(uint64_t a, uint64_t b)
{
    if (a == trace::StepSpan::kOpenEnded ||
        b == trace::StepSpan::kOpenEnded)
        return trace::StepSpan::kOpenEnded;
    return a + b;
}

} // namespace

HarvesterFrontend::HarvesterFrontend(trace::PowerTrace trace,
                                     std::unique_ptr<Converter> converter)
    : powerTrace(std::move(trace)), conv(std::move(converter))
{
}

Watts
HarvesterFrontend::power(Seconds t) const
{
    // The trace layer stays in raw doubles (file I/O boundary); wrap its
    // sample into the typed domain here.
    const Watts raw{powerTrace.power(t.raw())};
    return conv ? conv->outputPower(raw) : raw;
}

void
HarvesterFrontend::compileStepSpans(double step_dt,
                                    std::vector<trace::StepSpan> &out) const
{
    const size_t first = out.size();
    powerTrace.compileStepSpans(step_dt, out);
    if (!conv)
        // Identity frontend: power() wraps the raw sample unchanged.
        return;
    // Map each raw span through the converter and merge adjacent spans
    // whose outputs are bit-equal (a converter may flatten distinct
    // inputs, e.g. everything under its cut-in threshold to one value).
    size_t w = first;
    for (size_t r = first; r < out.size(); ++r) {
        const double converted =
            conv->outputPower(Watts(out[r].watts)).raw();
        if (w > first && sameBits(converted, out[w - 1].watts)) {
            out[w - 1].steps = addSpanSteps(out[w - 1].steps,
                                            out[r].steps);
            continue;
        }
        out[w].watts = converted;
        out[w].steps = out[r].steps;
        ++w;
    }
    out.resize(w);
}

Seconds
HarvesterFrontend::traceDuration() const
{
    return Seconds(powerTrace.duration());
}

} // namespace harvest
} // namespace react
