/**
 * @file
 * Runtime SIMD dispatch policy for the batch-of-cells lane engine.
 *
 * The batch stepper (sim/batch_stepper.hh) ships three kernels: a
 * portable scalar fallback, an AVX2 build, and an AVX-512 build of the
 * same operation sequence.  Which one runs is decided *once per
 * process* from two inputs:
 *
 *  - the host CPU (cpuid, via __builtin_cpu_supports), and
 *  - the REACT_SIMD environment knob, parsed through react::env:
 *
 *      unset / "off"  -> lane engine disabled; every cell runs the
 *                        classic per-cell scalar path (the bit-exact
 *                        default -- golden results never depend on an
 *                        env var being set);
 *      "scalar"       -> lane engine with the scalar kernel, pinned
 *                        (never a vector kernel, even on capable hosts);
 *      "auto"         -> best kernel the host and build support:
 *                        AVX-512 over AVX2 over scalar;
 *      "avx2"         -> AVX2 kernel, or a loud react_panic when the
 *                        host or build cannot run it -- requesting a
 *                        specific engine and silently getting another
 *                        would invalidate a benchmark run;
 *      "avx512"       -> AVX-512 kernel, with the same loud-failure
 *                        contract as "avx2";
 *      anything else  -> react_warn naming the accepted forms, then the
 *                        unset default (per the react::env contract).
 *
 * Every kernel computes bit-identical results (tests/test_batch_stepper.cc
 * proves it differentially), so the knob is a pure performance choice.
 */

#ifndef REACT_SIM_SIMD_HH
#define REACT_SIM_SIMD_HH

#include <string>

namespace react {
namespace sim {
namespace simd {

/** Parsed REACT_SIMD request. */
enum class Policy
{
    /** Unset/off: classic per-cell stepping, no lane engine. */
    Off,
    /** Best kernel the host supports (AVX2 if possible, else scalar). */
    Auto,
    /** Lane engine with the scalar kernel, pinned. */
    Scalar,
    /** AVX2 kernel or fail loudly. */
    Avx2,
    /** AVX-512 kernel or fail loudly. */
    Avx512,
};

/** Kernel the batch stepper will actually run. */
enum class Kernel
{
    /** No lane engine: cells step one at a time (the default). */
    Disabled,
    /** Portable scalar lane kernel. */
    Scalar,
    /** AVX2 4-wide double kernel (two vectors cover the 8 lanes). */
    Avx2,
    /** AVX-512 8-wide double kernel (one vector covers the batch). */
    Avx512,
};

/** Raw cpuid probe: does this host execute AVX2? */
bool cpuSupportsAvx2();

/** Was the AVX2 kernel translation unit compiled into this binary? */
bool avx2KernelCompiled();

/** Both of the above: the AVX2 kernel can actually run here. */
bool avx2Available();

/** Raw cpuid probe: does this host execute AVX-512F? */
bool cpuSupportsAvx512f();

/** Was the AVX-512 kernel translation unit compiled into this binary? */
bool avx512KernelCompiled();

/** Both of the above: the AVX-512 kernel can actually run here. */
bool avx512Available();

/**
 * Parse a REACT_SIMD value.  Accepts "off", "auto", "scalar", "avx2",
 * "avx512" (exact, lower-case).  Anything else sets *malformed and
 * returns the unset default (Policy::Off); the caller owns the warning
 * so this stays pure and unit-testable.
 */
Policy parsePolicy(const std::string &value, bool *malformed);

/** Read REACT_SIMD through react::env: unset -> Off silently, malformed
 *  -> react_warn naming the accepted forms, then Off. */
Policy envPolicy();

/**
 * Resolve a policy against host capability.  Pure: every input is
 * explicit so the negative paths (avx2/avx512 requested on an incapable
 * host panics; auto falls back) are unit-testable without real
 * hardware.
 */
Kernel resolveKernel(Policy policy, bool avx2_available,
                     bool avx512_available);

/**
 * The process-wide kernel selection: resolveKernel(envPolicy(),
 * avx2Available(), avx512Available()), read once and cached -- the
 * engine must not change between cells of one sweep.
 */
Kernel selectedKernel();

/** Display names for logs and BENCH_*.json. */
const char *kernelName(Kernel kernel);

} // namespace simd
} // namespace sim
} // namespace react

#endif // REACT_SIM_SIMD_HH
