#include "simd.hh"

#include "util/env.hh"
#include "util/logging.hh"

namespace react {
namespace sim {
namespace simd {

bool
cpuSupportsAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

bool
avx2KernelCompiled()
{
#ifdef REACT_HAVE_AVX2_KERNEL
    return true;
#else
    return false;
#endif
}

bool
avx2Available()
{
    return avx2KernelCompiled() && cpuSupportsAvx2();
}

bool
cpuSupportsAvx512f()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx512f") != 0;
#else
    return false;
#endif
}

bool
avx512KernelCompiled()
{
#ifdef REACT_HAVE_AVX512_KERNEL
    return true;
#else
    return false;
#endif
}

bool
avx512Available()
{
    return avx512KernelCompiled() && cpuSupportsAvx512f();
}

Policy
parsePolicy(const std::string &value, bool *malformed)
{
    if (malformed != nullptr)
        *malformed = false;
    if (value == "off")
        return Policy::Off;
    if (value == "auto")
        return Policy::Auto;
    if (value == "scalar")
        return Policy::Scalar;
    if (value == "avx2")
        return Policy::Avx2;
    if (value == "avx512")
        return Policy::Avx512;
    if (malformed != nullptr)
        *malformed = true;
    return Policy::Off;
}

Policy
envPolicy()
{
    const auto value = env::stringVar("REACT_SIMD");
    if (!value)
        return Policy::Off;
    bool malformed = false;
    const Policy policy = parsePolicy(*value, &malformed);
    if (malformed)
        react_warn("REACT_SIMD='%s' is not off, auto, scalar, avx2, or "
                   "avx512; defaulting to off (classic per-cell engine)",
                   value->c_str());
    return policy;
}

Kernel
resolveKernel(Policy policy, bool avx2_available, bool avx512_available)
{
    switch (policy) {
    case Policy::Off:
        return Kernel::Disabled;
    case Policy::Scalar:
        return Kernel::Scalar;
    case Policy::Auto:
        // Every kernel is bit-identical (the differential harness in
        // tests/test_batch_stepper.cc proves it), so auto may take the
        // widest one without changing any result.
        if (avx512_available)
            return Kernel::Avx512;
        return avx2_available ? Kernel::Avx2 : Kernel::Scalar;
    case Policy::Avx2:
        // An explicit vector-kernel request must never degrade
        // silently: a benchmark run that asked for the vector engine
        // and got the scalar one would report the wrong machine's
        // numbers.
        if (!avx2_available)
            react_panic("REACT_SIMD=avx2 requested but the AVX2 lane "
                        "kernel cannot run here (cpu supports avx2: %s, "
                        "kernel compiled in: %s); use REACT_SIMD=auto "
                        "to fall back",
                        cpuSupportsAvx2() ? "yes" : "no",
                        avx2KernelCompiled() ? "yes" : "no");
        return Kernel::Avx2;
    case Policy::Avx512:
        break;
    }
    if (!avx512_available)
        react_panic("REACT_SIMD=avx512 requested but the AVX-512 lane "
                    "kernel cannot run here (cpu supports avx512f: %s, "
                    "kernel compiled in: %s); use REACT_SIMD=auto to "
                    "fall back",
                    cpuSupportsAvx512f() ? "yes" : "no",
                    avx512KernelCompiled() ? "yes" : "no");
    return Kernel::Avx512;
}

Kernel
selectedKernel()
{
    // Read once per process: the engine must not change between cells
    // of one sweep.
    static const Kernel kernel =
        resolveKernel(envPolicy(), avx2Available(), avx512Available());
    return kernel;
}

const char *
kernelName(Kernel kernel)
{
    switch (kernel) {
    case Kernel::Disabled:
        return "disabled";
    case Kernel::Scalar:
        return "scalar";
    case Kernel::Avx2:
        return "avx2";
    case Kernel::Avx512:
        return "avx512";
    }
    return "?";
}

} // namespace simd
} // namespace sim
} // namespace react
