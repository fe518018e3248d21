/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload <table2_classic|static_lanes|reactd_mixed>
 *             --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
 *             [--git-head <sha>] [--inject-cell-frac <f>]
 *
 * --trace 0 measures the end-to-end metrics with no instrumentation.
 * --trace 1 profiles every layer: the named workload runs traced and
 * untraced passes alternately (their ratio is trace_overhead_frac), the
 * other two workloads run one short traced pass each for the layers the
 * named one does not reach, and the shared layer probes run last.  The
 * spans land in <scratch>/spans-<workload>-seed<n>.jsonl.
 *
 * --inject-cell-frac is the sensitivity self-test's knob
 * (perfbench/selftest.py): a busy-wait of that fraction of each
 * Table-2 cell's time inside the benchmark's own runner-lambda wrapper.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and the metrics of the mode.  Exit status 0 only when every output
 * check passed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench.hh"
#include "sim/simd.hh"

namespace {

using namespace perfbench;

using WorkloadFn = void (*)(const Options &, Tracer *, Outcome &);

struct Workload
{
    const char *name;
    WorkloadFn run;
    /** Runner workers and client connections the workload uses. */
    int workers;
    int clients;
};

std::vector<Workload>
workloads(int nproc)
{
    const int served = std::max(1, nproc - 1);
    return {
        {"table2_classic", runTable2Classic, nproc, 0},
        {"static_lanes", runStaticLanes, 1, 0},
        {"reactd_mixed", runReactdMixed, served, served},
    };
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> --scratch <dir> "
                 "[--git-head <sha>] [--inject-cell-frac <f>]\n",
                 why);
    std::exit(2);
}

void
printMetrics(const MetricMap &metrics, Outcome &out)
{
    for (const auto &[name, m] : metrics) {
        if (!std::isfinite(m.value))
            out.fail("metric " + name + " is not finite");
        std::printf("  %-40s %.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    }
}

std::string
jsonLine(const Outcome &out, const MetricMap &metrics)
{
    std::string s = "{\"correct\": ";
    s += out.failed == 0 && out.attempted > 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(out.attempted);
    s += ", \"failed\": " + std::to_string(out.failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.12g",
                      std::isfinite(m.value) ? m.value : 0.0);
        s += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    return s + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.nproc = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    std::string git_head = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(value);
        else if (arg == "--trace")
            opt.trace = std::strcmp(value, "1") == 0;
        else if (arg == "--scratch")
            opt.scratchDir = value;
        else if (arg == "--git-head")
            git_head = value;
        else if (arg == "--inject-cell-frac")
            opt.injectCellFrac = std::atof(value);
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (opt.scratchDir.empty())
        usage("--scratch is required");
    const std::vector<Workload> all = workloads(opt.nproc);
    const Workload *main_workload = nullptr;
    for (const auto &w : all)
        if (opt.workload == w.name)
            main_workload = &w;
    if (main_workload == nullptr)
        usage(("unknown workload '" + opt.workload + "'").c_str());

    namespace simd = react::sim::simd;
    const simd::Kernel auto_kernel = simd::resolveKernel(
        simd::Policy::Auto, simd::avx2Available(), simd::avx512Available());
    std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
                "\"workers\": %d, \"clients\": %d, \"auto_kernel\": \"%s\", "
                "\"avx2\": %s, \"avx512\": %s, \"build_type\": \"%s\", "
                "\"git_head\": \"%s\", \"seconds\": %g, \"trace\": %d, "
                "\"inject_cell_frac\": %g}\n",
                main_workload->name,
                static_cast<unsigned long long>(opt.seed), opt.nproc,
                main_workload->workers, main_workload->clients,
                simd::kernelName(auto_kernel),
                simd::avx2Available() ? "true" : "false",
                simd::avx512Available() ? "true" : "false",
                PERFBENCH_BUILD_TYPE, git_head.c_str(), opt.seconds,
                opt.trace ? 1 : 0, opt.injectCellFrac);

    Tracer tracer;
    const double origin = now();
    Outcome out;
    main_workload->run(opt, opt.trace ? &tracer : nullptr, out);
    if (opt.trace) {
        for (const auto &w : all) {
            if (&w == main_workload)
                continue;
            Options side = opt;
            side.seconds = 0.0;
            Outcome side_out;
            w.run(side, &tracer, side_out);
            out.attempted += side_out.attempted;
            out.failed += side_out.failed;
            for (const auto &why : side_out.failures)
                out.failures.push_back(std::string(w.name) + ": " + why);
            out.layers.insert(side_out.layers.begin(),
                              side_out.layers.end());
        }
        measureMicroLoops(out.layers);
        measureSnapshotOverhead(opt, out);
        tracer.write(opt.scratchDir + "/spans-" + opt.workload + "-seed" +
                         std::to_string(opt.seed) + ".jsonl",
                     origin);
    }

    const MetricMap &metrics = opt.trace ? out.layers : out.endToEnd;
    std::printf("%s metrics (%s):\n", opt.workload.c_str(),
                opt.trace ? "per layer, traced" : "end to end, untraced");
    printMetrics(metrics, out);
    std::printf("  %-40s %.6g frac (%llu of %llu operations)\n",
                "failed_frac",
                out.attempted > 0 ? static_cast<double>(out.failed) /
                        static_cast<double>(out.attempted)
                                  : 1.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    for (const auto &why : out.failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
    std::printf("%s\n", jsonLine(out, metrics).c_str());
    return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
