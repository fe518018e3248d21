/**
 * @file
 * Shared declarations of the repository benchmark (perfbench).
 *
 * Every layer is measured from outside, by timing calls into its public
 * functions; nothing here is compiled into the simulator.  A workload
 * function runs time-boxed passes, verifies every output outside the
 * timed region, and fills two metric maps: the end-to-end metrics of an
 * untraced run, and the per-layer metrics of a traced one.  See
 * perfbench/LAYERS.md for which metric each layer number should move.
 */

#ifndef REACT_PERFBENCH_PERFBENCH_HH
#define REACT_PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/paper_setup.hh"
#include "trace/paper_traces.hh"

namespace perfbench {

/** Monotonic host seconds (steady_clock). */
double now();

/** Spin until @p seconds have elapsed (the self-test's injected load). */
void busyWait(double seconds);

/** @name Order statistics over a sample (the input is copied). @{ */
double median(std::vector<double> v);
/** Linear-interpolated quantile, @p q in [0, 1]. */
double quantile(std::vector<double> v, double q);
/** Median absolute deviation from the median. */
double mad(const std::vector<double> &v);
/** The highest whole percentile with at least ten samples beyond it
 *  (99 once there are 1000 samples); 50 for tiny samples. */
int tailPercentile(size_t n);
/** @} */

/** Peak resident set of this process so far, MiB. */
double peakRssMb();

struct Metric
{
    double value = 0.0;
    std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/** One timed interval at a layer boundary; parent 0 = a root span. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    double start = 0.0;
    double end = 0.0;
};

/** In-memory span log of a traced run, written out when it ends. */
class Tracer
{
  public:
    uint64_t add(uint64_t parent, std::string name, double start,
                 double end);
    /** Write one JSON object per line, times relative to @p origin. */
    void write(const std::string &path, double origin) const;

  private:
    std::vector<Span> log;
};

struct Options
{
    std::string workload;
    uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test only: busy-wait this fraction of each Table-2 cell's
     *  time inside the benchmark's runner-lambda wrapper. */
    double injectCellFrac = 0.0;
    /** Writable directory inside the checkout (checkpoints, spans). */
    std::string scratchDir;
    int nproc = 1;
};

/** What one workload run produced. */
struct Outcome
{
    /** Operations attempted (cell results or jobs) and how many of them
     *  failed a check or raised an error. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** First few failure descriptions (stderr). */
    std::vector<std::string> failures;
    MetricMap endToEnd;
    MetricMap layers;

    void fail(const std::string &why);
};

/** Whether a time-boxed pass loop may stop: the run length is spent,
 *  and a traced run has a traced pass plus, unless it is a zero-second
 *  side run, an untraced one to measure the overhead against. */
bool passesDone(const Options &opt, bool traced_run, double begin,
                size_t traced, size_t untraced);

/** trace_overhead_frac: median traced pass / median untraced pass - 1
 *  (left out when either side has no pass). */
void putTraceOverhead(const std::vector<double> &untraced,
                      const std::vector<double> &traced, MetricMap &layers);

/** Bounds on a cell result that hold for every correct run: the ledger
 *  conservation error within the runner's 1e-9 J per harvested joule
 *  (harness/experiment.cc), and a non-zero step count. */
bool resultSane(const react::harness::ExperimentResult &r);

/** @p samples trace set-up times: the first is the real prewarm of the
 *  evaluation-trace cache, later ones re-synthesize the five traces
 *  uncached (the same work into fresh memory). */
std::vector<double> traceSynthSamples(int samples);

/** @name Layer probes shared by every traced run (layers.cc). @{ */
/** Interleaved buffer step() and BatchStepper::step micro loops. */
void measureMicroLoops(MetricMap &layers);
/** encodeResult + makeJobResult and decodeResult per result, us. */
void measureCodec(const std::vector<react::harness::ExperimentResult> &rs,
                  MetricMap &layers);
/** runGridCell on RF cells with checkpointPath minus without, ms; a
 *  checkpointed result that differs from the plain one is a failure. */
void measureSnapshotOverhead(const Options &opt, Outcome &out);
/** @} */

/** @name Workloads. @{ */
void runTable2Classic(const Options &opt, Tracer *tracer, Outcome &out);
void runStaticLanes(const Options &opt, Tracer *tracer, Outcome &out);
void runReactdMixed(const Options &opt, Tracer *tracer, Outcome &out);
/** @} */

} // namespace perfbench

#endif // REACT_PERFBENCH_PERFBENCH_HH
