/**
 * @file
 * ParallelRunner scheduler tests plus the determinism property the whole
 * evaluation pipeline depends on: the same sweep run on 1, 2, and 8
 * worker threads must produce bit-identical experiment results -- work
 * counts, timing, AND the energy-ledger audit totals -- because cell RNG
 * streams are derived from stable cell identities, never from thread
 * identity or scheduling order.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "harness/experiment.hh"
#include "harness/parallel_runner.hh"
#include "harness/paper_setup.hh"
#include "trace/power_trace.hh"

namespace react {
namespace harness {
namespace {

TEST(CellSeed, StableAcrossCalls)
{
    EXPECT_EQ(cellSeed(42, "DE:RF Cart:REACT"),
              cellSeed(42, "DE:RF Cart:REACT"));
}

TEST(CellSeed, SensitiveToKeyAndBase)
{
    const uint64_t s = cellSeed(42, "DE:RF Cart:REACT");
    EXPECT_NE(s, cellSeed(42, "DE:RF Cart:Morphy"));
    EXPECT_NE(s, cellSeed(42, "DE:RF Cart:REACT "));
    EXPECT_NE(s, cellSeed(43, "DE:RF Cart:REACT"));
    EXPECT_NE(cellSeed(42, ""), 0u);
}

TEST(ParallelRunner, ExecutesEveryCellExactlyOnce)
{
    ParallelRunner runner(4);
    constexpr int kCells = 100;
    std::vector<std::atomic<int>> hits(kCells);
    for (int i = 0; i < kCells; ++i) {
        const size_t index =
            runner.submit("cell", [&hits, i]() { hits[i].fetch_add(1); });
        EXPECT_EQ(index, static_cast<size_t>(i));
    }
    runner.run();
    for (int i = 0; i < kCells; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "cell " << i;
}

TEST(ParallelRunner, TimingsFollowSubmissionOrder)
{
    // The caller and the spawned worker may each claim one cell, so the
    // cells share only an atomic counter.
    ParallelRunner runner(2);
    std::atomic<int> ran{0};
    runner.submit("alpha", [&ran]() { ran.fetch_add(1); });
    runner.submit("beta", [&ran]() { ran.fetch_add(1); });
    runner.run();
    EXPECT_EQ(ran.load(), 2);
    ASSERT_EQ(runner.timings().size(), 2u);
    EXPECT_EQ(runner.timings()[0].label, "alpha");
    EXPECT_EQ(runner.timings()[1].label, "beta");
    EXPECT_GE(runner.timings()[0].seconds, 0.0);
    EXPECT_GE(runner.wallSeconds(), 0.0);
    EXPECT_GE(runner.busySeconds(), 0.0);
}

TEST(ParallelRunner, ReusableAcrossBatches)
{
    ParallelRunner runner(2);
    int first = 0;
    runner.submit("first", [&]() { first = 1; });
    runner.run();
    EXPECT_EQ(first, 1);

    int second = 0;
    runner.submit("second", [&]() { second = 2; });
    runner.run();
    EXPECT_EQ(second, 2);
    // timings() describes only the latest batch.
    ASSERT_EQ(runner.timings().size(), 1u);
    EXPECT_EQ(runner.timings()[0].label, "second");
}

TEST(ParallelRunner, SingleThreadRunsInline)
{
    ParallelRunner runner(1);
    EXPECT_EQ(runner.threadCount(), 1);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        runner.submit("cell", [&order, i]() { order.push_back(i); });
    runner.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelRunner, CellExceptionPropagates)
{
    ParallelRunner runner(2);
    runner.submit("ok", []() {});
    runner.submit("boom",
                  []() { throw std::runtime_error("cell failure"); });
    EXPECT_THROW(runner.run(), std::runtime_error);
}

/** A cell's own failure type, so the test can tell it from anything
 *  the runner itself might throw. */
struct CellFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Handler a test installs so "restored" means back to it, not to the
 *  default disposition. */
void
testSignalHandler(int)
{
}

/**
 * The exception path at each thread count: one suite parameterized over
 * 1 and 4 threads, so the inline run and the pooled run must leave the
 * runner and the process in the same state after a cell throws.
 */
class ThrowingCellTest : public testing::TestWithParam<int>
{
  protected:
    void SetUp() override
    {
        ParallelRunner::clearStopRequest();
        struct sigaction sa = {};
        sa.sa_handler = testSignalHandler;
        sigemptyset(&sa.sa_mask);
        ASSERT_EQ(sigaction(SIGINT, &sa, &savedInt), 0);
        ASSERT_EQ(sigaction(SIGTERM, &sa, &savedTerm), 0);
    }

    void TearDown() override
    {
        sigaction(SIGINT, &savedInt, nullptr);
        sigaction(SIGTERM, &savedTerm, nullptr);
    }

    /** Current handler for @p signo. */
    static void (*handlerOf(int signo))(int)
    {
        struct sigaction now = {};
        sigaction(signo, nullptr, &now);
        return now.sa_handler;
    }

    struct sigaction savedInt = {}, savedTerm = {};
};

TEST_P(ThrowingCellTest, RethrowsRestoresSignalsAndDropsBatch)
{
    constexpr int kCells = 8;
    constexpr int kThrower = 2;
    ParallelRunner runner(GetParam());  // default ExitAfterDrain policy
    std::vector<std::atomic<int>> runs(kCells);
    for (int i = 0; i < kCells; ++i) {
        runner.submit("cell", [&runs, i]() {
            runs[static_cast<size_t>(i)].fetch_add(1);
            if (i == kThrower)
                throw CellFailure("cell 2 failed");
        });
    }

    bool caught = false;
    try {
        runner.run();
    } catch (const CellFailure &e) {
        caught = true;
        EXPECT_STREQ(e.what(), "cell 2 failed");
    }
    EXPECT_TRUE(caught) << "run() must rethrow the cell's own exception";
    EXPECT_FALSE(runner.interrupted());
    EXPECT_EQ(runs[kThrower].load(), 1);
    if (GetParam() == 1) {
        // Inline run: submission order, and nothing is claimed after
        // the cell that threw.
        for (int i = 0; i < kCells; ++i)
            EXPECT_EQ(runs[static_cast<size_t>(i)].load(),
                      i <= kThrower ? 1 : 0) << "cell " << i;
    }

    // The handlers run() installed are gone: the dispositions saved
    // before run() are back.
    EXPECT_EQ(handlerOf(SIGINT), &testSignalHandler);
    EXPECT_EQ(handlerOf(SIGTERM), &testSignalHandler);

    // The failed batch is dropped: a fresh batch runs only its own cell.
    std::vector<int> before(kCells);
    for (int i = 0; i < kCells; ++i)
        before[static_cast<size_t>(i)] = runs[static_cast<size_t>(i)].load();
    bool fresh_ran = false;
    runner.submit("fresh", [&fresh_ran]() { fresh_ran = true; });
    runner.run();
    EXPECT_TRUE(fresh_ran);
    ASSERT_EQ(runner.timings().size(), 1u);
    EXPECT_EQ(runner.timings()[0].label, "fresh");
    EXPECT_EQ(runner.executedCells(), 1u);
    for (int i = 0; i < kCells; ++i)
        EXPECT_EQ(runs[static_cast<size_t>(i)].load(),
                  before[static_cast<size_t>(i)]) << "cell " << i << " re-ran";
    EXPECT_EQ(handlerOf(SIGINT), &testSignalHandler);
    EXPECT_EQ(handlerOf(SIGTERM), &testSignalHandler);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThrowingCellTest, testing::Values(1, 4),
                         [](const testing::TestParamInfo<int> &info) {
                             return std::to_string(info.param) + "threads";
                         });

TEST(ParallelRunner, EnvOverridesDefaultThreadCount)
{
    ASSERT_EQ(setenv("REACT_THREADS", "3", 1), 0);
    EXPECT_EQ(ParallelRunner::defaultThreadCount(), 3);
    ASSERT_EQ(setenv("REACT_THREADS", "garbage", 1), 0);
    EXPECT_GE(ParallelRunner::defaultThreadCount(), 1);
    ASSERT_EQ(unsetenv("REACT_THREADS"), 0);
    EXPECT_GE(ParallelRunner::defaultThreadCount(), 1);
    ParallelRunner defaulted(0);
    EXPECT_GE(defaulted.threadCount(), 1);
}

/** Constant-power trace for fast deterministic cells. */
trace::PowerTrace
constantTrace(double watts, double duration)
{
    const double dt = 0.1;
    std::vector<double> samples(
        static_cast<size_t>(duration / dt), watts);
    return trace::PowerTrace(dt, std::move(samples), "const");
}

/** Run a small buffer x benchmark grid at the given thread count. */
std::vector<ExperimentResult>
runDeterminismGrid(int threads)
{
    const BufferKind buffers[3] = {BufferKind::Static770uF,
                                   BufferKind::Morphy, BufferKind::React};
    const BenchmarkKind benchmarks[2] = {BenchmarkKind::DataEncryption,
                                         BenchmarkKind::PacketForward};
    constexpr double kTraceSeconds = 40.0;

    ParallelRunner runner(threads);
    std::vector<ExperimentResult> results(6);
    for (int b = 0; b < 2; ++b) {
        for (int u = 0; u < 3; ++u) {
            ExperimentResult *slot = &results[b * 3 + u];
            const auto bench_kind = benchmarks[b];
            const auto buffer_kind = buffers[u];
            const std::string key = benchmarkKindName(bench_kind) + ":" +
                                    bufferKindName(buffer_kind);
            runner.submit(key, [=]() {
                auto buffer = makeBuffer(buffer_kind);
                auto bench = makeBenchmark(bench_kind, kTraceSeconds,
                                           cellSeed(42, key));
                harvest::HarvesterFrontend frontend(
                    constantTrace(2e-3, kTraceSeconds));
                ExperimentConfig cfg;
                cfg.strictConservation = true;
                *slot = runExperiment(*buffer, bench.get(), frontend, cfg);
            });
        }
    }
    runner.run();
    return results;
}

/** Bitwise equality of every number a result reports, ledger included. */
void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b,
                const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.workUnits, b.workUnits);
    EXPECT_EQ(a.packetsRx, b.packetsRx);
    EXPECT_EQ(a.packetsTx, b.packetsTx);
    EXPECT_EQ(a.missedEvents, b.missedEvents);
    EXPECT_EQ(a.failedOps, b.failedOps);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.powerCycles, b.powerCycles);
    // Doubles compared with == on purpose: the contract is bit-identity,
    // not approximation.
    EXPECT_TRUE(a.latency == b.latency);
    EXPECT_TRUE(a.onTime == b.onTime);
    EXPECT_TRUE(a.totalTime == b.totalTime);
    EXPECT_TRUE(a.residualEnergy == b.residualEnergy);
    // Energy-ledger audit totals.
    EXPECT_TRUE(a.ledger.harvested.raw() == b.ledger.harvested.raw());
    EXPECT_TRUE(a.ledger.delivered.raw() == b.ledger.delivered.raw());
    EXPECT_TRUE(a.ledger.clipped.raw() == b.ledger.clipped.raw());
    EXPECT_TRUE(a.ledger.leaked.raw() == b.ledger.leaked.raw());
    EXPECT_TRUE(a.ledger.switchLoss.raw() == b.ledger.switchLoss.raw());
    EXPECT_TRUE(a.conservationError == b.conservationError);
}

TEST(ParallelRunner, BitIdenticalAcrossOneTwoEightThreads)
{
    const auto serial = runDeterminismGrid(1);
    const auto two = runDeterminismGrid(2);
    const auto eight = runDeterminismGrid(8);
    ASSERT_EQ(serial.size(), two.size());
    ASSERT_EQ(serial.size(), eight.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        expectIdentical(serial[i], two[i], "1 vs 2 threads");
        expectIdentical(serial[i], eight[i], "1 vs 8 threads");
    }
    // The grid did real work (the comparison is not vacuous).
    uint64_t total_work = 0;
    for (const auto &r : serial)
        total_work += r.workUnits + r.packetsRx + r.packetsTx;
    EXPECT_GT(total_work, 0u);
}

TEST(ParallelRunner, ExternalPolicyDrainsAndReportsInterruption)
{
    ParallelRunner::clearStopRequest();
    ParallelRunner runner(1);
    runner.setSignalPolicy(SignalPolicy::External);
    int executed = 0;
    for (int i = 0; i < 6; ++i) {
        runner.submit("cell", [&executed, i]() {
            ++executed;
            if (i == 1)
                ParallelRunner::requestStop();
        });
    }
    // run() returns instead of exiting the process; the batch stopped
    // after the cell that raised the flag.
    runner.run();
    EXPECT_TRUE(runner.interrupted());
    EXPECT_EQ(executed, 2);
    EXPECT_EQ(runner.executedCells(), 2u);

    // An External host lowers the flag between drain cycles and the
    // runner is reusable for the remaining work.
    ParallelRunner::clearStopRequest();
    runner.submit("rest", [&executed]() { ++executed; });
    runner.run();
    EXPECT_FALSE(runner.interrupted());
    EXPECT_EQ(executed, 3);
}

/**
 * Child half of the signal-drain test below.  Skipped in normal runs;
 * the parent re-execs this binary with REACT_SIGNAL_AFTER_CELLS set (a
 * fresh process, so the hook's cached env lookup is actually read) and
 * expects the sweep to drain and exit kInterruptedExitStatus.
 */
TEST(SignalDrainChild, SweepUnderSignalHook)
{
    const char *dir = std::getenv("REACT_DRAIN_TEST_DIR");
    if (dir == nullptr || std::getenv("REACT_SIGNAL_AFTER_CELLS") == nullptr)
        GTEST_SKIP() << "driven by ParallelRunner.SigtermDrainsAndExits75";
    ParallelRunner runner(2);  // default ExitAfterDrain policy
    for (int i = 0; i < 8; ++i) {
        const std::string marker =
            std::string(dir) + "/cell" + std::to_string(i);
        runner.submit("cell", [marker]() {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            std::FILE *f = std::fopen(marker.c_str(), "w");
            if (f != nullptr)
                std::fclose(f);
        });
    }
    runner.run();  // must _Exit(75) after the drain; returning is failure
    std::_Exit(97);
}

TEST(ParallelRunner, SigtermDrainsAndExits75)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("react_drain_test." + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setenv("REACT_SIGNAL_AFTER_CELLS", "2", 1);
        ::setenv("REACT_DRAIN_TEST_DIR", dir.c_str(), 1);
        ::execl("/proc/self/exe", "test_parallel_runner",
                "--gtest_filter=SignalDrainChild.*",
                static_cast<char *>(nullptr));
        std::_Exit(98);  // exec failed
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
    EXPECT_EQ(WEXITSTATUS(status),
              ParallelRunner::kInterruptedExitStatus);

    // The drain contract: the two cells that completed before the
    // signal -- plus any already in flight -- finished (their marker
    // files exist), and the batch stopped early (not all eight ran).
    size_t markers = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        (void)entry;
        ++markers;
    }
    EXPECT_GE(markers, 2u);
    EXPECT_LT(markers, 8u);
    fs::remove_all(dir);
}

} // namespace
} // namespace harness
} // namespace react
