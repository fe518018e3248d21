#include "parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "util/determinism.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace react {
namespace harness {

namespace {

/**
 * Monotonic timestamp for the runner's wall-time telemetry: per-cell
 * timings, lastWallSeconds, and the BENCH_parallel speedup numbers.
 * Cell *results* are a pure function of (spec, identity-derived seed);
 * wall time never reaches them, which is why this is the runner's only
 * sanctioned clock read.
 */
std::chrono::steady_clock::time_point
telemetryNow()
{
    REACT_NONDET_OK("steady_clock feeds timing telemetry only, never cell results");
    return std::chrono::steady_clock::now();
}

/** splitmix64 finalizer: full-avalanche 64-bit mix. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Crash-recovery test hook: REACT_CRASH_AFTER_CELLS=N hard-kills the
 * process (std::_Exit(3), no destructors, no flushing -- as close to a
 * power failure as a simulation gets) once N cells have completed.  The
 * golden-resume suite uses this to interrupt a checkpointed sweep and
 * prove the rerun reproduces the uninterrupted artifact byte-exactly.
 */
long
crashAfterCells()
{
    static const long n = static_cast<long>(
        env::intVar("REACT_CRASH_AFTER_CELLS", 0, LONG_MAX).value_or(-1));
    return n;
}

/**
 * Graceful-drain test hook: REACT_SIGNAL_AFTER_CELLS=N raises SIGTERM
 * in-process once N cells have completed -- the deliverable sibling of
 * the crash hook above.  Under the default SignalPolicy the sweep must
 * stop dispatching, finish its in-flight cells, and exit with
 * kInterruptedExitStatus, which the signal-drain test asserts.
 */
long
signalAfterCells()
{
    static const long n = static_cast<long>(
        env::intVar("REACT_SIGNAL_AFTER_CELLS", 0, LONG_MAX).value_or(-1));
    return n;
}

REACT_NONDET_OK("crash/signal test-hook progress count; never read into results");
std::atomic<long> completedCells{0};

void
noteCellCompleted()
{
    const long crash_limit = crashAfterCells();
    const long signal_limit = signalAfterCells();
    if (crash_limit < 0 && signal_limit < 0)
        return;
    const long done =
        completedCells.fetch_add(1, std::memory_order_relaxed) + 1;
    if (crash_limit >= 0 && done >= crash_limit)
        std::_Exit(3);
    if (signal_limit >= 0 && done == signal_limit)
        std::raise(SIGTERM);
}

/** Process-wide stop flag; shared so one Ctrl-C stops every batch.
 *  Dispatched cells always run to completion, so the flag decides only
 *  *how many* cells a drained run finishes, never what any cell
 *  computes. */
REACT_NONDET_OK("signal-drain stop flag gates dispatch only; cell results unaffected");
std::atomic<bool> stopFlag{false};

/** Signal handler installed by run() under SignalPolicy::ExitAfterDrain:
 *  just raise the flag (an atomic store is async-signal-safe); the
 *  claim loop notices it between cells. */
void
onStopSignal(int)
{
    stopFlag.store(true, std::memory_order_relaxed);
}

} // namespace

uint64_t
cellSeed(uint64_t base_seed, std::string_view cell_key)
{
    // FNV-1a over the key bytes...
    uint64_t h = 1469598103934665603ull;
    for (const char c : cell_key) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    // ...then avalanche the base seed in.  Two mix rounds so that keys
    // differing in one late byte and bases differing in one bit both
    // flip about half the output.
    return mix64(h + mix64(base_seed + 0x9e3779b97f4a7c15ull));
}

ParallelRunner::ParallelRunner(int threads)
    : nThreads(threads > 0 ? threads : defaultThreadCount())
{
}

int
ParallelRunner::defaultThreadCount()
{
    if (const auto n = env::intVar("REACT_THREADS", 1, 1 << 16))
        return static_cast<int>(*n);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
ParallelRunner::requestStop()
{
    stopFlag.store(true, std::memory_order_relaxed);
}

bool
ParallelRunner::stopRequested()
{
    return stopFlag.load(std::memory_order_relaxed);
}

void
ParallelRunner::clearStopRequest()
{
    stopFlag.store(false, std::memory_order_relaxed);
}

size_t
ParallelRunner::submit(std::string label, std::function<void()> fn)
{
    tasks.push_back(Task{std::move(label), std::move(fn)});
    return tasks.size() - 1;
}

void
ParallelRunner::run()
{
    cellTimings.clear();
    cellTimings.reserve(tasks.size());
    for (const auto &task : tasks)
        cellTimings.push_back(CellTiming{task.label, 0.0});

    // Under the default policy this run owns SIGINT/SIGTERM: the
    // handler raises the stop flag, the batch drains, and run() exits
    // the process below.  Previous dispositions are restored on every
    // path out so embedding code (tests) is unaffected.
    struct sigaction old_int = {}, old_term = {};
    const bool own_signals = signalPolicy == SignalPolicy::ExitAfterDrain;
    if (own_signals) {
        struct sigaction sa = {};
        sa.sa_handler = onStopSignal;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGINT, &sa, &old_int);
        sigaction(SIGTERM, &sa, &old_term);
    }

    executedCount.store(0);
    lastInterrupted = false;
    const size_t batch_size = tasks.size();

    // The claim loop every worker runs, the caller included: take the
    // next cell in submission order until the batch is exhausted, the
    // stop flag is up, or some cell has thrown.  Which worker runs a
    // cell is an execution accident; cell results depend on neither
    // that nor the order, which the determinism suite enforces.
    std::atomic<size_t> cursor{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_lock;
    const auto note_error = [&] {
        std::lock_guard<std::mutex> g(error_lock);
        if (!first_error)
            first_error = std::current_exception();
        failed = true;
    };
    const auto claim_loop = [&] {
        while (!stopRequested() && !failed) {
            const size_t idx = cursor++;
            if (idx >= batch_size)
                return;
            try {
                const auto c0 = telemetryNow();
                tasks[idx].fn();
                const auto c1 = telemetryNow();
                cellTimings[idx].seconds =
                    std::chrono::duration<double>(c1 - c0).count();
            } catch (...) {
                note_error();
                return;
            }
            executedCount.fetch_add(1, std::memory_order_relaxed);
            noteCellCompleted();
        }
    };

    const auto t0 = telemetryNow();
    const size_t workers =
        std::min(static_cast<size_t>(nThreads), batch_size);
    std::vector<std::thread> helpers;
    for (size_t w = 1; w < workers; ++w) {
        try {
            helpers.emplace_back(claim_loop);
        } catch (...) {
            note_error();  // a failed spawn abandons the batch like a cell
            break;
        }
    }
    claim_loop();
    for (auto &helper : helpers)
        helper.join();
    const auto t1 = telemetryNow();

    lastWallSeconds = std::chrono::duration<double>(t1 - t0).count();
    tasks.clear();
    lastInterrupted = stopRequested();
    if (own_signals) {
        sigaction(SIGINT, &old_int, nullptr);
        sigaction(SIGTERM, &old_term, nullptr);
    }
    // A cell's exception outranks the drain exit: the caller learns
    // what failed rather than that a signal arrived.
    if (first_error)
        std::rethrow_exception(first_error);

    if (own_signals && lastInterrupted) {
        // The drain is complete: every dispatched cell finished (and
        // wrote its checkpoint when REACT_CHECKPOINT_DIR is set).  Exit
        // with a status distinct from success and from the crash hook
        // so a calling script can tell "interrupted cleanly" from
        // "died"; a rerun resumes the finished cells from their
        // snapshots.
        react_warn("sweep interrupted by signal: completed %zu of "
                   "%zu cells, exiting with status %d",
                   executedCount.load(), batch_size,
                   kInterruptedExitStatus);
        std::fflush(nullptr);
        std::_Exit(kInterruptedExitStatus);
    }
}

double
ParallelRunner::busySeconds() const
{
    double total = 0.0;
    for (const auto &timing : cellTimings)
        total += timing.seconds;
    return total;
}

} // namespace harness
} // namespace react
