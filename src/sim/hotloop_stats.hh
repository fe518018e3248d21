/**
 * @file
 * Hot-loop telemetry counters for the memoized transcendental caches.
 *
 * The fixed-timestep engine's dominant cost used to be `std::exp`
 * evaluations recomputed every step even though their inputs (dt, RC
 * constants) change only on rare reconfiguration or fault events.  The
 * caches that removed them (Capacitor leak decay, charge-transfer decay)
 * report hit/miss counts here so `bench/hot_loop` can emit cache hit
 * rates into BENCH_hotloop.json and a silent cache regression (a key
 * that never matches) shows up as a collapsed hit rate, not just as
 * slower numbers.
 *
 * Counters are thread-local plain integers: the per-step increment is a
 * register bump (no atomics on the hot path), and the single-threaded
 * bench / test readers observe their own thread's counts exactly.  The
 * parallel runner's worker threads each accumulate privately; aggregate
 * telemetry across workers is out of scope by design.
 */

#ifndef REACT_SIM_HOTLOOP_STATS_HH
#define REACT_SIM_HOTLOOP_STATS_HH

#include <cstdint>

namespace react {
namespace sim {
namespace hotloop {

/** Per-thread cache telemetry for one slice of engine execution. */
struct Counters
{
    /** Leak-decay factor served from the owning capacitor's cache. */
    uint64_t leakCacheHits = 0;
    /** Leak-decay factor recomputed (dt or RC constant changed). */
    uint64_t leakCacheMisses = 0;
    /** Charge-transfer decay served from the owner's TransferCache. */
    uint64_t transferCacheHits = 0;
    /** Charge-transfer decay recomputed (capacitance/resistance/dt
     *  key changed). */
    uint64_t transferCacheMisses = 0;

    uint64_t leakTotal() const { return leakCacheHits + leakCacheMisses; }
    uint64_t transferTotal() const
    {
        return transferCacheHits + transferCacheMisses;
    }
};

inline thread_local Counters tlCounters;

/** This thread's counters (mutable; the caches bump them in place). */
inline Counters &
counters()
{
    return tlCounters;
}

/** Zero this thread's counters (bench/test measurement windows). */
inline void
resetCounters()
{
    tlCounters = Counters();
}

/** Hit fraction helper tolerating an empty window. */
inline double
hitRate(uint64_t hits, uint64_t misses)
{
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
            static_cast<double>(total);
}

} // namespace hotloop
} // namespace sim
} // namespace react

#endif // REACT_SIM_HOTLOOP_STATS_HH
