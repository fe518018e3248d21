/**
 * @file
 * Fleet coordinator: lease-based sharding of a sweep across worker
 * daemons, with heartbeat renewal and re-dispatch on loss.
 *
 * ## Model
 *
 * The coordinator is a *client of each worker*: one thread per worker
 * daemon drives the full PR-6 protocol (idempotent Submit/Poll, retry
 * spine, fault injection, auth handshake) against its endpoint.  Work
 * is split into shards by the deterministic planner (harness/shard.hh);
 * shards live in a ready queue, and a worker thread that pops one is
 * granted a *lease* on it.
 *
 * ## Lease state machine
 *
 *     READY --grant(worker w, gen g)--> HELD(w, g)
 *     HELD  --renew(g) within leaseMs-> HELD      (heartbeat: every
 *                                                  successful poll
 *                                                  exchange -- held at
 *                                                  most heartbeatMs --
 *                                                  and each job
 *                                                  completion)
 *     HELD  --release(g)-------------> READY-or-DONE (shard finished,
 *                                                  or holder failed and
 *                                                  requeued it)
 *     HELD  --leaseMs w/o renew------> EXPIRED -> requeued: re-dispatch
 *                                      to the next free worker
 *
 * Generations are fencing tokens: once a lease expires and the shard is
 * re-granted, the old holder's renew(g) fails and it abandons the shard
 * mid-job.  Abandonment is safe because execution is idempotent -- job
 * ids derive from spec identity, workers cache results, and a re-run
 * produces byte-identical bytes -- so at-least-once dispatch still
 * yields exactly-once *observable* results.  A duplicate result is
 * byte-compared and counted, never appended: the merged output has
 * exactly one entry per job, in input order, regardless of how many
 * workers (or attempts) touched it.
 *
 * A coordinator restart re-derives the same plan, resubmits everything,
 * and is served from worker result caches (plus checkpoint resume for
 * cells that were mid-run), which is what the fleet soak harness
 * proves byte-for-byte against a serial golden.
 */

#ifndef REACT_NET_FLEET_HH
#define REACT_NET_FLEET_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/client.hh"
#include "net/protocol.hh"

namespace react {
namespace net {

/**
 * Lease bookkeeping with injected time (milliseconds on any monotonic
 * scale) so expiry logic is unit-testable and deterministic.  Not
 * thread-safe; the coordinator guards it with its own mutex.
 */
class LeaseTable
{
  public:
    explicit LeaseTable(int64_t lease_duration_ms)
        : duration(lease_duration_ms)
    {
    }

    /** Grant @p shard to @p worker; returns the fencing generation. */
    uint64_t grant(size_t shard, size_t worker, int64_t now_ms);

    /** Heartbeat: extend the lease iff @p generation still holds it. */
    bool renew(size_t shard, uint64_t generation, int64_t now_ms);

    /** Drop the lease iff @p generation still holds it. */
    bool release(size_t shard, uint64_t generation);

    /** Remove and return all shards whose lease lapsed by @p now_ms
     *  (ascending shard order: deterministic re-dispatch order). */
    std::vector<size_t> expire(int64_t now_ms);

    bool held(size_t shard) const { return leases.count(shard) != 0; }
    size_t heldCount() const { return leases.size(); }

  private:
    struct Lease
    {
        size_t worker = 0;
        uint64_t generation = 0;
        int64_t expiresAtMs = 0;
    };

    int64_t duration;
    uint64_t nextGeneration = 1;
    /** Ordered map: expire() iterates it, and iteration order feeds the
     *  re-dispatch queue (determinism contract). */
    std::map<size_t, Lease> leases;
};

/** Coordinator options. */
struct FleetConfig
{
    /** Worker endpoints ("unix:/path" / "tcp:host:port"). */
    std::vector<std::string> workers;
    /** Pre-shared key for worker auth handshakes; empty = none. */
    std::vector<uint8_t> fleetKey;
    /** Shard count; 0 = harness::recommendedShardCount. */
    size_t shardCount = 0;
    /** Lease duration: a shard unrenewed this long is re-dispatched. */
    int leaseMs = 3000;
    /** Longest hold of each poll toward a worker == longest gap
     *  between lease renewals while a job runs.  Must be well under
     *  leaseMs or healthy workers get fenced off. */
    int heartbeatMs = 100;
    /** Expiry sweep cadence; 0 = leaseMs / 4. */
    int leaseCheckMs = 0;
    /** Per-exchange budget toward a worker, milliseconds. */
    int requestTimeoutMs = 5000;
    int connectTimeoutMs = 2000;
    /** Per-exchange retry spine of each worker client. */
    RetryPolicy retry;
    /** Transport fault injection toward workers; each worker client
     *  derives its own stream from faults.seed and its index. */
    FaultPlan faults;
    /** Consecutive shard-level transport failures before a worker
     *  thread declares its daemon dead and exits. */
    int maxConsecutiveFailures = 5;
    /** Pause between failed shard attempts on one worker, ms. */
    int failurePauseMs = 100;

    /**
     * Overlay REACT_FLEET_LEASE_MS / REACT_FLEET_HEARTBEAT_MS /
     * REACT_FLEET_SHARDS from the environment (util/env.hh rules:
     * malformed warns and keeps the field).
     */
    void applyEnv();
};

/** Monotonic coordinator counters. */
struct FleetStats
{
    uint64_t jobsTotal = 0;
    uint64_t jobsCompleted = 0;
    uint64_t jobsFailed = 0;
    uint64_t leasesGranted = 0;
    uint64_t leasesExpired = 0;
    /** Shards requeued after expiry or holder failure. */
    uint64_t redispatches = 0;
    /** Results recorded for an already-filled slot (byte-compared). */
    uint64_t duplicateResults = 0;
    /** Duplicate results whose bytes differed -- must stay zero. */
    uint64_t byteMismatches = 0;
    /** Shard-level transport failures across all workers. */
    uint64_t workerFailures = 0;
    uint64_t workersDeclaredDead = 0;
};

/** One job's fate; bytes are the exact wire bytes a worker served. */
struct FleetJobOutcome
{
    uint64_t jobId = 0;
    bool ok = false;
    std::vector<uint8_t> resultBytes;
    std::string error;
};

/** Sweep outcome: jobs[i] corresponds to the input jobs[i]. */
struct FleetResult
{
    /** Every job completed successfully. */
    bool complete = false;
    std::vector<FleetJobOutcome> jobs;
    FleetStats stats;
};

/**
 * Drive @p jobs across config.workers to completion (or until every
 * worker is dead).  Blocking; spawns one client thread per worker.
 */
FleetResult runFleetSweep(const std::vector<JobSpec> &jobs,
                          const FleetConfig &config);

/**
 * Canonical merged-output encoding: u32 job count, then per job (in
 * input order) u64 jobId, u8 ok, u32-length-prefixed result bytes.
 * Byte-identical across coordinator incarnations iff every job's
 * result bytes are -- the fleet soak's acceptance check.
 */
std::vector<uint8_t> encodeFleetOutput(const FleetResult &result);

} // namespace net
} // namespace react

#endif // REACT_NET_FLEET_HH
