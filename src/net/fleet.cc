#include "fleet.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "harness/shard.hh"
#include "util/determinism.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace react {
namespace net {

uint64_t
LeaseTable::grant(size_t shard, size_t worker, int64_t now_ms)
{
    Lease lease;
    lease.worker = worker;
    lease.generation = nextGeneration++;
    lease.expiresAtMs = now_ms + duration;
    leases[shard] = lease;
    return lease.generation;
}

bool
LeaseTable::renew(size_t shard, uint64_t generation, int64_t now_ms)
{
    auto it = leases.find(shard);
    if (it == leases.end() || it->second.generation != generation)
        return false;
    it->second.expiresAtMs = now_ms + duration;
    return true;
}

bool
LeaseTable::release(size_t shard, uint64_t generation)
{
    auto it = leases.find(shard);
    if (it == leases.end() || it->second.generation != generation)
        return false;
    leases.erase(it);
    return true;
}

std::vector<size_t>
LeaseTable::expire(int64_t now_ms)
{
    std::vector<size_t> expired;
    for (auto it = leases.begin(); it != leases.end();) {
        if (it->second.expiresAtMs <= now_ms) {
            expired.push_back(it->first);
            it = leases.erase(it);
        } else {
            ++it;
        }
    }
    return expired;
}

void
FleetConfig::applyEnv()
{
    if (const auto v = env::intVar("REACT_FLEET_LEASE_MS", 10, 1 << 30))
        leaseMs = static_cast<int>(*v);
    if (const auto v =
            env::intVar("REACT_FLEET_HEARTBEAT_MS", 1, 1 << 30))
        heartbeatMs = static_cast<int>(*v);
    if (const auto v = env::u64Var("REACT_FLEET_SHARDS", 1, 1 << 20))
        shardCount = static_cast<size_t>(*v);
}

namespace {

/** The coordinator's only clock read: lease grant/renew/expiry times.
 *  Leases decide *where* a cell runs and how often, never what it
 *  computes -- results are idempotent worker-produced bytes. */
int64_t
wallNowMs()
{
    REACT_NONDET_OK("wall clock feeds lease expiry/renewal only, never result bytes");
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               now.time_since_epoch())
        .count();
}

/**
 * Thrown from the heartbeat callback through Client::runJob when the
 * shard's lease was fenced off.  Deliberately NOT a std::exception:
 * runJob's retry spine catches std::exception as "transport fault,
 * retry", and a fenced lease must abandon the job instead.
 */
struct ShardFenced
{
};

/** Shared coordinator state; every mutable field is guarded by m. */
struct Coordinator
{
    const std::vector<JobSpec> &jobs;
    const FleetConfig &config;
    harness::ShardPlan plan;

    std::mutex m;
    std::condition_variable cv;
    std::deque<size_t> ready;
    LeaseTable leases;
    std::vector<uint8_t> filled;
    size_t completed = 0;
    size_t activeWorkers = 0;
    bool done = false;
    FleetResult result;

    Coordinator(const std::vector<JobSpec> &jobs_in,
                const FleetConfig &config_in)
        : jobs(jobs_in), config(config_in), leases(config_in.leaseMs)
    {
        const size_t shard_count = config.shardCount != 0
            ? config.shardCount
            : harness::recommendedShardCount(jobs.size(),
                                             config.workers.size());
        plan = harness::planShards(jobs.size(), shard_count);
        filled.assign(jobs.size(), 0);
        result.jobs.resize(jobs.size());
        for (size_t j = 0; j < jobs.size(); ++j)
            result.jobs[j].jobId = jobs[j].jobId();
        result.stats.jobsTotal = jobs.size();
        for (size_t shard = 0; shard < plan.shards.size(); ++shard)
            ready.push_back(shard);
        activeWorkers = config.workers.size();
    }

    /** Under m. */
    bool shardCompleteLocked(size_t shard) const
    {
        for (const size_t j : plan.shards[shard])
            if (filled[j] == 0)
                return false;
        return true;
    }

    /** Under m. */
    void finishJobLocked()
    {
        ++completed;
        if (completed == jobs.size()) {
            done = true;
            cv.notify_all();
        }
    }

    /** Under m.  Exactly-once observable results: a slot fills once;
     *  later arrivals are byte-compared and counted, never appended. */
    void recordOutcomeLocked(size_t j, const JobOutcome &outcome)
    {
        if (filled[j] != 0) {
            ++result.stats.duplicateResults;
            if (result.jobs[j].ok &&
                result.jobs[j].resultBytes != outcome.resultBytes)
                ++result.stats.byteMismatches;
            return;
        }
        filled[j] = 1;
        result.jobs[j].ok = true;
        result.jobs[j].resultBytes = outcome.resultBytes;
        ++result.stats.jobsCompleted;
        finishJobLocked();
    }

    /** Under m. */
    void recordFailureLocked(size_t j, const std::string &error)
    {
        if (filled[j] != 0) {
            ++result.stats.duplicateResults;
            return;
        }
        filled[j] = 1;
        result.jobs[j].ok = false;
        result.jobs[j].error = error;
        ++result.stats.jobsFailed;
        finishJobLocked();
    }

    void workerLoop(size_t widx);
    void superviseLeases();
};

void
Coordinator::workerLoop(size_t widx)
{
    ClientConfig cc;
    cc.endpoint = config.workers[widx];
    cc.fleetKey = config.fleetKey;
    cc.requestTimeoutMs = config.requestTimeoutMs;
    cc.connectTimeoutMs = config.connectTimeoutMs;
    // Each poll is held at most heartbeatMs on the worker, so a running
    // job still reports (and renews its lease) at least once per
    // heartbeat; a state change answers sooner.
    cc.pollIntervalMs = config.heartbeatMs;
    cc.retry = config.retry;
    cc.jitterSeed = 0x1eafull + widx;
    cc.faults = config.faults;
    // Distinct fault stream per worker client, derived from the base
    // seed; a one-worker fleet with index 0 keeps the base stream.
    cc.faults.seed =
        config.faults.seed + 0x9e3779b97f4a7c15ull * widx;
    Client client(cc);

    int consecutive_failures = 0;
    for (;;) {
        size_t shard = 0;
        uint64_t gen = 0;
        {
            std::unique_lock<std::mutex> lk(m);
            cv.wait(lk, [this] { return done || !ready.empty(); });
            if (done)
                return;
            shard = ready.front();
            ready.pop_front();
            gen = leases.grant(shard, widx, wallNowMs());
            ++result.stats.leasesGranted;
        }

        bool fenced = false;
        bool transport_failed = false;
        std::string transport_error;
        for (const size_t j : plan.shards[shard]) {
            {
                std::lock_guard<std::mutex> g(m);
                if (!leases.renew(shard, gen, wallNowMs())) {
                    fenced = true;
                    break;
                }
                if (filled[j] != 0)
                    continue; // re-dispatched shard, job already done
            }
            try {
                const JobOutcome outcome =
                    client.runJob(jobs[j], [this, shard, gen](JobState) {
                        // Heartbeat: every successful poll exchange
                        // (held at most heartbeatMs) renews the lease;
                        // a fenced lease aborts the job mid-poll
                        // (ShardFenced flies through the retry spine,
                        // see above).
                        std::lock_guard<std::mutex> g(m);
                        if (!leases.renew(shard, gen, wallNowMs()))
                            throw ShardFenced{};
                    });
                std::lock_guard<std::mutex> g(m);
                leases.renew(shard, gen, wallNowMs());
                recordOutcomeLocked(j, outcome);
            } catch (const ShardFenced &) {
                // Whoever fenced us owns the shard now; drop the
                // connection (a poll reply may still be in flight) and
                // walk away without requeueing.
                client.disconnect();
                fenced = true;
                break;
            } catch (const ClientError &e) {
                if (e.kind == ClientError::Kind::JobFailed ||
                    e.kind == ClientError::Kind::DeadlineExpired) {
                    // The *job* is terminal, the worker is fine.
                    std::lock_guard<std::mutex> g(m);
                    recordFailureLocked(j, e.what());
                    continue;
                }
                transport_failed = true;
                transport_error = e.what();
                break;
            }
        }

        bool declared_dead = false;
        {
            std::lock_guard<std::mutex> g(m);
            if (fenced) {
                // Nothing: the new holder carries the shard.
            } else if (transport_failed) {
                leases.release(shard, gen);
                ++result.stats.workerFailures;
                ++consecutive_failures;
                if (!shardCompleteLocked(shard)) {
                    ready.push_back(shard);
                    ++result.stats.redispatches;
                    cv.notify_all();
                }
                react_warn("fleet: worker %llu lost shard %llu: %s",
                           static_cast<unsigned long long>(widx),
                           static_cast<unsigned long long>(shard),
                           transport_error.c_str());
                if (consecutive_failures >=
                    config.maxConsecutiveFailures) {
                    ++result.stats.workersDeclaredDead;
                    --activeWorkers;
                    cv.notify_all();
                    declared_dead = true;
                }
            } else {
                leases.release(shard, gen);
                consecutive_failures = 0;
            }
        }
        if (declared_dead) {
            react_warn("fleet: worker %llu (%s) declared dead after %d "
                       "consecutive failures",
                       static_cast<unsigned long long>(widx),
                       config.workers[widx].c_str(),
                       consecutive_failures);
            return;
        }
        if (transport_failed)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(config.failurePauseMs));
    }
}

void
Coordinator::superviseLeases()
{
    const int check_ms = config.leaseCheckMs > 0
        ? config.leaseCheckMs
        : std::max(1, config.leaseMs / 4);
    for (;;) {
        std::unique_lock<std::mutex> lk(m);
        cv.wait_for(lk, std::chrono::milliseconds(check_ms),
                    [this] { return done || activeWorkers == 0; });
        if (done)
            return;
        const std::vector<size_t> expired = leases.expire(wallNowMs());
        for (const size_t shard : expired) {
            ++result.stats.leasesExpired;
            if (!shardCompleteLocked(shard)) {
                ready.push_back(shard);
                ++result.stats.redispatches;
            }
        }
        if (!expired.empty()) {
            react_warn("fleet: %llu lease(s) expired; re-dispatching",
                       static_cast<unsigned long long>(expired.size()));
            cv.notify_all();
        }
        if (activeWorkers == 0) {
            // Every worker thread exited with work remaining: give up
            // rather than wait for heat death.
            done = true;
            cv.notify_all();
            return;
        }
    }
}

} // namespace

FleetResult
runFleetSweep(const std::vector<JobSpec> &jobs, const FleetConfig &config)
{
    Coordinator coord(jobs, config);
    if (jobs.empty()) {
        coord.result.complete = true;
        return std::move(coord.result);
    }
    if (config.workers.empty()) {
        react_warn("fleet: no workers configured");
        return std::move(coord.result);
    }

    react_inform("fleet: %llu jobs in %llu shards across %llu workers "
                 "(lease %d ms, heartbeat %d ms)",
                 static_cast<unsigned long long>(jobs.size()),
                 static_cast<unsigned long long>(coord.plan.shards.size()),
                 static_cast<unsigned long long>(config.workers.size()),
                 config.leaseMs, config.heartbeatMs);

    std::vector<std::thread> workers;
    workers.reserve(config.workers.size());
    for (size_t w = 0; w < config.workers.size(); ++w)
        workers.emplace_back([&coord, w] { coord.workerLoop(w); });
    coord.superviseLeases();
    for (auto &t : workers)
        t.join();

    coord.result.complete =
        coord.result.stats.jobsCompleted == jobs.size();
    react_inform("fleet: %llu/%llu jobs complete (%llu re-dispatches, "
                 "%llu lease expiries, %llu duplicate results, %llu "
                 "byte mismatches)",
                 static_cast<unsigned long long>(
                     coord.result.stats.jobsCompleted),
                 static_cast<unsigned long long>(jobs.size()),
                 static_cast<unsigned long long>(
                     coord.result.stats.redispatches),
                 static_cast<unsigned long long>(
                     coord.result.stats.leasesExpired),
                 static_cast<unsigned long long>(
                     coord.result.stats.duplicateResults),
                 static_cast<unsigned long long>(
                     coord.result.stats.byteMismatches));
    return std::move(coord.result);
}

std::vector<uint8_t>
encodeFleetOutput(const FleetResult &result)
{
    WireWriter w;
    w.u32(static_cast<uint32_t>(result.jobs.size()));
    for (const auto &job : result.jobs) {
        w.u64(job.jobId);
        w.b(job.ok);
        w.bytes(job.resultBytes);
    }
    return w.take();
}

} // namespace net
} // namespace react
