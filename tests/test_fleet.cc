/**
 * @file
 * Fleet-layer tests: the lease state machine (grant/renew/release/
 * expiry, generation fencing), the deterministic shard planner, the
 * fleet env knobs (positive and negative paths), and an in-process
 * multi-worker sweep proving re-dispatch after a worker loss still
 * merges to exactly-once, byte-identical results.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/grid.hh"
#include "harness/parallel_runner.hh"
#include "harness/shard.hh"
#include "net/auth.hh"
#include "net/fleet.hh"
#include "net/server.hh"
#include "net/wire.hh"

namespace react {
namespace net {
namespace {

// ---------------------------------------------------------------------
// LeaseTable: pure state machine with injected time

TEST(LeaseTable, GrantRenewReleaseLifecycle)
{
    LeaseTable table(100);
    EXPECT_FALSE(table.held(0));

    const uint64_t gen = table.grant(0, /*worker=*/3, /*now=*/1000);
    EXPECT_TRUE(table.held(0));
    EXPECT_EQ(table.heldCount(), 1u);

    EXPECT_TRUE(table.renew(0, gen, 1050));
    EXPECT_TRUE(table.release(0, gen));
    EXPECT_FALSE(table.held(0));

    // Releasing twice, or renewing a released lease, is a no-op refusal.
    EXPECT_FALSE(table.release(0, gen));
    EXPECT_FALSE(table.renew(0, gen, 1060));
}

TEST(LeaseTable, ExpiryRemovesOnlyLapsedLeases)
{
    LeaseTable table(100);
    table.grant(0, 0, 1000);           // expires at 1100
    const uint64_t g1 = table.grant(1, 1, 1000);
    EXPECT_TRUE(table.renew(1, g1, 1090));  // now expires at 1190
    table.grant(2, 0, 1150);           // expires at 1250

    const std::vector<size_t> expired = table.expire(1100);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0], 0u);
    EXPECT_FALSE(table.held(0));
    EXPECT_TRUE(table.held(1));
    EXPECT_TRUE(table.held(2));

    // Everything lapses eventually; expiry order is ascending shard id
    // (deterministic re-dispatch order).
    const std::vector<size_t> rest = table.expire(10000);
    ASSERT_EQ(rest.size(), 2u);
    EXPECT_EQ(rest[0], 1u);
    EXPECT_EQ(rest[1], 2u);
    EXPECT_EQ(table.heldCount(), 0u);
}

TEST(LeaseTable, GenerationsFenceStaleHolders)
{
    LeaseTable table(100);
    const uint64_t old_gen = table.grant(0, 0, 1000);

    // The lease lapses and the shard is re-granted to another worker.
    ASSERT_EQ(table.expire(2000).size(), 1u);
    const uint64_t new_gen = table.grant(0, 1, 2000);
    EXPECT_NE(old_gen, new_gen);

    // The stale holder's heartbeat and release must both bounce; the
    // new holder's must not.
    EXPECT_FALSE(table.renew(0, old_gen, 2010));
    EXPECT_FALSE(table.release(0, old_gen));
    EXPECT_TRUE(table.held(0));
    EXPECT_TRUE(table.renew(0, new_gen, 2010));
    EXPECT_TRUE(table.release(0, new_gen));
}

TEST(LeaseTable, RegrantWithoutExpiryStillFencesThePreviousHolder)
{
    // The coordinator can deliberately re-grant (e.g. after a worker
    // reported failure and the shard was requeued); the generation
    // bump alone does the fencing.
    LeaseTable table(1000);
    const uint64_t g1 = table.grant(0, 0, 0);
    const uint64_t g2 = table.grant(0, 1, 0);
    EXPECT_GT(g2, g1);
    EXPECT_FALSE(table.renew(0, g1, 1));
    EXPECT_TRUE(table.renew(0, g2, 1));
}

// ---------------------------------------------------------------------
// Shard planner

TEST(ShardPlan, RoundRobinCoversEveryItemExactlyOnce)
{
    const harness::ShardPlan plan = harness::planShards(23, 5);
    ASSERT_EQ(plan.shards.size(), 5u);
    EXPECT_EQ(plan.itemCount(), 23u);
    std::set<size_t> seen;
    for (const auto &shard : plan.shards) {
        EXPECT_FALSE(shard.empty());
        for (const size_t item : shard)
            EXPECT_TRUE(seen.insert(item).second)
                << "item " << item << " dealt twice";
    }
    EXPECT_EQ(seen.size(), 23u);
    // Round-robin: shard 0 holds 0, 5, 10, ...
    EXPECT_EQ(plan.shards[0][0], 0u);
    EXPECT_EQ(plan.shards[0][1], 5u);
}

TEST(ShardPlan, DegenerateCountsClampInsteadOfProducingEmptyShards)
{
    EXPECT_EQ(harness::planShards(0, 4).shards.size(), 0u);
    EXPECT_EQ(harness::planShards(3, 0).shards.size(), 1u);
    EXPECT_EQ(harness::planShards(3, 10).shards.size(), 3u);
}

TEST(ShardPlan, PlanAndSignatureAreReproducible)
{
    // Two coordinator incarnations derive identical plans -- the
    // property that makes restart-and-resubmit safe.
    const harness::ShardPlan a = harness::planShards(60, 8);
    const harness::ShardPlan b = harness::planShards(60, 8);
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (size_t s = 0; s < a.shards.size(); ++s) {
        EXPECT_EQ(a.shards[s], b.shards[s]);
        EXPECT_EQ(harness::shardSignature(a.shards[s]),
                  harness::shardSignature(b.shards[s]));
    }
    // The signature is order-sensitive.
    std::vector<size_t> reversed = a.shards[0];
    std::reverse(reversed.begin(), reversed.end());
    EXPECT_NE(harness::shardSignature(a.shards[0]),
              harness::shardSignature(reversed));
}

TEST(ShardPlan, RecommendedCountGivesAFewLeaseUnitsPerWorker)
{
    EXPECT_EQ(harness::recommendedShardCount(100, 3), 12u);
    EXPECT_EQ(harness::recommendedShardCount(2, 3), 2u);
    EXPECT_EQ(harness::recommendedShardCount(0, 3), 1u);
    EXPECT_EQ(harness::recommendedShardCount(100, 0), 4u);
}

// ---------------------------------------------------------------------
// Env knobs

TEST(FleetEnv, KnobsParseThroughUtilEnvWithNegativePaths)
{
    ::setenv("REACT_FLEET_LEASE_MS", "750", 1);
    ::setenv("REACT_FLEET_HEARTBEAT_MS", "not-a-number", 1);
    ::setenv("REACT_FLEET_SHARDS", "9", 1);
    FleetConfig config;
    const int default_heartbeat = config.heartbeatMs;
    config.applyEnv();
    ::unsetenv("REACT_FLEET_LEASE_MS");
    ::unsetenv("REACT_FLEET_HEARTBEAT_MS");
    ::unsetenv("REACT_FLEET_SHARDS");

    EXPECT_EQ(config.leaseMs, 750);
    // Malformed values warn and keep the default (util/env contract).
    EXPECT_EQ(config.heartbeatMs, default_heartbeat);
    EXPECT_EQ(config.shardCount, 9u);

    // Out-of-range values are rejected the same way.
    ::setenv("REACT_FLEET_LEASE_MS", "0", 1);
    FleetConfig config2;
    const int default_lease = config2.leaseMs;
    config2.applyEnv();
    ::unsetenv("REACT_FLEET_LEASE_MS");
    EXPECT_EQ(config2.leaseMs, default_lease);
}

TEST(FleetEnv, KeyLiteralWinsOverKeyFileAndEmptyKeyThrows)
{
    ::unsetenv("REACT_FLEET_KEY");
    ::unsetenv("REACT_FLEET_KEY_FILE");
    EXPECT_FALSE(loadFleetKey().has_value());

    ::setenv("REACT_FLEET_KEY", "sesame", 1);
    const auto key = loadFleetKey();
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(std::string(key->begin(), key->end()), "sesame");

    // A literal beats a (broken) file path: the file is never opened.
    ::setenv("REACT_FLEET_KEY_FILE", "/definitely/not/a/file", 1);
    EXPECT_TRUE(loadFleetKey().has_value());
    ::unsetenv("REACT_FLEET_KEY");

    // A configured-but-unusable key source must throw, not silently
    // start an open server.
    EXPECT_THROW(loadFleetKey(), std::runtime_error);
    ::unsetenv("REACT_FLEET_KEY_FILE");
}

// ---------------------------------------------------------------------
// Fleet sweep integration: in-process workers over TCP

class FleetIntegration : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        harness::ParallelRunner::clearStopRequest();
    }

    void TearDown() override
    {
        stopAll();
        harness::ParallelRunner::clearStopRequest();
    }

    /** Start one in-process worker daemon on an ephemeral TCP port. */
    std::string startWorker()
    {
        ServerConfig config;
        config.endpoint = "tcp:127.0.0.1:0";
        config.threads = 1;
        auto server = std::make_unique<Server>(config);
        Server *raw = server.get();
        servers.push_back(std::move(server));
        threads.emplace_back([raw] { raw->serve(); });
        for (int i = 0; i < 500 && raw->boundEndpoint().empty(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        EXPECT_FALSE(raw->boundEndpoint().empty());
        return raw->boundEndpoint();
    }

    void stopAll()
    {
        for (auto &server : servers)
            server->requestDrain();
        for (auto &t : threads)
            if (t.joinable())
                t.join();
        servers.clear();
        threads.clear();
    }

    std::vector<std::unique_ptr<Server>> servers;
    std::vector<std::thread> threads;
};

std::vector<JobSpec>
quickJobs()
{
    // Every buffer policy on the fast DE / RF-cart cell: one quick
    // distinct job per policy.
    std::vector<JobSpec> jobs;
    for (const auto buffer : harness::kAllBuffers) {
        JobSpec spec;
        spec.bench = harness::BenchmarkKind::DataEncryption;
        spec.trace = trace::PaperTrace::RfCart;
        spec.buffer = buffer;
        jobs.push_back(spec);
    }
    return jobs;
}

std::vector<uint8_t>
directBytes(const JobSpec &spec)
{
    const harness::ExperimentResult direct = harness::runGridCell(
        spec.buffer, spec.bench, spec.trace, spec.toConfig(),
        spec.baseSeed);
    WireWriter w;
    encodeResult(w, direct);
    return w.take();
}

TEST_F(FleetIntegration, SweepAcrossTwoWorkersMatchesSerialByteForByte)
{
    FleetConfig config;
    config.workers.push_back(startWorker());
    config.workers.push_back(startWorker());
    config.shardCount = 4;

    const std::vector<JobSpec> jobs = quickJobs();
    const FleetResult result = runFleetSweep(jobs, config);
    ASSERT_TRUE(result.complete);
    ASSERT_EQ(result.jobs.size(), jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_TRUE(result.jobs[j].ok);
        EXPECT_EQ(result.jobs[j].jobId, jobs[j].jobId());
        EXPECT_EQ(result.jobs[j].resultBytes, directBytes(jobs[j]))
            << "job " << j;
    }
    EXPECT_EQ(result.stats.byteMismatches, 0u);
    EXPECT_EQ(result.stats.jobsCompleted, jobs.size());

    // Two sweeps encode to identical merged bytes (the soak harness's
    // acceptance check, in miniature).
    const FleetResult again = runFleetSweep(jobs, config);
    EXPECT_EQ(encodeFleetOutput(result), encodeFleetOutput(again));
}

TEST_F(FleetIntegration, DeadWorkerEndpointIsToleratedViaRedispatch)
{
    FleetConfig config;
    config.workers.push_back(startWorker());
    // A worker that was never there: connections are refused; its
    // shards must be re-dispatched to the live worker.
    config.workers.push_back("tcp:127.0.0.1:1");
    config.shardCount = 4;
    config.requestTimeoutMs = 2000;
    config.connectTimeoutMs = 200;
    config.retry.maxRetries = 0;
    config.maxConsecutiveFailures = 2;
    config.failurePauseMs = 1;

    const std::vector<JobSpec> jobs = quickJobs();
    const FleetResult result = runFleetSweep(jobs, config);
    ASSERT_TRUE(result.complete);
    for (size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_TRUE(result.jobs[j].ok);
        EXPECT_EQ(result.jobs[j].resultBytes, directBytes(jobs[j]));
    }
    EXPECT_GE(result.stats.workerFailures, 1u);
    EXPECT_EQ(result.stats.workersDeclaredDead, 1u);
    EXPECT_GE(result.stats.redispatches, 1u);
    EXPECT_EQ(result.stats.byteMismatches, 0u);
}

TEST_F(FleetIntegration, JobLongerThanTheLeaseStillRenewsEveryHeartbeat)
{
    // A ~1 s cell under a 400 ms lease: the worker's poll is held at
    // most heartbeatMs, so the running job keeps renewing the lease.
    // A poll held until the job finished would let the lease lapse and
    // re-dispatch the shard.
    FleetConfig config;
    config.workers.push_back(startWorker());
    config.shardCount = 1;
    config.heartbeatMs = 40;
    config.leaseMs = 400;

    JobSpec spec;
    spec.bench = harness::BenchmarkKind::RadioTransmit;
    spec.trace = trace::PaperTrace::SolarCommute;
    spec.buffer = harness::BufferKind::Morphy;
    const FleetResult result = runFleetSweep({spec}, config);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.stats.leasesGranted, 1u);
    EXPECT_EQ(result.stats.leasesExpired, 0u);
    EXPECT_EQ(result.stats.redispatches, 0u);
    EXPECT_EQ(result.jobs[0].resultBytes, directBytes(spec));
}

TEST_F(FleetIntegration, AllWorkersDeadReportsIncompleteNotHang)
{
    FleetConfig config;
    config.workers.push_back("tcp:127.0.0.1:1");
    config.connectTimeoutMs = 200;
    config.requestTimeoutMs = 500;
    config.retry.maxRetries = 0;
    config.maxConsecutiveFailures = 2;
    config.failurePauseMs = 1;
    config.leaseMs = 200;

    const FleetResult result = runFleetSweep(quickJobs(), config);
    EXPECT_FALSE(result.complete);
    EXPECT_EQ(result.stats.jobsCompleted, 0u);
    EXPECT_EQ(result.stats.workersDeclaredDead, 1u);
}

TEST_F(FleetIntegration, EmptyJobListIsTriviallyComplete)
{
    FleetConfig config;
    config.workers.push_back("tcp:127.0.0.1:1");  // never contacted
    const FleetResult result = runFleetSweep({}, config);
    EXPECT_TRUE(result.complete);
    EXPECT_TRUE(result.jobs.empty());
}

TEST_F(FleetIntegration, AuthenticatedFleetSweepsEndToEnd)
{
    const char key_text[] = "fleet-integration-key";
    const std::vector<uint8_t> key(key_text,
                                   key_text + sizeof(key_text) - 1);
    ServerConfig sc;
    sc.endpoint = "tcp:127.0.0.1:0";
    sc.threads = 1;
    sc.fleetKey = key;
    auto server = std::make_unique<Server>(sc);
    Server *raw = server.get();
    servers.push_back(std::move(server));
    threads.emplace_back([raw] { raw->serve(); });
    for (int i = 0; i < 500 && raw->boundEndpoint().empty(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_FALSE(raw->boundEndpoint().empty());

    FleetConfig config;
    config.workers.push_back(raw->boundEndpoint());
    config.fleetKey = key;
    std::vector<JobSpec> jobs = quickJobs();
    jobs.resize(2);  // keep the authenticated pass quick
    const FleetResult result = runFleetSweep(jobs, config);
    ASSERT_TRUE(result.complete);
    for (size_t j = 0; j < jobs.size(); ++j)
        EXPECT_EQ(result.jobs[j].resultBytes, directBytes(jobs[j]));

    // The wrong key cannot make progress: every exchange is rejected.
    FleetConfig wrong = config;
    const char bad[] = "wrong-key";
    wrong.fleetKey.assign(bad, bad + sizeof(bad) - 1);
    wrong.maxConsecutiveFailures = 1;
    wrong.failurePauseMs = 1;
    const FleetResult rejected = runFleetSweep(jobs, wrong);
    EXPECT_FALSE(rejected.complete);
    EXPECT_EQ(rejected.stats.jobsCompleted, 0u);
    EXPECT_GE(raw->stats().authRejects, 1u);
}

TEST(FleetOutput, EncodingIsStableAndOrderPreserving)
{
    FleetResult result;
    result.jobs.resize(2);
    result.jobs[0].jobId = 0x1111;
    result.jobs[0].ok = true;
    result.jobs[0].resultBytes = {1, 2, 3};
    result.jobs[1].jobId = 0x2222;
    result.jobs[1].ok = false;

    const std::vector<uint8_t> bytes = encodeFleetOutput(result);
    WireReader r(bytes);
    EXPECT_EQ(r.u32(), 2u);
    EXPECT_EQ(r.u64(), 0x1111u);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.bytes(), (std::vector<uint8_t>{1, 2, 3}));
    EXPECT_EQ(r.u64(), 0x2222u);
    EXPECT_FALSE(r.b());
    EXPECT_TRUE(r.bytes().empty());
    EXPECT_NO_THROW(r.expectEnd());
}

} // namespace
} // namespace net
} // namespace react
