/**
 * @file
 * reactd_mixed: an in-process net::Server on an ephemeral TCP port
 * under closed-loop load from nproc-1 net::Client connections.
 *
 * Server: fleet key set, checkpoint directory in the run's scratch
 * directory (the documented reactd deployment), nproc-1 cell workers.
 * Each client runs its own job stream, drawn from (seed, client):
 * 60 % fresh full RF-trace cells, 25 % fresh latency-only probes
 * (stopAfterLatency, Table-4 style) and 15 % resubmissions of a spec
 * that client already completed, which the server answers from its
 * result cache.  Fresh jobs get a unique JobSpec.baseSeed derived from
 * the seed, so they are never cache hits.  The load runs in rounds of
 * kJobsPerRound jobs per client; sweep_s is the wall time of a round.
 *
 * Before each submit a client thinks for a seeded time uniform over one
 * poll interval.  Without it the clients' 20 ms poll cycles phase-lock
 * with the executor's batches, and a whole run settles into a faster or
 * slower pattern: three runs of one seed then differed by 17 % in
 * jobs/s.
 *
 * Every served result's bytes are compared, after the timed region,
 * with encodeResult(runGridCell(spec)) computed locally.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <unistd.h>

#include "harness/grid.hh"
#include "harness/parallel_runner.hh"
#include "net/client.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "perfbench.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace react;

namespace {

constexpr int kJobsPerRound = 4;
/** Upper end of a client's think time, seconds: one default poll
 *  interval (net::ClientConfig::pollIntervalMs). */
constexpr double kMaxThinkSeconds = 0.020;
constexpr int kSetupSamples = 11;

constexpr std::array<trace::PaperTrace, 3> kRfTraces = {
    trace::PaperTrace::RfCart, trace::PaperTrace::RfObstruction,
    trace::PaperTrace::RfMobile,
};

enum class JobKind
{
    Fresh,
    Probe,
    Resubmit,
};

struct PlannedJob
{
    net::JobSpec spec;
    JobKind kind = JobKind::Fresh;
};

/**
 * One client's seeded job stream.  Kinds and cells are dealt from
 * shuffled decks -- 20 kinds (12 fresh, 5 probes, 3 resubmissions) and
 * the 60 RF cells -- so every seed runs the same mix in its own order
 * and runs of different seeds stay comparable.  Closed loop: a
 * resubmission picks among the specs this client already completed.
 */
class JobPlanner
{
  public:
    JobPlanner(uint64_t seed, int client)
        : rng(harness::cellSeed(seed,
                                "reactd_mixed:client" +
                                    std::to_string(client))),
          seed(seed), client(client)
    {
    }

    PlannedJob next()
    {
        if (kinds.empty()) {
            kinds.assign(12, JobKind::Fresh);
            kinds.insert(kinds.end(), 5, JobKind::Probe);
            kinds.insert(kinds.end(), 3, JobKind::Resubmit);
            shuffle(kinds);
        }
        const JobKind kind = kinds.back();
        kinds.pop_back();
        if (kind == JobKind::Resubmit && !completedSpecs.empty()) {
            const int pick = rng.uniformInt(
                0, static_cast<int>(completedSpecs.size()) - 1);
            return {completedSpecs[static_cast<size_t>(pick)],
                    JobKind::Resubmit};
        }
        if (cells.empty()) {
            for (const auto bench : harness::kAllBenchmarks)
                for (const auto trace_kind : kRfTraces)
                    for (const auto buffer : harness::kAllBuffers)
                        cells.push_back({bench, trace_kind, buffer});
            shuffle(cells);
        }
        PlannedJob job;
        job.spec.bench = cells.back().bench;
        job.spec.trace = cells.back().trace;
        job.spec.buffer = cells.back().buffer;
        cells.pop_back();
        job.spec.baseSeed = harness::cellSeed(
            seed, "reactd_mixed:" + std::to_string(client) + ":" +
                      std::to_string(issued++));
        job.spec.stopAfterLatency = kind == JobKind::Probe;
        job.kind = job.spec.stopAfterLatency ? JobKind::Probe
                                             : JobKind::Fresh;
        return job;
    }

    void completed(const net::JobSpec &spec)
    {
        completedSpecs.push_back(spec);
    }

    /** Pause before the next submit, uniform in [0, kMaxThinkSeconds). */
    double thinkSeconds() { return rng.uniform(0.0, kMaxThinkSeconds); }

  private:
    struct RfCell
    {
        harness::BenchmarkKind bench;
        trace::PaperTrace trace;
        harness::BufferKind buffer;
    };

    template <typename T>
    void shuffle(std::vector<T> &deck)
    {
        for (int i = static_cast<int>(deck.size()) - 1; i > 0; --i)
            std::swap(deck[static_cast<size_t>(i)],
                      deck[static_cast<size_t>(rng.uniformInt(0, i))]);
    }

    Rng rng;
    uint64_t seed;
    int client;
    uint64_t issued = 0;
    std::vector<JobKind> kinds;
    std::vector<RfCell> cells;
    std::vector<net::JobSpec> completedSpecs;
};

struct JobRecord
{
    PlannedJob plan;
    bool traced = false;
    double submit = 0.0;
    /** First on_progress report of Running; < 0 when none was seen. */
    double firstRunning = -1.0;
    double done = 0.0;
    bool ok = false;
    std::string error;
    std::vector<uint8_t> bytes;
};

/** Runs Server::serve() on its own thread; drains and joins on stop. */
class ServerHandle
{
  public:
    explicit ServerHandle(const net::ServerConfig &config)
        : server(config)
    {
        thread = std::thread([this] { status = server.serve(); });
        for (int i = 0; i < 5000 && server.boundEndpoint().empty() &&
             status < 0;
             ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    ~ServerHandle() { stop(); }

    ServerHandle(const ServerHandle &) = delete;
    ServerHandle &operator=(const ServerHandle &) = delete;

    std::string endpoint() const { return server.boundEndpoint(); }

    /** Drain and join; the stats are safe to read afterwards. */
    void stop()
    {
        if (!thread.joinable())
            return;
        server.requestDrain();
        thread.join();
        // Drain raises the process-wide runner stop flag.
        harness::ParallelRunner::clearStopRequest();
    }

    const net::ServerStats &stats() const { return server.stats(); }

  private:
    net::Server server;
    std::atomic<int> status{-1};
    std::thread thread;
};

void
runRound(net::Client &client, JobPlanner &planner, bool traced,
         std::vector<JobRecord> &out)
{
    for (int j = 0; j < kJobsPerRound; ++j) {
        JobRecord rec;
        rec.plan = planner.next();
        std::this_thread::sleep_for(
            std::chrono::duration<double>(planner.thinkSeconds()));
        rec.traced = traced;
        rec.submit = now();
        try {
            net::JobOutcome outcome;
            if (traced) {
                outcome = client.runJob(rec.plan.spec, [&](net::JobState s) {
                    if (s == net::JobState::Running && rec.firstRunning < 0)
                        rec.firstRunning = now();
                });
            } else {
                outcome = client.runJob(rec.plan.spec);
            }
            rec.done = now();
            rec.ok = true;
            rec.bytes = std::move(outcome.resultBytes);
            planner.completed(rec.plan.spec);
        } catch (const net::ClientError &e) {
            rec.done = now();
            rec.error = e.what();
        }
        out.push_back(std::move(rec));
    }
}

std::vector<uint8_t>
expectedBytes(const net::JobSpec &spec)
{
    net::WireWriter w;
    net::encodeResult(w, harness::runGridCell(spec.buffer, spec.bench,
                                              spec.trace, spec.toConfig(),
                                              spec.baseSeed));
    return w.take();
}

} // namespace

void
runReactdMixed(const Options &opt, Tracer *tracer, Outcome &out)
{
    const int nclients = std::max(1, opt.nproc - 1);
    const std::string ckpt_dir =
        opt.scratchDir + "/ckpt-" + std::to_string(::getpid());
    std::filesystem::remove_all(ckpt_dir);
    std::filesystem::create_directories(ckpt_dir);

    net::ServerConfig server_config;
    server_config.endpoint = "tcp:127.0.0.1:0";
    server_config.threads = nclients;
    server_config.checkpointDir = ckpt_dir;
    Rng key_rng(harness::cellSeed(opt.seed, "reactd_mixed:fleet-key"));
    for (int i = 0; i < 32; ++i)
        server_config.fleetKey.push_back(
            static_cast<uint8_t>(key_rng.next()));

    // Set-up, repeated: trace synthesis, bind, and every client's
    // connect + auth handshake (a ping).  The last sample's server and
    // clients carry the load.
    const std::vector<double> synth = traceSynthSamples(kSetupSamples);
    std::vector<double> setup;
    std::unique_ptr<ServerHandle> server;
    std::vector<std::unique_ptr<net::Client>> clients;
    for (int sample = 0; sample < kSetupSamples; ++sample) {
        clients.clear();
        server.reset();
        const double t0 = now();
        server = std::make_unique<ServerHandle>(server_config);
        net::ClientConfig cc;
        cc.endpoint = server->endpoint();
        cc.fleetKey = server_config.fleetKey;
        bool connected = !cc.endpoint.empty();
        for (int c = 0; c < nclients && connected; ++c) {
            clients.push_back(std::make_unique<net::Client>(cc));
            connected = clients.back()->ping();
        }
        if (!connected) {
            out.fail("reactd did not come up for set-up sample " +
                     std::to_string(sample));
            return;
        }
        setup.push_back(synth[static_cast<size_t>(sample)] + now() - t0);
    }
    std::vector<net::ClientStats> base_stats;
    for (const auto &c : clients)
        base_stats.push_back(c->stats());

    std::vector<JobPlanner> planners;
    for (int c = 0; c < nclients; ++c)
        planners.emplace_back(opt.seed, c);
    std::vector<JobRecord> records;
    std::vector<double> untraced, traced;
    const double begin = now();
    for (size_t round = 0;; ++round) {
        const bool is_traced = tracer != nullptr && round % 2 == 0;
        std::vector<std::vector<JobRecord>> per_client(
            static_cast<size_t>(nclients));
        const double start = now();
        std::vector<std::thread> threads;
        for (int c = 0; c < nclients; ++c) {
            const size_t i = static_cast<size_t>(c);
            threads.emplace_back([&, i] {
                runRound(*clients[i], planners[i], is_traced,
                         per_client[i]);
            });
        }
        for (auto &t : threads)
            t.join();
        const double wall = now() - start;
        (is_traced ? traced : untraced).push_back(wall);
        uint64_t round_span = 0;
        if (is_traced)
            round_span = tracer->add(0, "reactd_mixed.round", start,
                                     start + wall);
        for (auto &client_records : per_client) {
            for (auto &rec : client_records) {
                if (is_traced) {
                    const uint64_t job = tracer->add(
                        round_span, "net.Client.runJob " +
                                        rec.plan.spec.cellKey(),
                        rec.submit, rec.done);
                    if (rec.firstRunning >= 0.0) {
                        tracer->add(job, "net.queue_wait", rec.submit,
                                    rec.firstRunning);
                        tracer->add(job, "net.execute", rec.firstRunning,
                                    rec.done);
                    }
                }
                records.push_back(std::move(rec));
            }
        }
        if (passesDone(opt, tracer != nullptr, begin, traced.size(),
                       untraced.size()))
            break;
    }
    const double rss = peakRssMb();
    net::ClientStats client_sum;
    for (size_t c = 0; c < clients.size(); ++c) {
        const net::ClientStats &s = clients[c]->stats();
        client_sum.framesSent += s.framesSent - base_stats[c].framesSent;
        client_sum.framesReceived +=
            s.framesReceived - base_stats[c].framesReceived;
        client_sum.retries += s.retries - base_stats[c].retries;
        client_sum.timeouts += s.timeouts - base_stats[c].timeouts;
    }
    clients.clear();
    server->stop();
    const net::ServerStats server_stats = server->stats();
    server.reset();

    uint64_t snapshot_files = 0, snapshot_bytes = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(ckpt_dir)) {
        if (entry.is_regular_file()) {
            ++snapshot_files;
            snapshot_bytes += entry.file_size();
        }
    }
    std::filesystem::remove_all(ckpt_dir);

    // Verify every served result against a local run of its spec.
    std::map<uint64_t, net::JobSpec> specs;
    for (const auto &rec : records)
        specs.emplace(rec.plan.spec.jobId(), rec.plan.spec);
    std::vector<uint64_t> ids;
    for (const auto &[id, spec] : specs)
        ids.push_back(id);
    std::vector<std::vector<uint8_t>> expected(ids.size());
    {
        harness::ParallelRunner runner(opt.nproc);
        for (size_t i = 0; i < ids.size(); ++i) {
            const net::JobSpec spec = specs[ids[i]];
            std::vector<uint8_t> *slot = &expected[i];
            runner.submit(spec.cellKey(),
                          [spec, slot]() { *slot = expectedBytes(spec); });
        }
        runner.run();
    }
    std::map<uint64_t, const std::vector<uint8_t> *> expected_by_id;
    for (size_t i = 0; i < ids.size(); ++i)
        expected_by_id[ids[i]] = &expected[i];

    std::vector<harness::ExperimentResult> served;
    std::vector<double> latency_ms;
    double untraced_wall = 0.0;
    for (const double w : untraced)
        untraced_wall += w;
    uint64_t fresh_steps = 0, untraced_jobs = 0;
    for (const auto &rec : records) {
        ++out.attempted;
        if (!rec.ok) {
            out.fail("job " + rec.plan.spec.cellKey() + ": " + rec.error);
        } else if (rec.bytes != *expected_by_id[rec.plan.spec.jobId()]) {
            out.fail("job " + rec.plan.spec.cellKey() +
                     " served bytes differ from a local runGridCell");
        } else {
            net::WireReader r(rec.bytes);
            served.push_back(net::decodeResult(r));
            if (!resultSane(served.back()))
                out.fail("job " + rec.plan.spec.cellKey() +
                         " breaks the conservation bound");
            if (!rec.traced && rec.plan.kind != JobKind::Resubmit)
                fresh_steps += served.back().steps;
        }
        if (!rec.traced) {
            latency_ms.push_back((rec.done - rec.submit) * 1e3);
            ++untraced_jobs;
        }
    }

    if (!untraced.empty()) {
        const int tail = tailPercentile(latency_ms.size());
        out.endToEnd["setup_s"] = {median(setup), "s"};
        out.endToEnd["sweep_s"] = {median(untraced), "s"};
        out.endToEnd["steps_per_s"] = {
            static_cast<double>(fresh_steps) / untraced_wall, "1/s"};
        out.endToEnd["job_p99_ms"] = {quantile(latency_ms, tail / 100.0),
                                      "ms"};
        out.endToEnd["jobs_per_s"] = {
            static_cast<double>(untraced_jobs) / untraced_wall, "1/s"};
        out.endToEnd["peak_rss_mb"] = {rss, "MiB"};
        std::printf("  %zu rounds of %d jobs x %d clients; job latency p%d "
                    "over n=%zu; job_p50_ms %.6g ms (not gated, see "
                    "LAYERS.md)\n",
                    untraced.size(), kJobsPerRound, nclients, tail,
                    latency_ms.size(), median(latency_ms));
    }
    uint64_t resubmits = 0;
    for (const auto &rec : records)
        resubmits += rec.plan.kind == JobKind::Resubmit;
    std::printf("  server: %llu jobs submitted, %llu executed, %llu cache "
                "hits (%llu resubmissions sent)\n",
                static_cast<unsigned long long>(server_stats.jobsSubmitted),
                static_cast<unsigned long long>(server_stats.jobsExecuted),
                static_cast<unsigned long long>(server_stats.cacheHits),
                static_cast<unsigned long long>(resubmits));
    if (tracer == nullptr)
        return;

    std::vector<double> queue_ms, execute_ms, hit_ms;
    for (const auto &rec : records) {
        if (!rec.traced || !rec.ok)
            continue;
        if (rec.plan.kind == JobKind::Resubmit)
            hit_ms.push_back((rec.done - rec.submit) * 1e3);
        if (rec.firstRunning >= 0.0) {
            queue_ms.push_back((rec.firstRunning - rec.submit) * 1e3);
            execute_ms.push_back((rec.done - rec.firstRunning) * 1e3);
        }
    }
    const double jobs = static_cast<double>(std::max<size_t>(records.size(), 1));
    const double executed = static_cast<double>(
        std::max<uint64_t>(server_stats.jobsExecuted, 1));
    out.layers["trace.synth_s"] = {median(synth), "s"};
    out.layers["net.queue_wait_ms.p50"] = {median(queue_ms), "ms"};
    out.layers["net.queue_wait_ms.p99"] = {
        quantile(queue_ms, tailPercentile(queue_ms.size()) / 100.0), "ms"};
    out.layers["net.execute_ms.p50"] = {median(execute_ms), "ms"};
    out.layers["net.hit_ms.p50"] = {median(hit_ms), "ms"};
    out.layers["net.frames_per_job"] = {
        static_cast<double>(client_sum.framesSent +
                            client_sum.framesReceived) /
            jobs,
        "count"};
    out.layers["net.retries"] = {static_cast<double>(client_sum.retries),
                                 "count"};
    out.layers["net.timeouts"] = {static_cast<double>(client_sum.timeouts),
                                  "count"};
    out.layers["net.cache_hit_ratio"] = {
        static_cast<double>(server_stats.cacheHits) /
            static_cast<double>(
                std::max<uint64_t>(server_stats.jobsSubmitted, 1)),
        "frac"};
    out.layers["snapshot.files"] = {
        static_cast<double>(snapshot_files) / executed, "count"};
    out.layers["snapshot.bytes"] = {
        static_cast<double>(snapshot_bytes) / executed, "bytes"};
    putTraceOverhead(untraced, traced, out.layers);
    measureCodec(served, out.layers);
}

} // namespace perfbench
