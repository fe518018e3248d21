/**
 * @file
 * reactd: the long-lived experiment server.
 *
 * One process owns the hot engine; many clients submit evaluation-grid
 * jobs over the framed protocol (net/protocol.hh) and poll for results.
 * The server's robustness spine:
 *
 *  - **Strict parsing.**  Every connection feeds a FrameDecoder; a
 *    malformed frame (bad magic, length-lie, bit-flip, oversize) costs
 *    that connection an Error frame and a close -- never the process.
 *  - **Idempotent jobs.**  Jobs are keyed by the spec digest, so a
 *    retried Submit attaches to the existing job (or its cached
 *    result) instead of re-running or duplicating it.
 *  - **Result cache.**  Completed jobs stay resident (bounded by
 *    maxCachedResults, oldest-done evicted first); identical cells are
 *    never re-simulated.
 *  - **Deadlines and timeouts.**  A job whose queue wait exceeds its
 *    deadline expires instead of dispatching; a connection idle past
 *    idleTimeoutMs is dropped.
 *  - **Graceful drain.**  SIGTERM/SIGINT (via installSignalHandlers)
 *    or a Drain frame stops admission and dispatch (queued jobs stay
 *    queued); in-flight cells finish -- writing their checkpoints when checkpointDir is set --
 *    and serve() returns.  A restarted server resumes those cells
 *    bit-identically from their snapshots (PR-4 machinery), which the
 *    soak harness proves byte-for-byte.
 *
 * Execution runs on `threads` long-lived workers: each takes the oldest
 * queued job as soon as it is free and publishes the result the moment
 * the cell finishes, so a short job never waits behind a long one.
 * Polls are held on the I/O thread until the job's state changes or
 * the client's waitMs runs out.  Every cell is seeded from its stable
 * identity, so a served result is bit-identical to a direct
 * runGridCell() of the same spec.
 */

#ifndef REACT_NET_SERVER_HH
#define REACT_NET_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/checkpoint.hh"

namespace react {
namespace net {

/** Server options; fromEnv() fills them from REACTD_* variables. */
struct ServerConfig
{
    /** Listening endpoint URI ("unix:/path", "tcp:host:port", or a bare
     *  AF_UNIX path); see net/endpoint.hh.  tcp with port 0 binds an
     *  ephemeral port, readable from Server::boundEndpoint(). */
    std::string endpoint = "/tmp/reactd.sock";
    /** Long-lived job workers; 0 = ParallelRunner::defaultThreadCount
     *  (REACT_THREADS / hardware concurrency). */
    int threads = 0;
    /** Per-job snapshot directory; empty disables checkpointing. */
    std::string checkpointDir;
    /** Periodic checkpoint cadence for served cells, in steps. */
    uint64_t checkpointIntervalSteps = harness::kDefaultCheckpointInterval;
    /** Connections idle longer than this are dropped, milliseconds. */
    int idleTimeoutMs = 30000;
    /** Completed jobs kept resident for cache hits. */
    size_t maxCachedResults = 4096;
    /** Per-connection reply-buffer cap, bytes: a peer that submits but
     *  never reads is dropped (typed warn) once this much output is
     *  queued, instead of growing the process without bound. */
    size_t maxOutbufBytes = 4u * 1024 * 1024;
    /** Pre-shared fleet key; empty disables the auth handshake (the
     *  PR-6 single-host flow).  fromEnv() loads REACT_FLEET_KEY /
     *  REACT_FLEET_KEY_FILE via net/auth.hh. */
    std::vector<uint8_t> fleetKey;
    /** Seed of the auth challenge-nonce stream (see net/auth.hh). */
    uint64_t authNonceSeed = 0x6f6e6365u;

    /**
     * Environment defaults: REACTD_ENDPOINT (REACTD_SOCKET is the
     * legacy unix-path spelling), REACTD_THREADS, REACTD_CHECKPOINT_DIR,
     * REACTD_CHECKPOINT_INTERVAL, REACTD_IDLE_TIMEOUT_MS,
     * REACTD_OUTBUF_MAX, REACTD_AUTH_SEED, REACT_FLEET_KEY[_FILE] --
     * all parsed through util/env.hh (a malformed value warns and keeps
     * the default; an unreadable key *file* throws, see loadFleetKey).
     */
    static ServerConfig fromEnv();
};

/** Monotonic counters, readable after serve() returns. */
struct ServerStats
{
    uint64_t connectionsAccepted = 0;
    uint64_t connectionsDropped = 0;
    uint64_t framesReceived = 0;
    uint64_t protocolErrors = 0;
    uint64_t idleDrops = 0;
    uint64_t jobsSubmitted = 0;
    uint64_t jobsExecuted = 0;
    uint64_t jobsFailed = 0;
    uint64_t jobsExpired = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheEvictions = 0;
    /** Connections dropped for exceeding maxOutbufBytes. */
    uint64_t outbufOverflows = 0;
    /** Sessions rejected by the auth handshake (bad or missing proof). */
    uint64_t authRejects = 0;
};

/** See file comment. */
class Server
{
  public:
    explicit Server(const ServerConfig &config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and serve until drained.
     * @return process exit status: 0 after a clean drain.
     */
    int serve();

    /**
     * Begin a graceful drain: stop accepting and dispatching, finish
     * in-flight cells, then serve() returns.  Callable from any thread
     * and (apart from stats) from signal handlers.
     */
    void requestDrain();

    /** Route SIGTERM/SIGINT to requestDrain() on @p server (pass
     *  nullptr to uninstall). */
    static void installSignalHandlers(Server *server);

    const ServerStats &stats() const;
    const ServerConfig &config() const;

    /**
     * The endpoint actually bound, in canonical URI form -- for tcp
     * with port 0 this carries the ephemeral port the OS assigned.
     * Empty until serve() has bound; thread-safe, so a test can spin
     * on it while serve() runs elsewhere.
     */
    std::string boundEndpoint() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace net
} // namespace react

#endif // REACT_NET_SERVER_HH
