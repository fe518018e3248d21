/**
 * @file
 * react-cli's client library: the retry spine of the serving layer.
 *
 * A Client owns one connection to reactd and drives the whole recovery
 * protocol so callers see exactly two outcomes -- a result, or a
 * terminal ClientError:
 *
 *  - **Bounded retry with backoff + jitter.**  Every transport failure
 *    (timeout, reset, server restart, CRC-rejected frame) costs one
 *    retry; delays grow exponentially to a cap, jittered from a seeded
 *    RNG so the schedule is deterministic in tests yet avoids lockstep
 *    stampedes in real fleets.
 *  - **Idempotent resubmission.**  A retried Submit carries the same
 *    spec, hence the same job id; the server attaches it to the
 *    existing job or answers straight from its result cache.  Retries
 *    can therefore never duplicate or lose work.
 *  - **Transport fault injection.**  Outgoing frames pass through a
 *    FaultInjector (drop / bit-flip / delay / partial-write on a seeded
 *    schedule) so the tests and the soak harness exercise this spine
 *    on demand.
 */

#ifndef REACT_NET_CLIENT_HH
#define REACT_NET_CLIENT_HH

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "net/fault_injector.hh"
#include "net/frame.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "util/rng.hh"

namespace react {
namespace net {

/** Terminal client-side failure: retries exhausted, or the job itself
 *  failed/expired on the server.  Transient faults never surface as
 *  this; they are retried.  The kind distinguishes the failure classes
 *  callers act on differently (react-cli maps them to exit codes). */
class ClientError : public std::runtime_error
{
  public:
    enum class Kind : uint8_t
    {
        /** Retries exhausted against transport failures. */
        Transport = 0,
        /** The cell threw on the server (JobError/Failed). */
        JobFailed = 1,
        /** The job's queue-wait deadline lapsed (JobError/Expired). */
        DeadlineExpired = 2,
        /** The server refused the session (auth reject, missing key). */
        Rejected = 3,
    };

    explicit ClientError(const std::string &what_arg,
                         Kind kind_in = Kind::Transport)
        : std::runtime_error(what_arg), kind(kind_in)
    {
    }

    Kind kind;
};

/** Exponential backoff with seeded jitter. */
struct RetryPolicy
{
    /** Transient failures tolerated per job before giving up. */
    int maxRetries = 8;
    double initialBackoffMs = 50.0;
    double maxBackoffMs = 2000.0;

    /**
     * Delay before retry number @p attempt (1-based): the exponential
     * envelope min(cap, initial * 2^(attempt-1)) scaled by a jitter
     * factor in [0.5, 1.0] drawn from @p rng.
     */
    double backoffMs(int attempt, Rng *rng) const;
};

struct ClientConfig
{
    /** Server endpoint URI ("unix:/path", "tcp:host:port", or a bare
     *  AF_UNIX path); see net/endpoint.hh. */
    std::string endpoint = "/tmp/reactd.sock";
    /** Pre-shared fleet key for the auth handshake; empty = expect an
     *  unauthenticated server (an AuthChallenge then fails terminally). */
    std::vector<uint8_t> fleetKey;
    /** Budget for one request/response exchange, milliseconds. */
    int requestTimeoutMs = 5000;
    int connectTimeoutMs = 2000;
    /** Longest gap between progress reports while a job is queued or
     *  running, milliseconds: each Poll asks the server to hold it at
     *  most this long (waitMs) and answer earlier on any state change.
     *  The client never sleeps between polls. */
    int pollIntervalMs = 20;
    RetryPolicy retry;
    /** Jitter stream seed (backoff determinism in tests). */
    uint64_t jitterSeed = 0x1eafull;
    /** Outgoing-frame fault injection; none() = byte-transparent. */
    FaultPlan faults;
};

struct ClientStats
{
    uint64_t framesSent = 0;
    uint64_t framesReceived = 0;
    uint64_t connects = 0;
    uint64_t reconnects = 0;
    uint64_t retries = 0;
    uint64_t timeouts = 0;
    /** Error frames received (server rejected a frame of ours). */
    uint64_t serverErrors = 0;
};

/** A completed job: the decoded result plus its exact wire bytes (the
 *  soak harness compares those bytes against a direct local run). */
struct JobOutcome
{
    uint64_t jobId = 0;
    harness::ExperimentResult result;
    std::vector<uint8_t> resultBytes;
};

/** See file comment. */
class Client
{
  public:
    explicit Client(const ClientConfig &config);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Submit @p spec and drive it to completion: connect/handshake,
     * submit, hold-poll while queued or running, and retry the whole
     * exchange (with backoff) across any transient failure.
     *
     * @param on_progress Invoked after every successful status exchange
     *        with the server-reported state -- on each state change,
     *        and at least every pollIntervalMs while the job is
     *        unfinished (the fleet coordinator renews its shard lease
     *        from this heartbeat); may be empty.
     * @throws ClientError when retries are exhausted or the server
     *         reports the job Failed or Expired (kind tells which).
     */
    JobOutcome runJob(const JobSpec &spec,
                      const std::function<void(JobState)> &on_progress =
                          {});

    /** One Ping/Pong exchange.  @return false on any failure. */
    bool ping();

    /**
     * Ask the server to drain.  @return jobs in flight at the server
     * when it acknowledged.  @throws ClientError on failure (retried
     * like any other exchange).
     */
    uint32_t drain();

    /** Drop the connection (next exchange reconnects). */
    void disconnect();

    const ClientStats &stats() const { return clientStats; }
    const FaultCounters &faultCounters() const
    {
        return injector.counters();
    }

  private:
    void ensureConnected();
    /** Send one frame through the fault injector. */
    void transmit(const std::vector<uint8_t> &frame);
    /** Block for the next complete frame, within the request timeout
     *  plus @p hold_ms (the server-side hold of a pending Poll). */
    Frame awaitFrame(int hold_ms = 0);

    ClientConfig config;
    ClientStats clientStats;
    FaultInjector injector;
    Rng jitterRng;
    Socket sock;
    FrameDecoder decoder;
};

} // namespace net
} // namespace react

#endif // REACT_NET_CLIENT_HH
