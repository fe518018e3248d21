/**
 * @file
 * reactd message protocol: job submission, polling, and admin, spoken
 * over CRC-framed transport frames (net/frame.hh).
 *
 * ## Conversation
 *
 *     client                         server
 *     Hello(version)          ->
 *                             <-    HelloOk(version)
 *     Submit(spec)            ->
 *                             <-    JobResult          (done/cached)
 *                             <-    Submitted(id, st)  (otherwise)
 *     Poll(id, waitMs)        ->     (held until the job's state moves
 *                                     off the one last reported, or
 *                                     waitMs runs out)
 *                             <-    Submitted(id, st) | JobResult | JobError
 *
 * ## Idempotency contract
 *
 * A job's identity is the digest of its canonical spec encoding minus
 * the deadline field: the same cell submitted twice -- by a retrying
 * client, by two different clients, or before and after a server
 * restart -- maps to the same 64-bit id.  The server keyed its result
 * cache by that id, so retries can never duplicate work or results,
 * and identical cells are never re-simulated.
 *
 * ## Deadline contract
 *
 * JobSpec::deadlineSeconds bounds the *queue wait*: a job still queued
 * when its deadline lapses is expired (JobError) instead of dispatched.
 * It deliberately does not abort running cells -- cells are the unit of
 * work and run to completion (checkpointed), exactly like the graceful
 * drain path.
 */

#ifndef REACT_NET_PROTOCOL_HH
#define REACT_NET_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/grid.hh"
#include "net/wire.hh"

namespace react {
namespace net {

/** Protocol revision; Hello/HelloOk must agree exactly.
 *  v2: auth handshake frames (net/auth.hh) and a JobState byte in
 *  JobError so clients can tell deadline expiry from execution failure
 *  without string matching.
 *  v3: Poll carries a u32 waitMs; the server holds the poll until the
 *  job's state changes or the wait runs out, instead of answering at
 *  once (waitMs = 0 keeps the immediate answer). */
constexpr uint32_t kProtocolVersion = 3;

/** Frame types. */
enum class MsgType : uint8_t
{
    Hello = 1,
    HelloOk = 2,
    Submit = 3,
    Submitted = 4,
    Poll = 5,
    JobResult = 6,
    JobError = 7,
    Ping = 8,
    Pong = 9,
    Drain = 10,
    DrainOk = 11,
    Error = 12,
    /** Server demands an HMAC proof for the enclosed nonce (v2). */
    AuthChallenge = 13,
    /** Client's HMAC proof over the challenge nonce (v2). */
    AuthResponse = 14,
    /** Typed authentication failure; the connection is dropped (v2). */
    AuthReject = 15,
};

/** Server-side job lifecycle, as reported in Submitted frames. */
enum class JobState : uint8_t
{
    Queued = 0,
    Running = 1,
    Done = 2,
    /** Done, and served straight from the result cache. */
    Cached = 3,
    /** Deadline lapsed while queued. */
    Expired = 4,
    /** The cell threw; message carried in JobError. */
    Failed = 5,
};

/** Printable name of a job state. */
const char *jobStateName(JobState state);

/**
 * One experiment job: an evaluation-grid cell plus runner options.
 * Identity fields (everything except deadlineSeconds) define jobId().
 */
struct JobSpec
{
    harness::BenchmarkKind bench = harness::BenchmarkKind::DataEncryption;
    trace::PaperTrace trace = trace::PaperTrace::RfCart;
    harness::BufferKind buffer = harness::BufferKind::React;
    uint64_t baseSeed = harness::kEvaluationSeed;
    double dt = 1e-3;
    double drainAllowance = harness::kGridDrainAllowance;
    double settleTime = 20.0;
    bool stopAfterLatency = false;
    /** Queue-wait budget, seconds; 0 disables expiry. */
    double deadlineSeconds = 0.0;

    /** Stable cell identity ("DE:RF Cart:REACT"). */
    std::string cellKey() const;

    /**
     * Idempotent job identity: digest of the canonical encoding of the
     * identity fields.  Stable across processes, clients, and retries.
     */
    uint64_t jobId() const;

    void encode(WireWriter &w) const;
    /** @throws ProtocolError on out-of-range enum indices. */
    static JobSpec decode(WireReader &r);

    /** The ExperimentConfig this spec asks the server to run with. */
    harness::ExperimentConfig toConfig() const;
};

/**
 * Encode the portable portion of an experiment result: metrics, energy
 * ledger, fault counters, and the stateDigest bit-identity proof.
 * Operational fields (resumed, snapshotFallback, snapshotDiagnostic,
 * rail recording, fault log) are deliberately excluded so a result
 * served from a checkpoint resume or the cache is byte-identical to a
 * direct run -- that equality is the soak test's acceptance criterion.
 */
void encodeResult(WireWriter &w, const harness::ExperimentResult &res);

/** Decode a result encoded by encodeResult (unlisted fields default). */
harness::ExperimentResult decodeResult(WireReader &r);

/** @name Whole-message builders (payload encoding + framing). @{ */
std::vector<uint8_t> makeHello();
std::vector<uint8_t> makeHelloOk();
std::vector<uint8_t> makeSubmit(const JobSpec &spec);
std::vector<uint8_t> makeSubmitted(uint64_t job_id, JobState state);
/** @p wait_ms: longest hold before the server answers (v3). */
std::vector<uint8_t> makePoll(uint64_t job_id, uint32_t wait_ms);
std::vector<uint8_t> makeJobResult(uint64_t job_id,
                                   const std::vector<uint8_t> &result_bytes);
std::vector<uint8_t> makeJobError(uint64_t job_id, JobState state,
                                  const std::string &message);
std::vector<uint8_t> makePing();
std::vector<uint8_t> makePong();
std::vector<uint8_t> makeDrain();
std::vector<uint8_t> makeDrainOk(uint32_t jobs_in_flight);
std::vector<uint8_t> makeError(const std::string &message);
std::vector<uint8_t> makeAuthChallenge(const uint8_t *nonce, size_t size);
std::vector<uint8_t> makeAuthResponse(const uint8_t *mac, size_t size);
std::vector<uint8_t> makeAuthReject(const std::string &reason);
/** @} */

} // namespace net
} // namespace react

#endif // REACT_NET_PROTOCOL_HH
