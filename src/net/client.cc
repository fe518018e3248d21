#include "client.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "net/auth.hh"
#include "net/endpoint.hh"
#include "util/determinism.hh"
#include "util/logging.hh"

namespace react {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * The client's only sanctioned clock read.  Wall time paces request
 * timeouts and retry backoff -- *whether* an exchange is retried, never
 * *what* a job computes: results come back as server-produced bytes
 * whose identity the soak suite checks against direct local runs.
 */
Clock::time_point
wallNow()
{
    REACT_NONDET_OK("wall clock paces timeouts/retries only; result bytes are server-produced");
    return Clock::now();
}

int
remainingMs(Clock::time_point deadline)
{
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - wallNow());
    return static_cast<int>(std::max<int64_t>(1, left.count()));
}

} // namespace

double
RetryPolicy::backoffMs(int attempt, Rng *rng) const
{
    const double envelope = std::min(
        maxBackoffMs,
        initialBackoffMs * std::ldexp(1.0, std::min(attempt - 1, 30)));
    return envelope * (0.5 + 0.5 * rng->uniform());
}

Client::Client(const ClientConfig &config_in)
    : config(config_in), injector(config_in.faults),
      jitterRng(config_in.jitterSeed)
{
}

Client::~Client() = default;

void
Client::disconnect()
{
    sock.close();
    decoder = FrameDecoder();
}

void
Client::ensureConnected()
{
    if (sock.valid())
        return;
    // Injected connection refusal: drawn from its own derived stream
    // (see FaultInjector::nextConnectRefused) and surfaced exactly like
    // a real ECONNREFUSED so the retry spine handles both identically.
    if (injector.nextConnectRefused())
        throw SocketError("injected connection refusal");
    if (clientStats.connects > 0)
        ++clientStats.reconnects;
    sock = connectTo(Endpoint::parseOrThrow(config.endpoint),
                     config.connectTimeoutMs);
    ++clientStats.connects;
    decoder = FrameDecoder();
    transmit(makeHello());
    Frame reply = awaitFrame();
    if (reply.type == static_cast<uint8_t>(MsgType::AuthChallenge)) {
        WireReader cr(reply.payload);
        const std::vector<uint8_t> nonce_bytes = cr.bytes();
        cr.expectEnd();
        if (nonce_bytes.size() != kAuthNonceSize) {
            disconnect();
            throw ProtocolError("auth challenge nonce has wrong size");
        }
        if (config.fleetKey.empty()) {
            disconnect();
            // Terminal: no number of retries conjures up a key.
            throw ClientError("server requires authentication and no "
                              "fleet key is configured",
                              ClientError::Kind::Rejected);
        }
        AuthNonce nonce;
        std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
        const AuthMac mac = authProof(config.fleetKey, nonce);
        transmit(makeAuthResponse(mac.data(), mac.size()));
        reply = awaitFrame();
    }
    if (reply.type == static_cast<uint8_t>(MsgType::AuthReject)) {
        WireReader rr(reply.payload);
        const std::string reason = rr.str();
        rr.expectEnd();
        disconnect();
        // Terminal: the key is wrong, retrying re-sends the same proof.
        throw ClientError("server rejected session: " + reason,
                          ClientError::Kind::Rejected);
    }
    if (reply.type != static_cast<uint8_t>(MsgType::HelloOk)) {
        disconnect();
        throw ProtocolError("handshake rejected (frame type " +
                            std::to_string(reply.type) + ")");
    }
    WireReader r(reply.payload);
    const uint32_t version = r.u32();
    r.expectEnd();
    if (version != kProtocolVersion) {
        disconnect();
        throw ProtocolError("server speaks protocol v" +
                            std::to_string(version) + ", want v" +
                            std::to_string(kProtocolVersion));
    }
}

void
Client::transmit(const std::vector<uint8_t> &frame)
{
    switch (injector.nextAction()) {
      case FaultAction::Drop:
        // Swallowed: the exchange times out and the retry spine takes
        // over.  The frame counter still ticks (a send was attempted).
        ++clientStats.framesSent;
        return;
      case FaultAction::Corrupt: {
        std::vector<uint8_t> mangled = frame;
        injector.corruptInPlace(&mangled);
        sendAll(sock.fd(), mangled.data(), mangled.size(),
                config.requestTimeoutMs);
        ++clientStats.framesSent;
        return;
      }
      case FaultAction::Delay:
        std::this_thread::sleep_for(
            std::chrono::duration<double>(injector.delaySeconds()));
        break;
      case FaultAction::PartialWrite: {
        const size_t cut = injector.partialLength(frame.size());
        if (cut > 0)
            sendAll(sock.fd(), frame.data(), cut,
                    config.requestTimeoutMs);
        ++clientStats.framesSent;
        // Tear the connection so the server sees a mid-frame EOF --
        // the classic torn write.
        disconnect();
        throw SocketError("injected partial write");
      }
      case FaultAction::Reset: {
        // Connection reset mid-frame: like a torn write, but modelling
        // the peer/network killing an established connection (RST).
        const size_t cut = injector.partialLength(frame.size());
        if (cut > 0)
            sendAll(sock.fd(), frame.data(), cut,
                    config.requestTimeoutMs);
        ++clientStats.framesSent;
        disconnect();
        throw SocketError("injected connection reset");
      }
      case FaultAction::Blackhole:
        // Partition: the frame vanishes but the connection stays "up";
        // the exchange times out against a live socket and subsequent
        // frames keep vanishing until the partition ends.
        ++clientStats.framesSent;
        return;
      case FaultAction::Deliver:
        break;
    }
    sendAll(sock.fd(), frame.data(), frame.size(),
            config.requestTimeoutMs);
    ++clientStats.framesSent;
}

Frame
Client::awaitFrame(int hold_ms)
{
    const Clock::time_point deadline = wallNow() +
        std::chrono::milliseconds(config.requestTimeoutMs + hold_ms);
    Frame frame;
    for (;;) {
        if (decoder.next(&frame)) {
            ++clientStats.framesReceived;
            return frame;
        }
        if (wallNow() >= deadline) {
            ++clientStats.timeouts;
            throw SocketError("request timed out");
        }
        uint8_t buf[4096];
        const size_t n =
            recvSome(sock.fd(), buf, sizeof(buf), remainingMs(deadline));
        if (n == 0)
            throw SocketError("server closed the connection");
        decoder.feed(buf, n);
    }
}

JobOutcome
Client::runJob(const JobSpec &spec,
               const std::function<void(JobState)> &on_progress)
{
    const uint64_t id = spec.jobId();
    int attempt = 0;
    std::string last_error = "no attempt made";
    for (;;) {
        try {
            ensureConnected();
            transmit(makeSubmit(spec));
            int hold_ms = 0;
            for (;;) {
                const Frame reply = awaitFrame(hold_ms);
                WireReader r(reply.payload);
                switch (static_cast<MsgType>(reply.type)) {
                  case MsgType::JobResult: {
                    const uint64_t got_id = r.u64();
                    std::vector<uint8_t> result_bytes = r.bytes();
                    r.expectEnd();
                    if (got_id != id)
                        throw ProtocolError(
                            "result for wrong job id");
                    JobOutcome outcome;
                    outcome.jobId = id;
                    WireReader rr(result_bytes);
                    outcome.result = decodeResult(rr);
                    rr.expectEnd();
                    outcome.resultBytes = std::move(result_bytes);
                    return outcome;
                  }
                  case MsgType::JobError: {
                    const uint64_t got_id = r.u64();
                    const JobState state = decodeJobState(r);
                    const std::string message = r.str();
                    r.expectEnd();
                    (void)got_id;
                    // The job itself failed or expired: terminal, not
                    // a transport fault.  Retrying would re-run a cell
                    // the server already judged.
                    const bool expired = state == JobState::Expired;
                    throw ClientError(
                        "job " + spec.cellKey() +
                            (expired ? " expired on server: "
                                     : " failed on server: ") +
                            message,
                        expired ? ClientError::Kind::DeadlineExpired
                                : ClientError::Kind::JobFailed);
                  }
                  case MsgType::Submitted: {
                    const uint64_t got_id = r.u64();
                    const JobState state = decodeJobState(r);
                    r.expectEnd();
                    (void)got_id;
                    if (on_progress)
                        on_progress(state);
                    // No client-side sleep: the server holds the poll
                    // until the state moves or pollIntervalMs runs out,
                    // so the reply may legitimately take that long on
                    // top of the exchange budget.
                    hold_ms = std::max(0, config.pollIntervalMs);
                    transmit(makePoll(id, static_cast<uint32_t>(hold_ms)));
                    continue;
                  }
                  case MsgType::Error: {
                    const std::string message = r.str();
                    ++clientStats.serverErrors;
                    // Server-side rejection (draining, or a frame of
                    // ours it could not parse -- likely one we
                    // corrupted): transient.
                    throw SocketError("server error: " + message);
                  }
                  default:
                    throw ProtocolError(
                        "unexpected reply frame type " +
                        std::to_string(reply.type));
                }
            }
        } catch (const ClientError &) {
            throw;
        } catch (const std::exception &e) {
            last_error = e.what();
            disconnect();
        }
        ++attempt;
        if (attempt > config.retry.maxRetries)
            throw ClientError(
                "job " + spec.cellKey() + " abandoned after " +
                std::to_string(config.retry.maxRetries) +
                " retries; last error: " + last_error);
        ++clientStats.retries;
        const double pause_ms =
            config.retry.backoffMs(attempt, &jitterRng);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(pause_ms));
    }
}

bool
Client::ping()
{
    try {
        ensureConnected();
        transmit(makePing());
        const Frame reply = awaitFrame();
        if (reply.type != static_cast<uint8_t>(MsgType::Pong))
            return false;
        WireReader r(reply.payload);
        r.expectEnd();
        return true;
    } catch (const ClientError &e) {
        disconnect();
        // A rejected session is a terminal verdict about credentials,
        // not an unreachable server; callers must see the difference.
        if (e.kind == ClientError::Kind::Rejected)
            throw;
        return false;
    } catch (const std::exception &) {
        disconnect();
        return false;
    }
}

uint32_t
Client::drain()
{
    int attempt = 0;
    std::string last_error = "no attempt made";
    for (;;) {
        try {
            ensureConnected();
            transmit(makeDrain());
            const Frame reply = awaitFrame();
            if (reply.type != static_cast<uint8_t>(MsgType::DrainOk))
                throw ProtocolError("unexpected reply frame type " +
                                    std::to_string(reply.type));
            WireReader r(reply.payload);
            const uint32_t in_flight = r.u32();
            r.expectEnd();
            return in_flight;
        } catch (const ClientError &) {
            throw;
        } catch (const std::exception &e) {
            last_error = e.what();
            disconnect();
        }
        ++attempt;
        if (attempt > config.retry.maxRetries)
            throw ClientError("drain abandoned after " +
                              std::to_string(config.retry.maxRetries) +
                              " retries; last error: " + last_error);
        ++clientStats.retries;
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(
                config.retry.backoffMs(attempt, &jitterRng)));
    }
}

} // namespace net
} // namespace react
