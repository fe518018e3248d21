#include "server.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "harness/grid.hh"
#include "harness/parallel_runner.hh"
#include "net/auth.hh"
#include "net/endpoint.hh"
#include "net/frame.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "util/determinism.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace react {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Bytes the I/O thread reads from one connection per poll tick.  poll
 * is level-triggered, so the rest waits for the next tick: a peer that
 * sends valid frames faster than the server parses them cannot hold
 * the thread while other connections wait.
 */
constexpr size_t kMaxReadPerTick = 64 * 1024;

/**
 * The server's only sanctioned clock read.  Wall time feeds queue
 * deadlines and idle-timeout bookkeeping -- *whether* a job runs or a
 * silent peer is dropped, never *what* a job computes: result bytes
 * come from runGridCell on identity-derived seeds.
 */
Clock::time_point
wallNow()
{
    REACT_NONDET_OK("wall clock feeds deadlines/idle timeouts only, never result bytes");
    return Clock::now();
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

double
secondsSince(Clock::time_point t0, Clock::time_point now)
{
    return std::chrono::duration<double>(now - t0).count();
}

} // namespace

ServerConfig
ServerConfig::fromEnv()
{
    ServerConfig config;
    if (const auto v = env::stringVar("REACTD_ENDPOINT"))
        config.endpoint = *v;
    if (const auto v = env::intVar("REACTD_THREADS", 1, 1 << 16))
        config.threads = static_cast<int>(*v);
    if (const auto v = env::stringVar("REACTD_CHECKPOINT_DIR"))
        config.checkpointDir = *v;
    if (const auto v =
            env::u64Var("REACTD_CHECKPOINT_INTERVAL", 1, UINT64_MAX))
        config.checkpointIntervalSteps = *v;
    if (const auto v = env::intVar("REACTD_IDLE_TIMEOUT_MS", 1, 1 << 30))
        config.idleTimeoutMs = static_cast<int>(*v);
    if (const auto v = env::u64Var("REACTD_OUTBUF_MAX", 1024,
                                   1ull << 32))
        config.maxOutbufBytes = static_cast<size_t>(*v);
    if (const auto v = env::u64Var("REACTD_AUTH_SEED", 0, UINT64_MAX))
        config.authNonceSeed = *v;
    if (const auto key = loadFleetKey())
        config.fleetKey = *key;
    return config;
}

struct Server::Impl
{
    explicit Impl(const ServerConfig &config_in)
        : config(config_in), nonces(config_in.authNonceSeed)
    {
        // Created before any thread exists and never reassigned:
        // requestDrain() may wake() from any thread, even before serve().
        if (::pipe2(wakePipe, O_NONBLOCK | O_CLOEXEC) != 0)
            react_fatal("reactd: cannot create wake pipe");
    }

    ~Impl()
    {
        ::close(wakePipe[0]);
        ::close(wakePipe[1]);
    }

    Impl(const Impl &) = delete;
    Impl &operator=(const Impl &) = delete;

    ServerConfig config;
    ServerStats stats;
    NonceSource nonces;

    // ---- bound endpoint (boundLock) -------------------------------
    mutable std::mutex boundLock;
    std::string boundEp;

    // ---- job table (jobsLock) ------------------------------------
    struct Job
    {
        JobSpec spec;
        JobState state = JobState::Queued;
        std::vector<uint8_t> resultBytes;
        std::string errorMessage;
        Clock::time_point submittedAt;
    };
    std::mutex jobsLock;
    std::condition_variable jobsCv;
    std::unordered_map<uint64_t, Job> jobs;
    std::deque<uint64_t> pending;
    std::deque<uint64_t> doneOrder;
    /** Jobs currently Queued or Running, maintained at every lifecycle
     *  transition (under jobsLock).  DrainOk reports this count on the
     *  wire; deriving it by iterating the unordered job table would put
     *  bucket order one refactor away from the payload, which the
     *  determinism lint bans. */
    uint64_t inFlightJobs = 0;

    // ---- drain coordination --------------------------------------
    std::atomic<bool> draining{false};
    /** Workers still taking jobs; serve() returns once a drain has
     *  brought this to zero. */
    std::atomic<int> liveWorkers{0};
    /** Self-pipe: workers and requestDrain() wake the I/O loop. */
    int wakePipe[2] = {-1, -1};

    // ---- connections (I/O thread only) ---------------------------
    struct Connection
    {
        Socket sock;
        FrameDecoder decoder;
        std::vector<uint8_t> outbuf;
        size_t outCursor = 0;
        Clock::time_point lastActivity;
        bool closing = false;
        /** Session may submit/poll.  Starts true when no fleet key is
         *  configured (auth disabled); otherwise flipped only by a
         *  verified AuthResponse. */
        bool authenticated = false;
        /** An AuthChallenge was issued; nonce below is live. */
        bool challenged = false;
        AuthNonce nonce = {};
        /** The job state this connection was last told (Submitted
         *  replies only); a Poll is held while the job still has it. */
        bool reported = false;
        uint64_t reportedId = 0;
        JobState reportedState = JobState::Queued;
        /** A Poll for reportedId is held: it queues no outbuf bytes
         *  until the state changes, heldUntil passes, or the peer sends
         *  its next request. */
        bool holding = false;
        Clock::time_point heldUntil;
    };
    std::vector<std::unique_ptr<Connection>> connections;

    void wake()
    {
        const uint8_t byte = 1;
        // Best-effort: a full pipe already guarantees a pending wake.
        [[maybe_unused]] const ssize_t rc = ::write(wakePipe[1], &byte, 1);
    }

    // ---- workers (jobsLock held where noted) ----------------------
    void workerLoop();
    /** Run one job's cell and encode its result; throws on failure. */
    std::vector<uint8_t> runJob(uint64_t id, const JobSpec &spec) const;
    /** Queued -> Expired once the queue deadline lapsed (jobsLock). */
    bool expireIfLate(Job &job, uint64_t id, Clock::time_point now);
    void evictOverflow();

    // ---- protocol -------------------------------------------------
    void handleFrame(Connection *conn, const Frame &frame);
    /** Read a Hello's version; on a mismatch queue the typed error and
     *  close the connection.  @return true when the versions match. */
    bool acceptHello(Connection *conn, WireReader &r);
    /** Queue @p job (new, or revived from Expired) for @p spec, restart
     *  its deadline clock and answer Submitted(Queued) (jobsLock). */
    void enqueueJob(Connection *conn, uint64_t id, Job &job,
                    const JobSpec &spec);
    /** Queue Submitted(@p id, @p state) and remember what was told. */
    void sendSubmitted(Connection *conn, uint64_t id, JobState state);
    /** Answer a Poll for @p id with the job's current state
     *  (jobsLock). */
    void replyPoll(Connection *conn, uint64_t id, Clock::time_point now);
    /** Answer @p conn's held Poll now (jobsLock). */
    void releaseHold(Connection *conn, Clock::time_point now);
    /** Answer every held Poll whose job changed state or whose hold
     *  ran out (all of them when @p release_all); returns the nearest
     *  remaining hold deadline, or Clock::time_point::max(). */
    Clock::time_point answerHeldPolls(Clock::time_point now,
                                      bool release_all);
    void sendFrame(Connection *conn, const std::vector<uint8_t> &frame);
    void flushConnection(Connection *conn);
};

Server::Server(const ServerConfig &config_in)
    : impl(std::make_unique<Impl>(config_in))
{
}

Server::~Server() = default;

const ServerStats &
Server::stats() const
{
    return impl->stats;
}

const ServerConfig &
Server::config() const
{
    return impl->config;
}

std::string
Server::boundEndpoint() const
{
    std::lock_guard<std::mutex> g(impl->boundLock);
    return impl->boundEp;
}

void
Server::requestDrain()
{
    impl->draining.store(true, std::memory_order_release);
    impl->jobsCv.notify_all();
    impl->wake();
}

namespace {

REACT_NONDET_OK("signal-handler rendezvous pointer; drain timing only, not results");
std::atomic<Server *> signalTarget{nullptr};

void
onDrainSignal(int)
{
    // The atomic load and the pipe write inside requestDrain are
    // async-signal-safe; condition_variable::notify_all formally is
    // not, but every wait in the process is bounded by a timeout or
    // woken by the pipe, so the worst case is one period of latency.
    Server *server = signalTarget.load(std::memory_order_acquire);
    if (server != nullptr)
        server->requestDrain();
}

} // namespace

void
Server::installSignalHandlers(Server *server)
{
    signalTarget.store(server, std::memory_order_release);
    struct sigaction sa = {};
    sa.sa_handler = server != nullptr ? onDrainSignal : SIG_DFL;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
}

void
Server::Impl::evictOverflow()
{
    // Called with jobsLock held.  Oldest completed jobs leave first;
    // queued/running jobs are never evicted.
    while (jobs.size() > config.maxCachedResults && !doneOrder.empty()) {
        const uint64_t victim = doneOrder.front();
        doneOrder.pop_front();
        auto it = jobs.find(victim);
        if (it == jobs.end())
            continue;
        const JobState st = it->second.state;
        if (st == JobState::Done || st == JobState::Failed ||
            st == JobState::Expired) {
            jobs.erase(it);
            ++stats.cacheEvictions;
        }
    }
}

bool
Server::Impl::expireIfLate(Job &job, uint64_t id, Clock::time_point now)
{
    // Called with jobsLock held.  A job that waited out its queue budget
    // expires instead of burning a worker.
    if (job.state != JobState::Queued || job.spec.deadlineSeconds <= 0.0 ||
        secondsSince(job.submittedAt, now) <= job.spec.deadlineSeconds)
        return false;
    job.state = JobState::Expired;
    job.errorMessage = "deadline expired in queue";
    doneOrder.push_back(id);
    ++stats.jobsExpired;
    --inFlightJobs;
    return true;
}

std::vector<uint8_t>
Server::Impl::runJob(uint64_t id, const JobSpec &spec) const
{
    harness::ExperimentConfig cell_config = spec.toConfig();
    if (!config.checkpointDir.empty()) {
        // Snapshot named by cell key *and* job id: two specs sharing a
        // cell (different dt, say) must not fight over one snapshot file.
        char id_hex[20];
        std::snprintf(id_hex, sizeof(id_hex), "%016llx",
                      static_cast<unsigned long long>(id));
        cell_config.checkpointPath = config.checkpointDir + "/" +
            harness::checkpointFileName(spec.cellKey() + ":" + id_hex);
        cell_config.resume = true;
        cell_config.checkpointEverySteps = config.checkpointIntervalSteps;
    }
    const harness::ExperimentResult result = harness::runGridCell(
        spec.buffer, spec.bench, spec.trace, cell_config, spec.baseSeed);
    WireWriter w;
    encodeResult(w, result);
    return w.take();
}

void
Server::Impl::workerLoop()
{
    for (;;) {
        uint64_t id = 0;
        JobSpec spec;
        bool dispatched = false;
        {
            std::unique_lock<std::mutex> lk(jobsLock);
            // Bounded wait: a drain raised from a signal handler may
            // miss the notify (see onDrainSignal).
            jobsCv.wait_for(lk, std::chrono::milliseconds(200), [this] {
                return !pending.empty() ||
                    draining.load(std::memory_order_acquire);
            });
            // Drain: stop taking jobs; queued ones stay queued and a
            // resubmitting client picks them up after restart.
            if (draining.load(std::memory_order_acquire))
                break;
            if (pending.empty())
                continue;
            id = pending.front();
            pending.pop_front();
            auto it = jobs.find(id);
            // Stale entries (expired on poll, or revived and re-queued
            // while this one waited) are skipped.
            if (it == jobs.end() || it->second.state != JobState::Queued)
                continue;
            Job &job = it->second;
            if (!expireIfLate(job, id, wallNow())) {
                job.state = JobState::Running;
                spec = job.spec;
                dispatched = true;
            }
        }
        // Either transition (Running or Expired) may answer a held poll.
        wake();
        if (!dispatched)
            continue;

        std::vector<uint8_t> result_bytes;
        bool failed = false;
        std::string error;
        try {
            result_bytes = runJob(id, spec);
        } catch (const std::exception &e) {
            failed = true;
            error = e.what();
        }

        {
            std::lock_guard<std::mutex> g(jobsLock);
            auto it = jobs.find(id);
            if (it != jobs.end()) {
                Job &job = it->second;
                if (!failed) {
                    job.state = JobState::Done;
                    job.resultBytes = std::move(result_bytes);
                    ++stats.jobsExecuted;
                } else {
                    job.state = JobState::Failed;
                    job.errorMessage = error;
                    ++stats.jobsFailed;
                }
                doneOrder.push_back(id);
                --inFlightJobs;
                evictOverflow();
            }
        }
        wake();
    }
    liveWorkers.fetch_sub(1, std::memory_order_acq_rel);
    wake();
}

void
Server::Impl::sendFrame(Connection *conn, const std::vector<uint8_t> &frame)
{
    if (conn->closing)
        return;
    // Bounded reply queue: a peer that submits but never reads would
    // otherwise accumulate result frames here without limit.  The warn
    // is the only notification -- the peer cannot be told on a pipe it
    // is not draining.
    const size_t queued = conn->outbuf.size() - conn->outCursor;
    if (queued + frame.size() > config.maxOutbufBytes) {
        ++stats.outbufOverflows;
        react_warn("reactd: dropping connection: outbuf overflow "
                   "(%llu bytes queued + %llu pending > %llu cap)",
                   static_cast<unsigned long long>(queued),
                   static_cast<unsigned long long>(frame.size()),
                   static_cast<unsigned long long>(config.maxOutbufBytes));
        conn->closing = true;
        return;
    }
    conn->outbuf.insert(conn->outbuf.end(), frame.begin(), frame.end());
}

void
Server::Impl::flushConnection(Connection *conn)
{
    while (conn->outCursor < conn->outbuf.size()) {
        const ssize_t n = ::send(
            conn->sock.fd(), conn->outbuf.data() + conn->outCursor,
            conn->outbuf.size() - conn->outCursor, MSG_NOSIGNAL);
        if (n > 0) {
            conn->outCursor += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;  // poll for POLLOUT
        if (n < 0 && errno == EINTR)
            continue;
        conn->closing = true;  // peer reset
        return;
    }
    conn->outbuf.clear();
    conn->outCursor = 0;
}

bool
Server::Impl::acceptHello(Connection *conn, WireReader &r)
{
    const uint32_t version = r.u32();
    r.expectEnd();
    if (version == kProtocolVersion)
        return true;
    sendFrame(conn, makeError("protocol version mismatch: want " +
                              std::to_string(kProtocolVersion)));
    conn->closing = true;
    return false;
}

void
Server::Impl::enqueueJob(Connection *conn, uint64_t id, Job &job,
                         const JobSpec &spec)
{
    job.spec = spec;
    job.state = JobState::Queued;
    job.errorMessage.clear();
    job.submittedAt = wallNow();
    pending.push_back(id);
    ++inFlightJobs;
    ++stats.jobsSubmitted;
    jobsCv.notify_one();
    sendSubmitted(conn, id, JobState::Queued);
}

void
Server::Impl::sendSubmitted(Connection *conn, uint64_t id, JobState state)
{
    conn->reported = true;
    conn->reportedId = id;
    conn->reportedState = state;
    sendFrame(conn, makeSubmitted(id, state));
}

void
Server::Impl::replyPoll(Connection *conn, uint64_t id, Clock::time_point now)
{
    auto it = jobs.find(id);
    if (it == jobs.end()) {
        sendFrame(conn, makeJobError(id, JobState::Failed, "unknown job id"));
        return;
    }
    Job &job = it->second;
    expireIfLate(job, id, now);
    switch (job.state) {
      case JobState::Done:
        sendFrame(conn, makeJobResult(id, job.resultBytes));
        return;
      case JobState::Failed:
      case JobState::Expired:
        sendFrame(conn, makeJobError(id, job.state, job.errorMessage));
        return;
      default:
        sendSubmitted(conn, id, job.state);
        return;
    }
}

void
Server::Impl::releaseHold(Connection *conn, Clock::time_point now)
{
    conn->holding = false;
    // The reply is traffic: the idle clock restarts from it.
    conn->lastActivity = now;
    replyPoll(conn, conn->reportedId, now);
}

Clock::time_point
Server::Impl::answerHeldPolls(Clock::time_point now, bool release_all)
{
    Clock::time_point nearest = Clock::time_point::max();
    std::lock_guard<std::mutex> g(jobsLock);
    for (auto &c : connections) {
        Connection *conn = c.get();
        if (!conn->holding || conn->closing)
            continue;
        auto it = jobs.find(conn->reportedId);
        const bool changed =
            it == jobs.end() || it->second.state != conn->reportedState;
        if (release_all || changed || now >= conn->heldUntil) {
            releaseHold(conn, now);
        } else {
            nearest = std::min(nearest, conn->heldUntil);
        }
    }
    return nearest;
}

void
Server::Impl::handleFrame(Connection *conn, const Frame &frame)
{
    ++stats.framesReceived;
    WireReader r(frame.payload);
    // Auth gate: with a fleet key configured, the only frames an
    // unauthenticated peer may speak are the handshake itself.  Anything
    // else gets the typed reject and the connection is dropped -- a
    // scanner can neither submit jobs nor probe the job table.
    if (!conn->authenticated) {
        switch (static_cast<MsgType>(frame.type)) {
          case MsgType::Hello: {
            if (!acceptHello(conn, r))
                return;
            conn->nonce = nonces.next();
            conn->challenged = true;
            sendFrame(conn, makeAuthChallenge(conn->nonce.data(),
                                              conn->nonce.size()));
            return;
          }
          case MsgType::AuthResponse: {
            const std::vector<uint8_t> mac = r.bytes();
            r.expectEnd();
            if (!conn->challenged ||
                !verifyAuthProof(config.fleetKey, conn->nonce,
                                 mac.data(), mac.size())) {
                ++stats.authRejects;
                react_warn("reactd: auth reject (%s)",
                           conn->challenged ? "bad proof"
                                            : "response before challenge");
                sendFrame(conn, makeAuthReject("authentication failed"));
                conn->closing = true;
                return;
            }
            conn->authenticated = true;
            conn->challenged = false;
            sendFrame(conn, makeHelloOk());
            return;
          }
          default:
            ++stats.authRejects;
            react_warn("reactd: auth reject (frame type %u before "
                       "handshake)",
                       static_cast<unsigned>(frame.type));
            sendFrame(conn, makeAuthReject("not authenticated"));
            conn->closing = true;
            return;
        }
    }
    // Replies leave in request order: a new request first answers the
    // poll this connection holds.
    if (conn->holding) {
        std::lock_guard<std::mutex> g(jobsLock);
        releaseHold(conn, wallNow());
    }
    switch (static_cast<MsgType>(frame.type)) {
      case MsgType::Hello:
        if (acceptHello(conn, r))
            sendFrame(conn, makeHelloOk());
        return;
      case MsgType::Ping:
        r.expectEnd();
        sendFrame(conn, makePong());
        return;
      case MsgType::Drain: {
        r.expectEnd();
        uint32_t in_flight = 0;
        {
            std::lock_guard<std::mutex> g(jobsLock);
            in_flight = static_cast<uint32_t>(inFlightJobs);
        }
        sendFrame(conn, makeDrainOk(in_flight));
        // Defer the actual drain until the reply is queued; serve()
        // flushes before tearing down.
        draining.store(true, std::memory_order_release);
        jobsCv.notify_all();
        return;
      }
      case MsgType::Submit: {
        const JobSpec spec = JobSpec::decode(r);
        r.expectEnd();
        if (draining.load(std::memory_order_acquire)) {
            sendFrame(conn, makeError("server is draining"));
            return;
        }
        const uint64_t id = spec.jobId();
        std::lock_guard<std::mutex> g(jobsLock);
        const auto [it, fresh] = jobs.try_emplace(id);
        Job &job = it->second;
        if (fresh) {
            enqueueJob(conn, id, job, spec);
            return;
        }
        switch (job.state) {
          case JobState::Done:
            ++stats.cacheHits;
            sendFrame(conn, makeJobResult(id, job.resultBytes));
            return;
          case JobState::Failed:
            sendFrame(conn, makeJobError(id, JobState::Failed,
                                         job.errorMessage));
            return;
          case JobState::Expired:
            // A fresh submission restarts the deadline clock.
            enqueueJob(conn, id, job, spec);
            return;
          case JobState::Queued:
          case JobState::Running:
            // Idempotent retry: attach, don't duplicate.
            sendSubmitted(conn, id, job.state);
            return;
        }
        return;
      }
      case MsgType::Poll: {
        const uint64_t id = r.u64();
        const uint32_t wait_ms = r.u32();
        r.expectEnd();
        const Clock::time_point now = wallNow();
        std::lock_guard<std::mutex> g(jobsLock);
        auto it = jobs.find(id);
        if (it != jobs.end() && wait_ms > 0) {
            Job &job = it->second;
            expireIfLate(job, id, now);
            // Only Queued/Running are ever reported in Submitted, so an
            // unchanged state is an unfinished job.
            if (conn->reported && conn->reportedId == id &&
                conn->reportedState == job.state) {
                // Hold: the I/O loop answers on the next state change
                // or when the wait runs out, capped by the idle timeout
                // so a hold can never outlive the connection's budget.
                conn->holding = true;
                conn->heldUntil = now +
                    std::chrono::milliseconds(std::min<int64_t>(
                        wait_ms, config.idleTimeoutMs));
                return;
            }
        }
        replyPoll(conn, id, now);
        return;
      }
      default:
        throw ProtocolError("unexpected frame type " +
                            std::to_string(frame.type));
    }
}

int
Server::serve()
{
    Impl &s = *impl;
    const Endpoint endpoint = Endpoint::parseOrThrow(s.config.endpoint);
    Socket listener = listenOn(endpoint);
    setNonBlocking(listener.fd());

    Endpoint bound = endpoint;
    if (bound.kind == Endpoint::Kind::Tcp)
        bound.port = boundTcpPort(listener.fd());
    {
        std::lock_guard<std::mutex> g(s.boundLock);
        s.boundEp = bound.str();
    }

    const int nworkers = s.config.threads > 0
        ? s.config.threads
        : harness::ParallelRunner::defaultThreadCount();
    react_inform("reactd: serving on %s (%d worker threads%s%s)",
                 bound.str().c_str(), nworkers,
                 s.config.checkpointDir.empty() ? ""
                                                : ", checkpointing",
                 s.config.fleetKey.empty() ? "" : ", authenticated");

    s.liveWorkers.store(nworkers, std::memory_order_release);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(nworkers));
    for (int i = 0; i < nworkers; ++i)
        workers.emplace_back([&s] { s.workerLoop(); });

    bool listening = true;
    for (;;) {
        const bool drain_now = s.draining.load(std::memory_order_acquire);
        if (drain_now && listening) {
            listener.close();
            listening = false;
        }

        // Answer held polls whose job moved on or whose wait ran out
        // (their bytes raise POLLOUT below); the nearest remaining hold
        // bounds this tick's sleep.
        const Clock::time_point hold_deadline =
            s.answerHeldPolls(wallNow(), false);

        // Build the poll set: wake pipe, listener, every connection.
        std::vector<pollfd> pfds;
        pfds.reserve(s.connections.size() + 2);
        pollfd wake_pfd = {};
        wake_pfd.fd = s.wakePipe[0];
        wake_pfd.events = POLLIN;
        pfds.push_back(wake_pfd);
        if (listening) {
            pollfd lp = {};
            lp.fd = listener.fd();
            lp.events = POLLIN;
            pfds.push_back(lp);
        }
        const size_t conn_base = pfds.size();
        const size_t polled_conns = s.connections.size();
        for (const auto &conn : s.connections) {
            pollfd cp = {};
            cp.fd = conn->sock.fd();
            cp.events = POLLIN;
            if (conn->outCursor < conn->outbuf.size())
                cp.events = static_cast<short>(cp.events | POLLOUT);
            pfds.push_back(cp);
        }

        // Sleep until I/O, a worker's wake, or the nearest hold runs out.
        int timeout_ms = 250;
        if (hold_deadline != Clock::time_point::max()) {
            const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                hold_deadline - wallNow());
            timeout_ms = static_cast<int>(std::clamp<int64_t>(
                left.count(), 0, timeout_ms));
        }
        const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                              timeout_ms);
        if (rc < 0 && errno != EINTR)
            react_fatal("reactd: poll failed");

        // Drain the wake pipe.
        if (pfds[0].revents & POLLIN) {
            uint8_t sink[64];
            while (::read(s.wakePipe[0], sink, sizeof(sink)) > 0) {
            }
        }

        // Accept new connections.
        if (listening) {
            const pollfd &lp = pfds[1];
            if (lp.revents & POLLIN) {
                for (;;) {
                    Socket accepted = acceptOn(listener.fd());
                    if (!accepted.valid())
                        break;
                    setNonBlocking(accepted.fd());
                    auto conn = std::make_unique<Impl::Connection>();
                    conn->sock = std::move(accepted);
                    conn->lastActivity = wallNow();
                    // No key configured -> the auth gate is open.
                    conn->authenticated = s.config.fleetKey.empty();
                    s.connections.push_back(std::move(conn));
                    ++s.stats.connectionsAccepted;
                }
            }
        }

        // Service the connections that were in this tick's poll set
        // (ones accepted above wait for the next tick).
        const Clock::time_point now = wallNow();
        for (size_t i = 0; i < polled_conns; ++i) {
            Impl::Connection *conn = s.connections[i].get();
            const pollfd &cp = pfds[conn_base + i];

            if (cp.revents & (POLLERR | POLLHUP | POLLNVAL))
                conn->closing = true;

            if (!conn->closing && (cp.revents & POLLIN)) {
                conn->lastActivity = now;
                uint8_t buf[4096];
                size_t read_this_tick = 0;
                for (;;) {
                    const ssize_t n = ::recv(conn->sock.fd(), buf,
                                             sizeof(buf), MSG_DONTWAIT);
                    if (n > 0) {
                        try {
                            conn->decoder.feed(
                                buf, static_cast<size_t>(n));
                            Frame frame;
                            while (!conn->closing &&
                                   conn->decoder.next(&frame))
                                s.handleFrame(conn, frame);
                        } catch (const ProtocolError &e) {
                            // Malformed input: answer with a diagnostic
                            // and drop the connection; the stream
                            // position is no longer trustworthy.
                            ++s.stats.protocolErrors;
                            s.sendFrame(conn, makeError(e.what()));
                            conn->closing = true;
                            break;
                        }
                        // A connection dropped mid-read (outbuf
                        // overflow) is read no further, and a live one
                        // no further this tick once it has had its
                        // share: a peer that never stops sending would
                        // otherwise keep this loop, and the whole I/O
                        // thread, here forever.
                        read_this_tick += static_cast<size_t>(n);
                        if (conn->closing ||
                            read_this_tick >= kMaxReadPerTick)
                            break;
                        continue;
                    }
                    if (n == 0) {
                        // Orderly EOF; a partial frame here is the
                        // truncation failure mode -- log and drop.
                        if (conn->decoder.hasPartial()) {
                            ++s.stats.protocolErrors;
                            react_warn("reactd: peer closed mid-frame");
                        }
                        conn->closing = true;
                        break;
                    }
                    if (errno == EAGAIN || errno == EWOULDBLOCK)
                        break;
                    if (errno == EINTR)
                        continue;
                    conn->closing = true;
                    break;
                }
            }

            s.flushConnection(conn);

            // Idle timeout: a silent peer does not hold a slot forever.
            // A held poll is not silence; its hold is capped at the
            // idle timeout and the answer restarts the idle clock.
            if (!conn->closing && !conn->holding &&
                secondsSince(conn->lastActivity, now) * 1000.0 >
                    static_cast<double>(s.config.idleTimeoutMs)) {
                ++s.stats.idleDrops;
                conn->closing = true;
            }
        }

        // Reap closed connections (flush first if bytes remain and the
        // peer is still reading; best-effort on a closing connection).
        for (size_t i = 0; i < s.connections.size();) {
            Impl::Connection *conn = s.connections[i].get();
            if (conn->closing) {
                s.flushConnection(conn);
                ++s.stats.connectionsDropped;
                s.connections.erase(
                    s.connections.begin() + static_cast<long>(i));
            } else {
                ++i;
            }
        }

        if (drain_now &&
            s.liveWorkers.load(std::memory_order_acquire) == 0) {
            // No job changes state any more: answer every held poll,
            // then a final flush of queued replies (DrainOk in
            // particular).
            s.answerHeldPolls(wallNow(), true);
            for (auto &conn : s.connections)
                s.flushConnection(conn.get());
            break;
        }
    }

    for (auto &worker : workers)
        worker.join();
    s.connections.clear();
    if (endpoint.kind == Endpoint::Kind::Unix)
        ::unlink(endpoint.path.c_str());
    react_inform("reactd: drained cleanly (%llu jobs executed, %llu "
                 "cache hits, %llu protocol errors)",
                 static_cast<unsigned long long>(s.stats.jobsExecuted),
                 static_cast<unsigned long long>(s.stats.cacheHits),
                 static_cast<unsigned long long>(s.stats.protocolErrors));
    return 0;
}

} // namespace net
} // namespace react
