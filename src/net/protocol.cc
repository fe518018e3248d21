#include "protocol.hh"

#include "harness/parallel_runner.hh"
#include "net/frame.hh"

namespace react {
namespace net {

namespace {

/** Base seed folded into job ids so they are not confusable with cell
 *  seeds or snapshot digests ("RCTD" as a 32-bit tag). */
constexpr uint64_t kJobIdBase = 0x52435444u;

/** Canonical identity encoding: every field except the deadline, in
 *  fixed order.  Changing this breaks cross-version idempotency, so it
 *  is spelled out separately from encode(). */
std::vector<uint8_t>
identityBytes(const JobSpec &spec)
{
    WireWriter w;
    w.u8(static_cast<uint8_t>(spec.bench));
    w.u8(static_cast<uint8_t>(spec.trace));
    w.u8(static_cast<uint8_t>(spec.buffer));
    w.u64(spec.baseSeed);
    w.f64(spec.dt);
    w.f64(spec.drainAllowance);
    w.f64(spec.settleTime);
    w.b(spec.stopAfterLatency);
    return w.take();
}

std::vector<uint8_t>
frameOf(MsgType type, WireWriter &w)
{
    return encodeFrame(static_cast<uint8_t>(type), w.data());
}

std::vector<uint8_t>
emptyFrame(MsgType type)
{
    return encodeFrame(static_cast<uint8_t>(type), {});
}

} // namespace

JobState
decodeJobState(WireReader &r)
{
    const uint8_t raw = r.u8();
    switch (static_cast<JobState>(raw)) {
      case JobState::Queued:
      case JobState::Running:
      case JobState::Done:
      case JobState::Expired:
      case JobState::Failed:
        return static_cast<JobState>(raw);
    }
    throw ProtocolError("job state byte " + std::to_string(raw) +
                        " out of range");
}

std::string
JobSpec::cellKey() const
{
    return harness::gridCellKey(bench, trace, buffer);
}

uint64_t
JobSpec::jobId() const
{
    const std::vector<uint8_t> id = identityBytes(*this);
    return harness::cellSeed(
        kJobIdBase,
        std::string_view(reinterpret_cast<const char *>(id.data()),
                         id.size()));
}

void
JobSpec::encode(WireWriter &w) const
{
    w.u8(static_cast<uint8_t>(bench));
    w.u8(static_cast<uint8_t>(trace));
    w.u8(static_cast<uint8_t>(buffer));
    w.u64(baseSeed);
    w.f64(dt);
    w.f64(drainAllowance);
    w.f64(settleTime);
    w.b(stopAfterLatency);
    w.f64(deadlineSeconds);
}

JobSpec
JobSpec::decode(WireReader &r)
{
    JobSpec spec;
    const uint8_t bench_idx = r.u8();
    const uint8_t trace_idx = r.u8();
    const uint8_t buffer_idx = r.u8();
    if (bench_idx >= harness::kAllBenchmarks.size())
        throw ProtocolError("benchmark index out of range");
    if (trace_idx >= trace::kAllPaperTraces.size())
        throw ProtocolError("trace index out of range");
    if (buffer_idx >= harness::kAllBuffers.size())
        throw ProtocolError("buffer index out of range");
    spec.bench = harness::kAllBenchmarks[bench_idx];
    spec.trace = trace::kAllPaperTraces[trace_idx];
    spec.buffer = harness::kAllBuffers[buffer_idx];
    spec.baseSeed = r.u64();
    spec.dt = r.f64();
    spec.drainAllowance = r.f64();
    spec.settleTime = r.f64();
    spec.stopAfterLatency = r.b();
    spec.deadlineSeconds = r.f64();
    if (!(spec.dt > 0.0) || !(spec.drainAllowance >= 0.0) ||
        !(spec.settleTime >= 0.0) || !(spec.deadlineSeconds >= 0.0))
        throw ProtocolError("job spec has non-positive timing fields");
    return spec;
}

harness::ExperimentConfig
JobSpec::toConfig() const
{
    harness::ExperimentConfig config;
    config.dt = dt;
    config.drainAllowance = drainAllowance;
    config.settleTime = settleTime;
    config.stopAfterLatency = stopAfterLatency;
    return config;
}

void
encodeResult(WireWriter &w, const harness::ExperimentResult &res)
{
    res.encodeMetrics(w);
    w.i64(res.banksRetired);
    w.i64(res.framRecoveries);
    w.b(res.halted);
    w.u32(res.stateDigest);
}

harness::ExperimentResult
decodeResult(WireReader &r)
{
    harness::ExperimentResult res;
    res.decodeMetrics(r);
    res.banksRetired = static_cast<int>(r.i64());
    res.framRecoveries = static_cast<int>(r.i64());
    res.halted = r.b();
    res.stateDigest = r.u32();
    return res;
}

std::vector<uint8_t>
makeHello()
{
    WireWriter w;
    w.u32(kProtocolVersion);
    return frameOf(MsgType::Hello, w);
}

std::vector<uint8_t>
makeHelloOk()
{
    WireWriter w;
    w.u32(kProtocolVersion);
    return frameOf(MsgType::HelloOk, w);
}

std::vector<uint8_t>
makeSubmit(const JobSpec &spec)
{
    WireWriter w;
    spec.encode(w);
    return frameOf(MsgType::Submit, w);
}

std::vector<uint8_t>
makeSubmitted(uint64_t job_id, JobState state)
{
    WireWriter w;
    w.u64(job_id);
    w.u8(static_cast<uint8_t>(state));
    return frameOf(MsgType::Submitted, w);
}

std::vector<uint8_t>
makePoll(uint64_t job_id, uint32_t wait_ms)
{
    WireWriter w;
    w.u64(job_id);
    w.u32(wait_ms);
    return frameOf(MsgType::Poll, w);
}

std::vector<uint8_t>
makeJobResult(uint64_t job_id, const std::vector<uint8_t> &result_bytes)
{
    WireWriter w;
    w.u64(job_id);
    w.bytes(result_bytes);
    return frameOf(MsgType::JobResult, w);
}

std::vector<uint8_t>
makeJobError(uint64_t job_id, JobState state, const std::string &message)
{
    WireWriter w;
    w.u64(job_id);
    w.u8(static_cast<uint8_t>(state));
    w.str(message);
    return frameOf(MsgType::JobError, w);
}

std::vector<uint8_t>
makePing()
{
    return emptyFrame(MsgType::Ping);
}

std::vector<uint8_t>
makePong()
{
    return emptyFrame(MsgType::Pong);
}

std::vector<uint8_t>
makeDrain()
{
    return emptyFrame(MsgType::Drain);
}

std::vector<uint8_t>
makeDrainOk(uint32_t jobs_in_flight)
{
    WireWriter w;
    w.u32(jobs_in_flight);
    return frameOf(MsgType::DrainOk, w);
}

std::vector<uint8_t>
makeError(const std::string &message)
{
    WireWriter w;
    w.str(message);
    return frameOf(MsgType::Error, w);
}

std::vector<uint8_t>
makeAuthChallenge(const uint8_t *nonce, size_t size)
{
    WireWriter w;
    w.bytes(std::vector<uint8_t>(nonce, nonce + size));
    return frameOf(MsgType::AuthChallenge, w);
}

std::vector<uint8_t>
makeAuthResponse(const uint8_t *mac, size_t size)
{
    WireWriter w;
    w.bytes(std::vector<uint8_t>(mac, mac + size));
    return frameOf(MsgType::AuthResponse, w);
}

std::vector<uint8_t>
makeAuthReject(const std::string &reason)
{
    WireWriter w;
    w.str(reason);
    return frameOf(MsgType::AuthReject, w);
}

} // namespace net
} // namespace react
