/**
 * @file
 * Serving-layer tests: wire codec shape-safety, frame hardening against
 * the snapshot damage ladder (truncation, bit-flips, length-lies, CRC
 * mismatch, oversize), job identity/idempotency, transport fault
 * injection, and a live client/server integration pass proving the
 * byte-identity contract: a result served over the wire -- including
 * through cache hits and an injected-fault transport -- equals a direct
 * runGridCell() byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/time.h>
#include <unistd.h>

#include "harness/grid.hh"
#include "harness/parallel_runner.hh"
#include "net/auth.hh"
#include "net/client.hh"
#include "net/endpoint.hh"
#include "net/fault_injector.hh"
#include "net/frame.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "snapshot/snapshot.hh"
#include "util/crc32.hh"
#include "util/hmac.hh"

namespace react {
namespace net {
namespace {

// ---------------------------------------------------------------------
// Byte codec: one suite, both readers.  RNET payloads and snapshot
// sections share util/byte_codec.hh and differ only in the width of a
// blob's length prefix, so every shape-safety property is checked
// against each.

enum class Codec
{
    RnetPayload,
    SnapshotSection,
};

class ByteCodecParamTest : public ::testing::TestWithParam<Codec>
{
  protected:
    /** Encode @p body as an RNET payload or as one snapshot section. */
    template <typename Body>
    std::vector<uint8_t> encode(Body body) const
    {
        if (GetParam() == Codec::RnetPayload) {
            WireWriter w;
            body(w);
            return w.take();
        }
        snapshot::SnapshotWriter w;
        w.beginSection("codec");
        body(w);
        w.endSection();
        return w.finish();
    }

    /** A reader positioned at the first byte @p body wrote. */
    std::unique_ptr<ByteReader> open(std::vector<uint8_t> bytes)
    {
        if (GetParam() == Codec::RnetPayload) {
            payload = std::move(bytes);
            return std::make_unique<WireReader>(payload);
        }
        auto r = std::make_unique<snapshot::SnapshotReader>(std::move(bytes));
        r->beginSection("codec");
        return r;
    }

    /** The largest blob length this codec's prefix can declare. */
    void writeMaxBlobLength(ByteWriter &w) const
    {
        if (GetParam() == Codec::RnetPayload)
            w.u32(UINT32_MAX);
        else
            w.u64(UINT64_MAX);
    }

  private:
    std::vector<uint8_t> payload;
};

TEST_P(ByteCodecParamTest, PrimitivesRoundTripBitExactly)
{
    auto r = open(encode([](ByteWriter &w) {
        w.u8(0xab);
        w.b(true);
        w.u32(0xdeadbeef);
        w.u64(0x0123456789abcdefull);
        w.i64(-42);
        w.f64(0.1);
        w.f64(-0.0);
        w.str("hello \x01 world");
        w.bytes({1, 2, 3});
    }));
    EXPECT_EQ(r->u8(), 0xab);
    EXPECT_TRUE(r->b());
    EXPECT_EQ(r->u32(), 0xdeadbeefu);
    EXPECT_EQ(r->u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r->i64(), -42);
    EXPECT_TRUE(r->f64() == 0.1);
    const double neg_zero = r->f64();
    EXPECT_TRUE(neg_zero == 0.0 && std::signbit(neg_zero));
    EXPECT_EQ(r->str(), "hello \x01 world");
    EXPECT_EQ(r->bytes(), (std::vector<uint8_t>{1, 2, 3}));
    EXPECT_NO_THROW(r->expectEnd());
}

TEST_P(ByteCodecParamTest, OverrunThrowsInsteadOfOverreading)
{
    auto r = open(encode([](ByteWriter &w) { w.u32(7); }));
    EXPECT_EQ(r->u32(), 7u);
    EXPECT_THROW(r->u8(), DecodeError);
}

TEST_P(ByteCodecParamTest, LengthLieLargerThanPayloadThrowsBeforeAllocating)
{
    // A string or blob declaring ~4 GiB inside a 12-byte input must be
    // rejected by comparing against remaining(), not by allocating.
    const auto lie = encode([](ByteWriter &w) {
        w.u32(0xfffffff0u);  // declared length
        w.u64(0);            // 8 bytes of "content"
    });
    EXPECT_THROW(open(lie)->str(), DecodeError);
    EXPECT_THROW(open(lie)->bytes(), DecodeError);

    // The widest length the prefix can hold must not wrap the bounds
    // check into a huge allocation (std::length_error / bad_alloc).
    const auto wrap = encode([this](ByteWriter &w) {
        writeMaxBlobLength(w);
        w.u64(0);
    });
    EXPECT_THROW(open(wrap)->bytes(), DecodeError);
}

TEST_P(ByteCodecParamTest, ExpectEndRejectsTrailingBytes)
{
    auto r = open(encode([](ByteWriter &w) {
        w.u8(1);
        w.u8(2);
    }));
    r->u8();
    EXPECT_THROW(r->expectEnd(), DecodeError);
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, ByteCodecParamTest,
    ::testing::Values(Codec::RnetPayload, Codec::SnapshotSection),
    [](const ::testing::TestParamInfo<Codec> &info) {
        return info.param == Codec::RnetPayload ? "RnetPayload"
                                                : "SnapshotSection";
    });

// ---------------------------------------------------------------------
// Framing: the damage ladder

std::vector<uint8_t>
sampleFrame()
{
    WireWriter w;
    w.u64(0x1122334455667788ull);
    w.str("payload");
    return encodeFrame(7, w.data());
}

TEST(Frame, RoundTripsWholeAndByteAtATime)
{
    const std::vector<uint8_t> bytes = sampleFrame();

    FrameDecoder whole;
    whole.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_TRUE(whole.next(&frame));
    EXPECT_EQ(frame.type, 7);
    EXPECT_FALSE(whole.next(&frame));
    EXPECT_FALSE(whole.hasPartial());

    FrameDecoder dribble;
    Frame got;
    size_t frames = 0;
    for (const uint8_t byte : bytes) {
        dribble.feed(&byte, 1);
        while (dribble.next(&got))
            ++frames;
    }
    ASSERT_EQ(frames, 1u);
    EXPECT_EQ(got.type, 7);
    EXPECT_EQ(got.payload, frame.payload);
}

TEST(Frame, BackToBackFramesDecodeIndependently)
{
    const std::vector<uint8_t> a = sampleFrame();
    const std::vector<uint8_t> b = encodeFrame(9, {});
    std::vector<uint8_t> stream = a;
    stream.insert(stream.end(), b.begin(), b.end());

    FrameDecoder decoder;
    decoder.feed(stream.data(), stream.size());
    Frame frame;
    ASSERT_TRUE(decoder.next(&frame));
    EXPECT_EQ(frame.type, 7);
    ASSERT_TRUE(decoder.next(&frame));
    EXPECT_EQ(frame.type, 9);
    EXPECT_TRUE(frame.payload.empty());
    EXPECT_EQ(decoder.framesDecoded(), 2u);
}

TEST(Frame, TruncationAtEveryPrefixYieldsNoFrameAndNoCrash)
{
    const std::vector<uint8_t> bytes = sampleFrame();
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        FrameDecoder decoder;
        Frame frame;
        ASSERT_NO_THROW(decoder.feed(bytes.data(), cut))
            << "prefix of " << cut;
        EXPECT_FALSE(decoder.next(&frame)) << "prefix of " << cut;
        EXPECT_EQ(decoder.hasPartial(), cut > 0) << "prefix of " << cut;
    }
}

TEST(Frame, EverySingleBitFlipIsRejectedNeverMisdecoded)
{
    const std::vector<uint8_t> bytes = sampleFrame();
    for (size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> flipped = bytes;
            flipped[byte] ^= static_cast<uint8_t>(1u << bit);
            FrameDecoder decoder;
            Frame frame;
            bool yielded = false;
            try {
                decoder.feed(flipped.data(), flipped.size());
                yielded = decoder.next(&frame);
            } catch (const ProtocolError &) {
                EXPECT_TRUE(decoder.isPoisoned());
            }
            // CRC-32 detects every single-bit error; a flip in the
            // length field may instead leave the decoder waiting for
            // bytes that never come.  What must NEVER happen is a
            // decoded frame.
            EXPECT_FALSE(yielded)
                << "bit " << bit << " of byte " << byte;
        }
    }
}

TEST(Frame, LengthLiesBothDirectionsAreCleanErrors)
{
    // Declared short: CRC is computed over the wrong span -> mismatch.
    std::vector<uint8_t> shorter = sampleFrame();
    shorter[5] = static_cast<uint8_t>(shorter[5] - 1);
    FrameDecoder decoder_short;
    Frame frame;
    try {
        decoder_short.feed(shorter.data(), shorter.size());
        EXPECT_FALSE(decoder_short.next(&frame));
    } catch (const ProtocolError &) {
        EXPECT_TRUE(decoder_short.isPoisoned());
    }

    // Declared long: the decoder waits for the phantom bytes (no frame
    // surfaces); when the peer hangs up, hasPartial() exposes the lie.
    std::vector<uint8_t> longer = sampleFrame();
    longer[5] = static_cast<uint8_t>(longer[5] + 1);
    FrameDecoder decoder_long;
    ASSERT_NO_THROW(decoder_long.feed(longer.data(), longer.size()));
    EXPECT_FALSE(decoder_long.next(&frame));
    EXPECT_TRUE(decoder_long.hasPartial());
}

TEST(Frame, CrcMismatchPoisonsTheDecoder)
{
    std::vector<uint8_t> bytes = sampleFrame();
    bytes.back() ^= 0xff;
    FrameDecoder decoder;
    Frame frame;
    decoder.feed(bytes.data(), bytes.size());
    EXPECT_THROW(decoder.next(&frame), ProtocolError);
    EXPECT_TRUE(decoder.isPoisoned());
    // A poisoned decoder refuses further use rather than resynchronize
    // on untrustworthy bytes.
    const uint8_t more = 0;
    EXPECT_THROW(decoder.feed(&more, 1), ProtocolError);
}

TEST(Frame, OversizedDeclaredLengthRejectedBeforeBuffering)
{
    // Header declaring a 3 GiB payload: rejected as soon as the header
    // is complete, long before any such allocation could be attempted.
    std::vector<uint8_t> header(kFrameHeaderSize);
    header[0] = 'R';
    header[1] = 'N';
    header[2] = 'E';
    header[3] = 'T';
    header[4] = 1;
    const uint32_t huge = 3u << 30;
    for (int i = 0; i < 4; ++i)
        header[5 + static_cast<size_t>(i)] =
            static_cast<uint8_t>(huge >> (8 * i));
    FrameDecoder decoder;
    EXPECT_THROW(decoder.feed(header.data(), header.size()),
                 ProtocolError);
    EXPECT_TRUE(decoder.isPoisoned());
}

TEST(Frame, BadMagicRejectedAtFourBytes)
{
    const uint8_t garbage[] = {'H', 'T', 'T', 'P'};
    FrameDecoder decoder;
    EXPECT_THROW(decoder.feed(garbage, sizeof(garbage)), ProtocolError);
}

TEST(Frame, EncodeRejectsOversizedPayload)
{
    std::vector<uint8_t> payload(kMaxPayload + 1);
    EXPECT_THROW(encodeFrame(1, payload), ProtocolError);
}

// ---------------------------------------------------------------------
// Protocol: job identity and codecs

TEST(JobSpec, CodecRoundTrips)
{
    JobSpec spec;
    spec.bench = harness::BenchmarkKind::RadioTransmit;
    spec.trace = trace::PaperTrace::SolarCampus;
    spec.buffer = harness::BufferKind::Morphy;
    spec.baseSeed = 1234;
    spec.dt = 5e-4;
    spec.deadlineSeconds = 9.5;

    WireWriter w;
    spec.encode(w);
    WireReader r(w.data());
    const JobSpec back = JobSpec::decode(r);
    EXPECT_NO_THROW(r.expectEnd());
    EXPECT_EQ(back.bench, spec.bench);
    EXPECT_EQ(back.trace, spec.trace);
    EXPECT_EQ(back.buffer, spec.buffer);
    EXPECT_EQ(back.baseSeed, spec.baseSeed);
    EXPECT_TRUE(back.dt == spec.dt);
    EXPECT_TRUE(back.deadlineSeconds == spec.deadlineSeconds);
    EXPECT_EQ(back.jobId(), spec.jobId());
}

TEST(JobSpec, DecodeRejectsOutOfRangeEnumsAndBadTiming)
{
    JobSpec spec;
    {
        WireWriter w;
        spec.encode(w);
        std::vector<uint8_t> bytes = w.take();
        bytes[0] = 200;  // benchmark index
        WireReader r(bytes);
        EXPECT_THROW(JobSpec::decode(r), ProtocolError);
    }
    {
        JobSpec bad = spec;
        bad.dt = 0.0;
        WireWriter w;
        bad.encode(w);
        WireReader r(w.data());
        EXPECT_THROW(JobSpec::decode(r), ProtocolError);
    }
}

TEST(JobSpec, JobIdIsStableAndDeadlineIndependent)
{
    JobSpec a;
    JobSpec b;
    EXPECT_EQ(a.jobId(), b.jobId());

    // Retrying with a different queue-wait budget targets the SAME job:
    // the deadline is an operational knob, not part of the work's
    // identity.
    b.deadlineSeconds = 123.0;
    EXPECT_EQ(a.jobId(), b.jobId());

    // Anything that changes the computed result changes the id.
    JobSpec other_seed = a;
    other_seed.baseSeed = 43;
    EXPECT_NE(a.jobId(), other_seed.jobId());
    JobSpec other_cell = a;
    other_cell.buffer = harness::BufferKind::Morphy;
    EXPECT_NE(a.jobId(), other_cell.jobId());
    JobSpec other_dt = a;
    other_dt.dt = 2e-3;
    EXPECT_NE(a.jobId(), other_dt.jobId());
}

TEST(Protocol, ResultCodecRoundTripsEveryField)
{
    harness::ExperimentResult res;
    res.bufferName = "REACT";
    res.benchmarkName = "DE";
    res.traceName = "RF Cart";
    res.latency = 11.25;
    res.onTime = 100.5;
    res.totalTime = 333.25;
    res.steps = 123456;
    res.powerCycles = 48;
    res.workUnits = 1037;
    res.packetsRx = 5;
    res.packetsTx = 6;
    res.failedOps = 7;
    res.missedEvents = 8;
    res.ledger.harvested = units::Joules(1.0625);
    res.ledger.delivered = units::Joules(0.5);
    res.residualEnergy = 0.125;
    res.conservationError = -1e-12;
    res.faultEvents = 3;
    res.recoveryEvents = 2;
    res.banksRetired = 1;
    res.framRecoveries = 4;
    res.halted = true;
    res.stateDigest = 0xfad1959b;

    WireWriter w;
    encodeResult(w, res);
    // Captured at commit d8a811f: the v4 result layout must not move.
    EXPECT_EQ(crc32(w.data().data(), w.data().size()), 0x937341aeu);
    WireReader r(w.data());
    const harness::ExperimentResult back = decodeResult(r);
    EXPECT_NO_THROW(r.expectEnd());

    WireWriter w2;
    encodeResult(w2, back);
    // One encode-decode-encode cycle is the identity on the wire form.
    EXPECT_EQ(w.data(), w2.data());
    EXPECT_EQ(back.stateDigest, res.stateDigest);
    EXPECT_TRUE(back.latency == res.latency);
    EXPECT_TRUE(back.ledger.harvested.raw() ==
                res.ledger.harvested.raw());
}

// ---------------------------------------------------------------------
// Fault injection

TEST(FaultPlan, SpecParsingAcceptsAndRejects)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::fromSpec(
        "drop=0.05,corrupt=0.1,delay=0.2,delayms=25,partial=0.02,seed=7",
        &plan, &error));
    EXPECT_EQ(plan.dropRate, 0.05);
    EXPECT_EQ(plan.corruptRate, 0.1);
    EXPECT_EQ(plan.delayMs, 25.0);
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_TRUE(plan.enabled());

    ASSERT_TRUE(FaultPlan::fromSpec("", &plan, &error));
    EXPECT_FALSE(plan.enabled());

    EXPECT_FALSE(FaultPlan::fromSpec("drop=1.5", &plan, &error));
    EXPECT_NE(error.find("[0, 1]"), std::string::npos);
    EXPECT_FALSE(FaultPlan::fromSpec("bogus=1", &plan, &error));
    EXPECT_FALSE(FaultPlan::fromSpec("drop", &plan, &error));
    EXPECT_FALSE(FaultPlan::fromSpec("drop=abc", &plan, &error));
}

TEST(FaultInjector, ScheduleIsSeededAndDeterministic)
{
    FaultPlan plan;
    plan.dropRate = 0.2;
    plan.corruptRate = 0.2;
    plan.delayRate = 0.1;
    plan.partialRate = 0.1;
    plan.seed = 99;

    FaultInjector a(plan), b(plan);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(static_cast<int>(a.nextAction()),
                  static_cast<int>(b.nextAction()))
            << "frame " << i;
    EXPECT_GT(a.counters().injected(), 0u);
    EXPECT_GT(a.counters().delivered, 0u);
    EXPECT_EQ(a.counters().injected(), b.counters().injected());
}

TEST(FaultInjector, DisabledPlanIsTransparent)
{
    FaultInjector injector(FaultPlan::none());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(static_cast<int>(injector.nextAction()),
                  static_cast<int>(FaultAction::Deliver));
    EXPECT_EQ(injector.counters().injected(), 0u);
}

TEST(FaultInjector, CorruptFlipsExactlyOneBit)
{
    FaultPlan plan;
    plan.corruptRate = 1.0;
    FaultInjector injector(plan);
    std::vector<uint8_t> frame = sampleFrame();
    const std::vector<uint8_t> original = frame;
    injector.corruptInPlace(&frame);
    int differing_bits = 0;
    for (size_t i = 0; i < frame.size(); ++i)
        differing_bits +=
            __builtin_popcount(frame[i] ^ original[i]);
    EXPECT_EQ(differing_bits, 1);
}

// ---------------------------------------------------------------------
// Live client/server integration

class NetIntegration : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        harness::ParallelRunner::clearStopRequest();
        config.endpoint =
            (std::filesystem::temp_directory_path() /
             ("react_test_net." + std::to_string(::getpid()) + ".sock"))
                .string();
        config.threads = workers;
        server = std::make_unique<Server>(config);
        server_thread = std::thread([this] {
            exit_status = server->serve();
        });
        // Wait for the listener to come up.
        ClientConfig probe;
        probe.endpoint = config.endpoint;
        probe.requestTimeoutMs = 2000;
        Client pinger(probe);
        for (int i = 0; i < 200 && !pinger.ping(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    void TearDown() override
    {
        if (server_thread.joinable()) {
            server->requestDrain();
            server_thread.join();
        }
        harness::ParallelRunner::clearStopRequest();
        std::filesystem::remove(config.endpoint);
    }

    ClientConfig clientConfig() const
    {
        ClientConfig c;
        c.endpoint = config.endpoint;
        c.requestTimeoutMs = 120000;
        return c;
    }

    /** Server job workers; subclasses raise it before SetUp. */
    int workers = 1;
    ServerConfig config;
    std::unique_ptr<Server> server;
    std::thread server_thread;
    int exit_status = -1;
};

class NetIntegrationTwoWorkers : public NetIntegration
{
  protected:
    NetIntegrationTwoWorkers() { workers = 2; }
};

class NetIntegrationShortIdle : public NetIntegration
{
  protected:
    NetIntegrationShortIdle() { config.idleTimeoutMs = 500; }
};

JobSpec
quickSpec()
{
    // DE on the RF-cart trace completes in well under a second and
    // exercises the full engine.
    JobSpec spec;
    spec.bench = harness::BenchmarkKind::DataEncryption;
    spec.trace = trace::PaperTrace::RfCart;
    spec.buffer = harness::BufferKind::React;
    return spec;
}

/** A long grid cell (~1 s: RT on Sol. Comm. with Morphy).  Tests
 *  occupy a worker with it instead of sleeping. */
JobSpec
longSpec()
{
    JobSpec spec;
    spec.bench = harness::BenchmarkKind::RadioTransmit;
    spec.trace = trace::PaperTrace::SolarCommute;
    spec.buffer = harness::BufferKind::Morphy;
    return spec;
}

/**
 * One job driven on its own client and thread.  waitRunning() blocks
 * until the server reports the job Running, i.e. until a worker is
 * busy with it.
 */
class BackgroundJob
{
  public:
    BackgroundJob(const ClientConfig &config, const JobSpec &spec)
        : client(config), thread([this, spec] { run(spec); })
    {
    }

    ~BackgroundJob()
    {
        if (thread.joinable())
            thread.join();
    }

    BackgroundJob(const BackgroundJob &) = delete;
    BackgroundJob &operator=(const BackgroundJob &) = delete;

    /** @return false if the job ended without ever reporting Running. */
    bool waitRunning()
    {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [this] { return running || finished; });
        return running;
    }

    /** Wait for the job; @return its result bytes (empty on error). */
    std::vector<uint8_t> join()
    {
        thread.join();
        return bytes;
    }

  private:
    void run(const JobSpec &spec)
    {
        try {
            bytes = client.runJob(spec, [this](JobState state) {
                if (state != JobState::Running)
                    return;
                std::lock_guard<std::mutex> g(m);
                running = true;
                cv.notify_all();
            }).resultBytes;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "background job failed: " << e.what();
        }
        std::lock_guard<std::mutex> g(m);
        finished = true;
        cv.notify_all();
    }

    std::mutex m;
    std::condition_variable cv;
    bool running = false;
    bool finished = false;
    std::vector<uint8_t> bytes;
    Client client;
    std::thread thread;  // last: starts once every member above exists
};

std::vector<uint8_t>
directResultBytes(const JobSpec &spec)
{
    const harness::ExperimentResult direct = harness::runGridCell(
        spec.buffer, spec.bench, spec.trace, spec.toConfig(),
        spec.baseSeed);
    WireWriter w;
    encodeResult(w, direct);
    return w.take();
}

TEST_F(NetIntegration, ServedResultIsByteIdenticalToDirectRun)
{
    const JobSpec spec = quickSpec();
    Client client(clientConfig());
    const JobOutcome outcome = client.runJob(spec);
    EXPECT_EQ(outcome.jobId, spec.jobId());
    EXPECT_EQ(outcome.resultBytes, directResultBytes(spec));
    // The decoded result re-encodes to the same bytes (codec identity
    // holds on real data, not just the synthetic round-trip test).
    WireWriter w;
    encodeResult(w, outcome.result);
    EXPECT_EQ(w.data(), outcome.resultBytes);
}

TEST_F(NetIntegration, ResubmissionHitsTheCacheWithIdenticalBytes)
{
    const JobSpec spec = quickSpec();
    Client client(clientConfig());
    const JobOutcome first = client.runJob(spec);

    Client second_client(clientConfig());  // a different connection
    const JobOutcome second = second_client.runJob(spec);
    EXPECT_EQ(first.resultBytes, second.resultBytes);

    server->requestDrain();
    server_thread.join();
    EXPECT_EQ(exit_status, 0);
    EXPECT_EQ(server->stats().jobsExecuted, 1u) << "cache was bypassed";
    EXPECT_GE(server->stats().cacheHits, 1u);
}

TEST_F(NetIntegration, FaultyTransportConvergesToTheSameBytes)
{
    JobSpec spec = quickSpec();
    spec.buffer = harness::BufferKind::Morphy;  // distinct cell
    ClientConfig faulty = clientConfig();
    faulty.requestTimeoutMs = 1500;  // let dropped frames time out fast
    faulty.retry.maxRetries = 50;
    ASSERT_TRUE(FaultPlan::fromSpec(
        "drop=0.15,corrupt=0.15,delay=0.1,delayms=5,partial=0.05,seed=11",
        &faulty.faults, nullptr));
    Client client(faulty);
    const JobOutcome outcome = client.runJob(spec);
    EXPECT_EQ(outcome.resultBytes, directResultBytes(spec));
    // The schedule is seeded: with these rates a full exchange injects
    // faults with overwhelming probability, and deterministically so.
    EXPECT_GT(client.faultCounters().injected() +
                  client.stats().retries,
              0u);
}

TEST_F(NetIntegration, QueueDeadlineExpiresAndResubmissionRevives)
{
    // The only worker is busy with a long cell, so the job below sits
    // queued until its deadline lapses and a poll expires it.
    BackgroundJob blocker(clientConfig(), longSpec());
    ASSERT_TRUE(blocker.waitRunning());

    JobSpec spec = quickSpec();
    spec.bench = harness::BenchmarkKind::SenseCompute;  // distinct cell
    spec.deadlineSeconds = 1e-3;
    Client client(clientConfig());
    try {
        client.runJob(spec);
        FAIL() << "deadline should have expired the job";
    } catch (const ClientError &e) {
        EXPECT_EQ(static_cast<int>(e.kind),
                  static_cast<int>(ClientError::Kind::DeadlineExpired));
        EXPECT_NE(std::string(e.what()).find("deadline"),
                  std::string::npos)
            << e.what();
    }

    // Same identity, fresh deadline: the Expired entry is revived and
    // the job runs to completion once the worker frees up.
    spec.deadlineSeconds = 0.0;
    const JobOutcome outcome = client.runJob(spec);
    EXPECT_EQ(outcome.resultBytes, directResultBytes(spec));
    EXPECT_FALSE(blocker.join().empty());
}

TEST_F(NetIntegration, DrainCountReflectsEveryJobLifecyclePath)
{
    // DrainOk carries a counter maintained at each lifecycle transition
    // (it used to be derived by iterating the unordered job table, which
    // the determinism lint bans).  Drive a job down every path --
    // completed, cache-hit resubmission, expired at dispatch, expired
    // on poll while queued, revived -- and the counter must return
    // exactly to zero: a missed decrement reports stuck in-flight jobs,
    // and a missed increment underflows the unsigned counter into a
    // huge value, so both directions fail.
    Client client(clientConfig());
    const JobSpec completed = quickSpec();
    client.runJob(completed);
    client.runJob(completed);  // cache hit: must not re-enter the count

    // Idle worker: a lapsed deadline expires the job at dispatch (or on
    // the first poll, whichever comes first).
    JobSpec expiring = quickSpec();
    expiring.bench = harness::BenchmarkKind::SenseCompute;
    expiring.deadlineSeconds = 1e-9;
    EXPECT_THROW(client.runJob(expiring), ClientError);

    // Busy worker: the job stays queued and the poll expires it.
    BackgroundJob blocker(clientConfig(), longSpec());
    ASSERT_TRUE(blocker.waitRunning());
    JobSpec queued = quickSpec();
    queued.bench = harness::BenchmarkKind::RadioTransmit;
    queued.deadlineSeconds = 1e-9;
    EXPECT_THROW(client.runJob(queued), ClientError);

    expiring.deadlineSeconds = 0.0;  // revive the Expired entry
    client.runJob(expiring);
    EXPECT_FALSE(blocker.join().empty());

    EXPECT_EQ(client.drain(), 0u);
    server_thread.join();
    EXPECT_EQ(exit_status, 0);
    EXPECT_EQ(server->stats().jobsExecuted, 3u);
    EXPECT_EQ(server->stats().jobsExpired, 2u);
    EXPECT_GE(server->stats().cacheHits, 1u);
}

TEST_F(NetIntegrationTwoWorkers, ShortJobIsServedWhileLongJobStillRuns)
{
    // Workers take jobs one at a time and publish each result when its
    // cell ends: an ~8 ms cell submitted while a ~1 s cell runs must
    // not wait for it.  Only the order of events is checked.
    const JobSpec long_spec = longSpec();
    BackgroundJob long_job(clientConfig(), long_spec);
    ASSERT_TRUE(long_job.waitRunning());

    JobSpec short_spec;
    short_spec.bench = harness::BenchmarkKind::SenseCompute;
    short_spec.trace = trace::PaperTrace::RfObstruction;
    short_spec.buffer = harness::BufferKind::Static770uF;
    Client short_client(clientConfig());
    EXPECT_EQ(short_client.runJob(short_spec).resultBytes,
              directResultBytes(short_spec));

    // The short result is in; the long job must still be running.  A
    // resubmission attaches to it, so its first report is the job's
    // live state (a finished job would answer with its result).
    Client observer(clientConfig());
    std::vector<JobState> seen;
    const JobOutcome attached = observer.runJob(
        long_spec, [&seen](JobState state) { seen.push_back(state); });
    ASSERT_FALSE(seen.empty()) << "long job finished before the short one";
    EXPECT_EQ(seen.front(), JobState::Running);
    EXPECT_EQ(attached.resultBytes, long_job.join());

    server->requestDrain();
    server_thread.join();
    EXPECT_EQ(server->stats().jobsExecuted, 2u) << "attach re-ran the cell";
}

TEST_F(NetIntegration, HeldPollIsAnsweredOnStateChange)
{
    // With a 5 s poll interval a sleeping client would send Submit and
    // one late Poll and never see Running.  Held polls answer on each
    // state change instead: Queued -> Running -> result costs at most
    // the Submit plus two Polls.
    ClientConfig cc = clientConfig();
    cc.pollIntervalMs = 5000;
    Client client(cc);
    ASSERT_TRUE(client.ping());  // handshake frames out of the count
    const uint64_t sent_before = client.stats().framesSent;

    JobSpec spec;  // an RF cell long enough (~0.1 s) to be seen running
    spec.bench = harness::BenchmarkKind::PacketForward;
    spec.trace = trace::PaperTrace::RfCart;
    spec.buffer = harness::BufferKind::Morphy;
    std::vector<JobState> seen;
    const JobOutcome outcome = client.runJob(
        spec, [&seen](JobState state) { seen.push_back(state); });
    EXPECT_EQ(outcome.resultBytes, directResultBytes(spec));
    EXPECT_LE(client.stats().framesSent - sent_before, 3u);
    EXPECT_NE(std::find(seen.begin(), seen.end(), JobState::Running),
              seen.end());
}

/** Read frames until EOF/reset, recording types seen. */
std::vector<uint8_t>
drainFrameTypes(int fd, int timeout_ms)
{
    std::vector<uint8_t> types;
    FrameDecoder decoder;
    Frame frame;
    uint8_t buf[4096];
    for (;;) {
        size_t n = 0;
        try {
            n = recvSome(fd, buf, sizeof(buf), timeout_ms);
        } catch (const SocketError &) {
            break;
        }
        if (n == 0)
            break;
        try {
            decoder.feed(buf, n);
            while (decoder.next(&frame))
                types.push_back(frame.type);
        } catch (const ProtocolError &) {
            break;
        }
    }
    return types;
}

TEST_F(NetIntegrationShortIdle, HeldPollNeverCostsTheConnectionItsIdleBudget)
{
    // The client asks for 5 s holds on a ~1 s job, against a 500 ms
    // idle timeout: holds are capped at the idle timeout and a held
    // poll is not idleness, so the session survives without a retry
    // (an idle drop would cost a reconnect).
    ClientConfig cc = clientConfig();
    cc.pollIntervalMs = 5000;
    Client client(cc);
    EXPECT_FALSE(client.runJob(longSpec()).resultBytes.empty());
    EXPECT_EQ(client.stats().retries, 0u);
    EXPECT_EQ(client.stats().connects, 1u);
}

/** Send Hello(@p version) on a raw connection; @return the type of the
 *  first reply frame, or 0 on EOF/reset. */
uint8_t
rawHello(Socket &raw, uint32_t version)
{
    WireWriter w;
    w.u32(version);
    const std::vector<uint8_t> hello =
        encodeFrame(static_cast<uint8_t>(MsgType::Hello), w.data());
    sendAll(raw.fd(), hello.data(), hello.size(), 1000);
    FrameDecoder decoder;
    Frame frame;
    uint8_t buf[512];
    for (;;) {
        size_t n = 0;
        try {
            n = recvSome(raw.fd(), buf, sizeof(buf), 3000);
        } catch (const SocketError &) {
            return 0;
        }
        if (n == 0)
            return 0;
        decoder.feed(buf, n);
        if (decoder.next(&frame)) {
            if (frame.type == static_cast<uint8_t>(MsgType::HelloOk)) {
                WireReader r(frame.payload);
                EXPECT_EQ(r.u32(), kProtocolVersion);
            }
            return frame.type;
        }
    }
}

TEST_F(NetIntegration, HelloNegotiatesV4AndRejectsOlderPeers)
{
    EXPECT_EQ(kProtocolVersion, 4u);
    {
        Socket raw = connectUnix(config.endpoint, 1000);
        EXPECT_EQ(rawHello(raw, kProtocolVersion),
                  static_cast<uint8_t>(MsgType::HelloOk));
    }
    // A v3 peer would read Result payloads with the fast-step field v4
    // dropped, and a v2 peer would send Polls without waitMs: both are
    // turned away at the handshake with a diagnostic, never misread
    // later.
    for (const uint32_t old_version : {3u, 2u}) {
        Socket raw = connectUnix(config.endpoint, 1000);
        EXPECT_EQ(rawHello(raw, old_version),
                  static_cast<uint8_t>(MsgType::Error))
            << "v" << old_version;
    }
    Client client(clientConfig());
    EXPECT_TRUE(client.ping());
}

TEST_F(NetIntegration, MalformedPollWaitFieldIsACleanProtocolError)
{
    // Poll payload is u64 id | u32 waitMs.  A truncated waitMs (0-3
    // bytes: a v2-shaped Poll among them) or trailing bytes must cost
    // the connection an Error frame -- never a job reply decoded from
    // a misread field, never the server.
    Client client(clientConfig());
    const JobSpec spec = quickSpec();
    const JobOutcome done = client.runJob(spec);  // a known, Done job
    const uint64_t id = spec.jobId();
    for (const size_t wait_bytes : {0u, 1u, 2u, 3u, 5u, 8u}) {
        WireWriter w;
        w.u64(id);
        for (size_t i = 0; i < wait_bytes; ++i)
            w.u8(0);
        Socket raw = connectUnix(config.endpoint, 1000);
        ASSERT_EQ(rawHello(raw, kProtocolVersion),
                  static_cast<uint8_t>(MsgType::HelloOk));
        const std::vector<uint8_t> poll =
            encodeFrame(static_cast<uint8_t>(MsgType::Poll), w.data());
        sendAll(raw.fd(), poll.data(), poll.size(), 1000);
        const std::vector<uint8_t> types = drainFrameTypes(raw.fd(), 3000);
        ASSERT_EQ(types.size(), 1u) << wait_bytes << " waitMs bytes";
        EXPECT_EQ(types[0], static_cast<uint8_t>(MsgType::Error))
            << wait_bytes << " waitMs bytes";
    }
    // A well-formed Poll on the same job still gets its result.
    EXPECT_EQ(client.runJob(spec).resultBytes, done.resultBytes);
    server->requestDrain();
    server_thread.join();
    EXPECT_GE(server->stats().protocolErrors, 6u);
}

TEST_F(NetIntegration, NextRequestAnswersTheHeldPollFirst)
{
    // Replies leave in request order: a Ping sent behind a held Poll
    // releases the hold, so the poll's answer precedes the Pong.
    const JobSpec spec = longSpec();
    Socket raw = connectUnix(config.endpoint, 1000);
    ASSERT_EQ(rawHello(raw, kProtocolVersion),
              static_cast<uint8_t>(MsgType::HelloOk));
    FrameDecoder decoder;
    const auto next_type = [&raw, &decoder]() -> uint8_t {
        Frame frame;
        uint8_t buf[512];
        while (!decoder.next(&frame)) {
            const size_t n = recvSome(raw.fd(), buf, sizeof(buf), 30000);
            if (n == 0)
                return 0;
            decoder.feed(buf, n);
        }
        return frame.type;
    };
    const auto send = [&raw](const std::vector<uint8_t> &frame) {
        sendAll(raw.fd(), frame.data(), frame.size(), 1000);
    };
    const uint8_t submitted = static_cast<uint8_t>(MsgType::Submitted);
    send(makeSubmit(spec));
    ASSERT_EQ(next_type(), submitted);
    // An immediate poll reports the state the next poll then holds on.
    send(makePoll(spec.jobId(), 0));
    ASSERT_EQ(next_type(), submitted);
    send(makePoll(spec.jobId(), 60000));
    send(makePing());
    EXPECT_EQ(next_type(), submitted);
    EXPECT_EQ(next_type(), static_cast<uint8_t>(MsgType::Pong));
}

TEST_F(NetIntegration, MalformedBytesCostTheConnectionNotTheServer)
{
    {
        Socket raw = connectUnix(config.endpoint, 1000);
        const uint8_t garbage[] = "GET / HTTP/1.1\r\n\r\n";
        sendAll(raw.fd(), garbage, sizeof(garbage) - 1, 1000);
        // The server answers with a diagnostic Error frame, then EOF.
        FrameDecoder decoder;
        Frame frame;
        bool got_error = false;
        uint8_t buf[512];
        for (;;) {
            size_t n = 0;
            try {
                n = recvSome(raw.fd(), buf, sizeof(buf), 3000);
            } catch (const SocketError &) {
                break;  // reset also proves the close
            }
            if (n == 0)
                break;
            decoder.feed(buf, n);
            while (decoder.next(&frame))
                got_error |=
                    frame.type == static_cast<uint8_t>(MsgType::Error);
        }
        EXPECT_TRUE(got_error);
    }
    // The server survived and still serves jobs.
    Client client(clientConfig());
    EXPECT_TRUE(client.ping());
    const JobSpec spec = quickSpec();
    EXPECT_EQ(client.runJob(spec).resultBytes, directResultBytes(spec));
}

TEST(ServerConfigEnv, ReactdVariablesParseThroughUtilEnv)
{
    // A bare path is an AF_UNIX endpoint.
    ::setenv("REACTD_ENDPOINT", "/tmp/custom.sock", 1);
    ::setenv("REACTD_THREADS", "3", 1);
    ::setenv("REACTD_CHECKPOINT_INTERVAL", "not-a-number", 1);
    ::setenv("REACTD_IDLE_TIMEOUT_MS", "1234", 1);
    const ServerConfig config = ServerConfig::fromEnv();
    ::unsetenv("REACTD_ENDPOINT");
    ::unsetenv("REACTD_THREADS");
    ::unsetenv("REACTD_CHECKPOINT_INTERVAL");
    ::unsetenv("REACTD_IDLE_TIMEOUT_MS");

    EXPECT_EQ(config.endpoint, "/tmp/custom.sock");
    EXPECT_EQ(config.threads, 3);
    // The malformed interval warned and kept the default.
    EXPECT_EQ(config.checkpointIntervalSteps,
              harness::kDefaultCheckpointInterval);
    EXPECT_EQ(config.idleTimeoutMs, 1234);
}

TEST(RetryPolicy, BackoffIsBoundedAndSeeded)
{
    RetryPolicy policy;
    Rng a(5), b(5);
    double previous_envelope = 0.0;
    for (int attempt = 1; attempt <= 12; ++attempt) {
        const double ms = policy.backoffMs(attempt, &a);
        EXPECT_EQ(ms, policy.backoffMs(attempt, &b));
        EXPECT_GE(ms, policy.initialBackoffMs * 0.5);
        EXPECT_LE(ms, policy.maxBackoffMs);
        previous_envelope = ms;
    }
    (void)previous_envelope;
}


// ---------------------------------------------------------------------
// Endpoints

TEST(Endpoint, ParsesUnixTcpAndLegacyBarePaths)
{
    Endpoint ep;
    std::string error;
    ASSERT_TRUE(Endpoint::parse("unix:/run/reactd.sock", &ep, &error));
    EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(ep.path, "/run/reactd.sock");
    EXPECT_EQ(ep.str(), "unix:/run/reactd.sock");

    ASSERT_TRUE(Endpoint::parse("tcp:127.0.0.1:9177", &ep, &error));
    EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 9177);
    EXPECT_EQ(ep.str(), "tcp:127.0.0.1:9177");

    // Pre-fleet configs carried a bare socket path; it still means unix.
    ASSERT_TRUE(Endpoint::parse("/tmp/legacy.sock", &ep, &error));
    EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(ep.path, "/tmp/legacy.sock");

    // Port 0 is valid at parse time: it requests an ephemeral port.
    ASSERT_TRUE(Endpoint::parse("tcp:localhost:0", &ep, &error));
    EXPECT_EQ(ep.port, 0);
}

TEST(Endpoint, RejectsMalformedUrisWithDiagnostics)
{
    Endpoint ep;
    std::string error;
    EXPECT_FALSE(Endpoint::parse("", &ep, &error));
    EXPECT_FALSE(Endpoint::parse("unix:", &ep, &error));
    EXPECT_FALSE(Endpoint::parse("tcp:localhost", &ep, &error));
    EXPECT_FALSE(Endpoint::parse("tcp::9177", &ep, &error));
    EXPECT_FALSE(Endpoint::parse("tcp:host:", &ep, &error));
    EXPECT_FALSE(Endpoint::parse("tcp:host:port", &ep, &error));
    EXPECT_FALSE(Endpoint::parse("tcp:host:65536", &ep, &error));
    EXPECT_FALSE(Endpoint::parse("tcp:host:123456", &ep, &error));
    EXPECT_FALSE(Endpoint::parse("tcp:host:-1", &ep, &error));
    EXPECT_FALSE(Endpoint::parse("udp:host:9177", &ep, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_THROW(Endpoint::parseOrThrow("udp:host:1"), SocketError);
}

// ---------------------------------------------------------------------
// TCP transport: the same server, protocol, and damage ladder over a
// loopback TCP endpoint (ephemeral port; tests never race on a fixed
// one).

class NetIntegrationTcp : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        harness::ParallelRunner::clearStopRequest();
        config.endpoint = "tcp:127.0.0.1:0";
        config.threads = 1;
        server = std::make_unique<Server>(config);
        server_thread = std::thread([this] {
            exit_status = server->serve();
        });
        // serve() publishes the resolved endpoint once bound.
        for (int i = 0; i < 500 && server->boundEndpoint().empty(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ASSERT_FALSE(server->boundEndpoint().empty())
            << "server never bound";
    }

    void TearDown() override
    {
        if (server_thread.joinable()) {
            server->requestDrain();
            server_thread.join();
        }
        harness::ParallelRunner::clearStopRequest();
    }

    ClientConfig clientConfig() const
    {
        ClientConfig c;
        c.endpoint = server->boundEndpoint();
        c.requestTimeoutMs = 120000;
        return c;
    }

    ServerConfig config;
    std::unique_ptr<Server> server;
    std::thread server_thread;
    int exit_status = -1;
};

TEST_F(NetIntegrationTcp, EphemeralPortIsPublishedAndParseable)
{
    Endpoint ep;
    std::string error;
    ASSERT_TRUE(Endpoint::parse(server->boundEndpoint(), &ep, &error))
        << error;
    EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
    EXPECT_NE(ep.port, 0) << "bound endpoint still says port 0";
}

TEST_F(NetIntegrationTcp, ServedResultIsByteIdenticalOverTcp)
{
    const JobSpec spec = quickSpec();
    Client client(clientConfig());
    const JobOutcome outcome = client.runJob(spec);
    EXPECT_EQ(outcome.resultBytes, directResultBytes(spec));
}

TEST_F(NetIntegrationTcp, FaultyTcpTransportConvergesToTheSameBytes)
{
    JobSpec spec = quickSpec();
    spec.buffer = harness::BufferKind::Morphy;
    ClientConfig faulty = clientConfig();
    faulty.requestTimeoutMs = 1500;
    faulty.retry.maxRetries = 50;
    ASSERT_TRUE(FaultPlan::fromSpec(
        "drop=0.1,corrupt=0.1,reset=0.1,partition=0.1,partframes=3,"
        "delay=0.1,delayms=5,seed=11",
        &faulty.faults, nullptr));
    Client client(faulty);
    const JobOutcome outcome = client.runJob(spec);
    EXPECT_EQ(outcome.resultBytes, directResultBytes(spec));
    EXPECT_GT(client.faultCounters().injected() + client.stats().retries,
              0u);
}

Socket
connectBound(const Server &server, int timeout_ms)
{
    return connectTo(Endpoint::parseOrThrow(server.boundEndpoint()),
                     timeout_ms);
}

TEST_F(NetIntegrationTcp, MalformedBytesOverTcpCostTheConnectionOnly)
{
    // The full pre-frame damage ladder, over TCP: raw garbage, a valid
    // frame with a flipped CRC, and an oversized declared length.  Each
    // costs its connection; none cost the server.
    const std::vector<std::vector<uint8_t>> corpus = [] {
        std::vector<std::vector<uint8_t>> c;
        const uint8_t garbage[] = "GET / HTTP/1.1\r\n\r\n";
        c.emplace_back(garbage, garbage + sizeof(garbage) - 1);
        std::vector<uint8_t> flipped = makeHello();
        flipped.back() ^= 0x01;
        c.push_back(flipped);
        std::vector<uint8_t> oversize = {'R', 'N', 'E', 'T', 1,
                                         0xff, 0xff, 0xff, 0xff};
        c.push_back(oversize);
        return c;
    }();
    for (const auto &bytes : corpus) {
        Socket raw = connectBound(*server, 1000);
        try {
            sendAll(raw.fd(), bytes.data(), bytes.size(), 1000);
        } catch (const SocketError &) {
            // Server may reset before the full write lands; also fine.
        }
        drainFrameTypes(raw.fd(), 2000);  // wait out the close
    }
    // The server survived and still serves jobs.
    Client client(clientConfig());
    EXPECT_TRUE(client.ping());
    const JobSpec spec = quickSpec();
    EXPECT_EQ(client.runJob(spec).resultBytes, directResultBytes(spec));
}

TEST_F(NetIntegrationTcp, FloodingPeerCannotStarveAnotherConnection)
{
    // One peer writes valid Pings as fast as the socket takes them, and
    // a reader thread drains its Pongs so the outbuf cap never drops
    // it.  The server reads a bounded share of each connection per poll
    // tick, so a second client's Hello + Submit + Poll still completes
    // while the flood runs.
    Socket flood = connectBound(*server, 1000);
    const std::vector<uint8_t> ping = makePing();
    std::vector<uint8_t> burst;
    for (int i = 0; i < 4096; ++i)
        burst.insert(burst.end(), ping.begin(), ping.end());
    std::atomic<bool> stop_writer{false};
    std::atomic<bool> stop_reader{false};
    std::atomic<bool> flood_cut{false};
    std::atomic<uint64_t> pong_bytes{0};
    std::thread writer([&] {
        try {
            while (!stop_writer.load())
                sendAll(flood.fd(), burst.data(), burst.size(), 10000);
        } catch (const SocketError &) {
            flood_cut = true;
        }
    });
    std::thread reader([&] {
        std::vector<uint8_t> buf(64 * 1024);
        try {
            while (!stop_reader.load()) {
                if (!waitReadable(flood.fd(), 50))
                    continue;
                const size_t n =
                    recvSome(flood.fd(), buf.data(), buf.size(), 1000);
                if (n == 0) {
                    flood_cut = true;
                    return;
                }
                pong_bytes += n;
            }
        } catch (const SocketError &) {
            flood_cut = true;
        }
    });
    // Start the second client only once the server is answering the
    // flood.
    const auto warmup =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (pong_bytes.load() < 1024 * 1024 && !flood_cut.load() &&
           std::chrono::steady_clock::now() < warmup)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(pong_bytes.load(), 1024u * 1024u);

    const JobSpec spec = quickSpec();
    const auto start = std::chrono::steady_clock::now();
    Client client(clientConfig());
    const JobOutcome outcome = client.runJob(spec);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const bool flooding = !flood_cut.load();

    stop_writer = true;
    writer.join();  // the reader keeps draining until the writer is out
    stop_reader = true;
    reader.join();

    EXPECT_EQ(outcome.resultBytes, directResultBytes(spec));
    EXPECT_LT(seconds, 20.0) << "second client starved behind the flood";
    EXPECT_TRUE(flooding) << "the flood ended before the second client "
                             "finished";
    EXPECT_FALSE(flood_cut.load()) << "the server dropped the flooding peer";
    server->requestDrain();
    server_thread.join();
    // Stats are read once serve() has returned (server.hh).
    EXPECT_EQ(server->stats().outbufOverflows, 0u);
}

// ---------------------------------------------------------------------
// Authenticated sessions

class NetIntegrationAuth : public NetIntegrationTcp
{
  protected:
    void SetUp() override
    {
        config.fleetKey.assign(kKey, kKey + sizeof(kKey) - 1);
        NetIntegrationTcp::SetUp();
    }

    static constexpr char kKey[] = "test-fleet-key";
};

constexpr char NetIntegrationAuth::kKey[];

TEST_F(NetIntegrationAuth, HandshakeSucceedsWithTheSharedKey)
{
    ClientConfig cc = clientConfig();
    cc.fleetKey.assign(kKey, kKey + sizeof(kKey) - 1);
    Client client(cc);
    EXPECT_TRUE(client.ping());
    const JobSpec spec = quickSpec();
    EXPECT_EQ(client.runJob(spec).resultBytes, directResultBytes(spec));
    EXPECT_EQ(server->stats().authRejects, 0u);
}

TEST_F(NetIntegrationAuth, MissingKeyIsATerminalRejection)
{
    Client client(clientConfig());  // no key
    try {
        client.runJob(quickSpec());
        FAIL() << "keyless client must not pass the handshake";
    } catch (const ClientError &e) {
        EXPECT_EQ(static_cast<int>(e.kind),
                  static_cast<int>(ClientError::Kind::Rejected));
    }
}

TEST_F(NetIntegrationAuth, WrongKeyIsRejectedAndCounted)
{
    ClientConfig cc = clientConfig();
    const char wrong[] = "not-the-fleet-key";
    cc.fleetKey.assign(wrong, wrong + sizeof(wrong) - 1);
    Client client(cc);
    try {
        client.runJob(quickSpec());
        FAIL() << "wrong key must not pass the handshake";
    } catch (const ClientError &e) {
        EXPECT_EQ(static_cast<int>(e.kind),
                  static_cast<int>(ClientError::Kind::Rejected));
    }
    EXPECT_GE(server->stats().authRejects, 1u);
}

TEST_F(NetIntegrationAuth, FramesBeforeHandshakeAreRejectedAndDropped)
{
    Socket raw = connectBound(*server, 1000);
    const std::vector<uint8_t> ping = makePing();
    sendAll(raw.fd(), ping.data(), ping.size(), 1000);
    const std::vector<uint8_t> types = drainFrameTypes(raw.fd(), 3000);
    ASSERT_EQ(types.size(), 1u) << "expected exactly an AuthReject";
    EXPECT_EQ(types[0], static_cast<uint8_t>(MsgType::AuthReject));
    EXPECT_GE(server->stats().authRejects, 1u);

    // The server is unharmed.
    ClientConfig cc = clientConfig();
    cc.fleetKey.assign(kKey, kKey + sizeof(kKey) - 1);
    Client client(cc);
    EXPECT_TRUE(client.ping());
}

TEST_F(NetIntegrationAuth, HandshakeSurvivesTruncationsAndBitFlips)
{
    // Damage the handshake itself: send Hello, receive the challenge,
    // then answer with (a) every truncated prefix of a valid
    // AuthResponse and (b) single-bit-flipped MACs.  Every attempt must
    // end in rejection or a dropped connection -- never a session --
    // and the server must keep serving afterward.
    const std::vector<uint8_t> key(kKey, kKey + sizeof(kKey) - 1);
    int sessions_denied = 0;
    for (int attempt = 0; attempt < 12; ++attempt) {
        Socket raw = connectBound(*server, 1000);
        const std::vector<uint8_t> hello = makeHello();
        sendAll(raw.fd(), hello.data(), hello.size(), 1000);

        // Read the AuthChallenge and recover the nonce.
        FrameDecoder decoder;
        Frame frame;
        uint8_t buf[512];
        bool got_challenge = false;
        while (!got_challenge) {
            const size_t n = recvSome(raw.fd(), buf, sizeof(buf), 3000);
            if (n == 0)
                break;
            decoder.feed(buf, n);
            while (decoder.next(&frame))
                if (frame.type ==
                    static_cast<uint8_t>(MsgType::AuthChallenge))
                    got_challenge = true;
        }
        ASSERT_TRUE(got_challenge);
        WireReader r(frame.payload);
        const std::vector<uint8_t> nonce_bytes = r.bytes();
        ASSERT_EQ(nonce_bytes.size(), kAuthNonceSize);
        AuthNonce nonce = {};
        std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
        const AuthMac mac = authProof(key, nonce);
        std::vector<uint8_t> response =
            makeAuthResponse(mac.data(), mac.size());

        if (attempt < 6) {
            // Truncation: send a prefix, then hang up mid-handshake.
            const size_t cut = response.size() * static_cast<size_t>(attempt) / 6;
            sendAll(raw.fd(), response.data(), cut, 1000);
            raw.close();
            ++sessions_denied;
        } else {
            // Bit flip inside the MAC bytes of the payload.
            std::vector<uint8_t> bad_mac(mac.begin(), mac.end());
            bad_mac[static_cast<size_t>(attempt) % bad_mac.size()] ^=
                static_cast<uint8_t>(1u << (attempt % 8));
            std::vector<uint8_t> bad =
                makeAuthResponse(bad_mac.data(), bad_mac.size());
            sendAll(raw.fd(), bad.data(), bad.size(), 1000);
            const std::vector<uint8_t> types =
                drainFrameTypes(raw.fd(), 3000);
            // Either we saw the AuthReject or the connection died
            // first; both deny the session.
            for (const uint8_t t : types)
                EXPECT_NE(t, static_cast<uint8_t>(MsgType::HelloOk));
            ++sessions_denied;
        }
    }
    EXPECT_EQ(sessions_denied, 12);
    EXPECT_GE(server->stats().authRejects, 6u);

    // Still standing, still authenticating.
    ClientConfig cc = clientConfig();
    cc.fleetKey = key;
    Client client(cc);
    EXPECT_TRUE(client.ping());
}

TEST(AuthPrimitives, ProofIsDeterministicAndKeyedAndConstantTimeEqual)
{
    const std::vector<uint8_t> key = {1, 2, 3, 4};
    const std::vector<uint8_t> other_key = {1, 2, 3, 5};
    NonceSource nonces(7);
    const AuthNonce nonce = nonces.next();
    const AuthMac mac = authProof(key, nonce);
    EXPECT_EQ(mac, authProof(key, nonce));
    EXPECT_NE(mac, authProof(other_key, nonce));
    EXPECT_NE(mac, authProof(key, nonces.next()));
    EXPECT_TRUE(verifyAuthProof(key, nonce, mac.data(), mac.size()));
    EXPECT_FALSE(
        verifyAuthProof(other_key, nonce, mac.data(), mac.size()));
    EXPECT_FALSE(verifyAuthProof(key, nonce, mac.data(), mac.size() - 1));

    // Seeded nonce sources replay (the determinism contract) but two
    // draws never collide.
    NonceSource a(42), b(42);
    EXPECT_EQ(a.next(), b.next());
    NonceSource c(42);
    EXPECT_NE(c.next(), c.next());
}

TEST(AuthPrimitives, HmacSha256MatchesRfc4231Vectors)
{
    // RFC 4231 test case 2: key "Jefe", data "what do ya want for
    // nothing?".
    const char *key_text = "Jefe";
    const char *msg_text = "what do ya want for nothing?";
    const std::vector<uint8_t> key(key_text, key_text + 4);
    const std::vector<uint8_t> msg(msg_text, msg_text + 28);
    const std::array<uint8_t, kSha256Size> mac = hmacSha256(key, msg);
    const uint8_t expected[] = {
        0x5b, 0xdc, 0xc1, 0x46, 0xbf, 0x60, 0x75, 0x4e,
        0x6a, 0x04, 0x24, 0x26, 0x08, 0x95, 0x75, 0xc7,
        0x5a, 0x00, 0x3f, 0x08, 0x9d, 0x27, 0x39, 0x83,
        0x9d, 0xec, 0x58, 0xb9, 0x64, 0xec, 0x38, 0x43};
    EXPECT_TRUE(std::equal(mac.begin(), mac.end(), expected));
}

// ---------------------------------------------------------------------
// Bounded server outbufs

TEST(ServerOutbuf, NeverPollingClientCannotBalloonServerMemory)
{
    harness::ParallelRunner::clearStopRequest();
    ServerConfig config;
    config.endpoint = "tcp:127.0.0.1:0";
    config.threads = 1;
    config.maxOutbufBytes = 64 * 1024;  // tiny cap to trip quickly
    Server server(config);
    std::thread server_thread([&server] { server.serve(); });
    for (int i = 0; i < 500 && server.boundEndpoint().empty(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_FALSE(server.boundEndpoint().empty());

    {
        // A client that sends pings forever and never reads a byte:
        // pongs accumulate in the server's outbuf until the cap closes
        // the connection (instead of growing without bound).  The loop
        // runs until that drop, not for a fixed ping count: a starved
        // server thread leaves pings queued in the autotuned TCP receive
        // buffer, so any fixed count can end before the server has
        // answered enough of them to overflow.  Pings go out 1024 to a
        // write: the pongs must first fill the kernel's socket buffers
        // (megabytes on loopback) before the outbuf grows, and one
        // syscall per 13-byte ping made that take seconds on an idle
        // host and past the deadline on a loaded one.
        Socket raw = connectBound(server, 1000);
        const std::vector<uint8_t> ping = makePing();
        constexpr uint64_t kPingsPerWrite = 1024;
        std::vector<uint8_t> pings;
        for (uint64_t i = 0; i < kPingsPerWrite; ++i)
            pings.insert(pings.end(), ping.begin(), ping.end());
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        uint64_t sent = 0;
        bool dropped = false;
        while (!dropped && std::chrono::steady_clock::now() < deadline) {
            try {
                sendAll(raw.fd(), pings.data(), pings.size(), 1000);
                sent += kPingsPerWrite;
            } catch (const SocketError &) {
                dropped = true;  // server closed on us: the cap worked
            }
        }
        EXPECT_TRUE(dropped) << "server absorbed " << sent
                             << " unread pongs in 30 s without closing";
    }

    // Well-behaved clients are unaffected.
    ClientConfig cc;
    cc.endpoint = server.boundEndpoint();
    Client client(cc);
    EXPECT_TRUE(client.ping());
    server.requestDrain();
    server_thread.join();
    // Stats are read once serve() has returned (server.hh).
    EXPECT_GE(server.stats().outbufOverflows, 1u);
    harness::ParallelRunner::clearStopRequest();
}

// ---------------------------------------------------------------------
// EINTR discipline: a 1 ms interval timer hammers every blocking socket
// call with signals; transfers must still complete and timeouts must
// still expire on schedule (EINTR must not re-arm them).

class IntervalTimerScope
{
  public:
    IntervalTimerScope()
    {
        struct sigaction sa = {};
        sa.sa_handler = &IntervalTimerScope::onAlarm;
        // Deliberately NOT SA_RESTART: every blocking call sees EINTR.
        sigemptyset(&sa.sa_mask);
        sigaction(SIGALRM, &sa, &previous_);
        struct itimerval timer = {};
        timer.it_interval.tv_usec = 1000;  // 1 ms
        timer.it_value.tv_usec = 1000;
        setitimer(ITIMER_REAL, &timer, &previous_timer_);
    }

    ~IntervalTimerScope()
    {
        setitimer(ITIMER_REAL, &previous_timer_, nullptr);
        sigaction(SIGALRM, &previous_, nullptr);
    }

    static int fired() { return fired_; }

  private:
    static void onAlarm(int) { ++fired_; }
    static volatile sig_atomic_t fired_;
    struct sigaction previous_ = {};
    struct itimerval previous_timer_ = {};
};

volatile sig_atomic_t IntervalTimerScope::fired_ = 0;

TEST_F(NetIntegrationTcp, TransfersCompleteUnderSignalHammer)
{
    IntervalTimerScope hammer;
    const JobSpec spec = quickSpec();
    Client client(clientConfig());
    const JobOutcome outcome = client.runJob(spec);
    EXPECT_EQ(outcome.resultBytes, directResultBytes(spec));
    EXPECT_GT(IntervalTimerScope::fired(), 0)
        << "the interval timer never fired; the hammer tested nothing";
}

TEST_F(NetIntegrationTcp, TimeoutsStillExpireUnderSignalHammer)
{
    // recvSome on an idle connection with a 200 ms budget: the timeout
    // is an absolute deadline, so ~200 EINTRs must not extend it.  The
    // old per-iteration re-arm would spin here for the full 10 s gtest
    // timeout instead of the asserted bound.
    Socket raw = connectBound(*server, 1000);
    const std::vector<uint8_t> hello = makeHello();
    sendAll(raw.fd(), hello.data(), hello.size(), 1000);
    drainFrameTypes(raw.fd(), 500);  // consume HelloOk

    IntervalTimerScope hammer;
    uint8_t buf[64];
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(recvSome(raw.fd(), buf, sizeof(buf), 200), SocketError);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(elapsed, 150);
    EXPECT_LE(elapsed, 5000) << "EINTR extended the deadline";
    EXPECT_GT(IntervalTimerScope::fired(), 0);
}

} // namespace
} // namespace net
} // namespace react
