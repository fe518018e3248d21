/**
 * @file
 * Tests for the snapshot subsystem: wire-format round trips, whole-image
 * validation (corruption, truncation, reordering), the atomic file
 * protocol with its `.prev` fallback, RNG stream serialization, and
 * checkpoint/restore transparency of a full experiment run.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/paper_setup.hh"
#include "harvest/frontend.hh"
#include "snapshot/snapshot.hh"
#include "trace/power_trace.hh"
#include "util/crc32.hh"
#include "util/rng.hh"

namespace react {
namespace snapshot {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t>
sampleImage()
{
    SnapshotWriter w;
    w.beginSection("alpha");
    w.u8(7);
    w.b(true);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.f64(3.141592653589793);
    w.str("hello");
    w.bytes({1, 2, 3});
    w.endSection();
    w.beginSection("beta");
    w.u32(99);
    w.endSection();
    return w.finish();
}

TEST(SnapshotFormat, RoundTripsEveryPrimitive)
{
    SnapshotReader r(sampleImage());
    EXPECT_EQ(r.sectionCount(), 2u);
    r.beginSection("alpha");
    EXPECT_EQ(r.u8(), 7);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_DOUBLE_EQ(r.f64(), 3.141592653589793);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.bytes(), (std::vector<uint8_t>{1, 2, 3}));
    r.endSection();
    r.beginSection("beta");
    EXPECT_EQ(r.u32(), 99u);
    r.endSection();
}

TEST(SnapshotFormat, NegativeZeroAndNanRoundTripBitExactly)
{
    SnapshotWriter w;
    w.beginSection("f");
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.f64(std::numeric_limits<double>::infinity());
    w.endSection();
    SnapshotReader r(w.finish());
    r.beginSection("f");
    const double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_TRUE(std::isinf(r.f64()));
    r.endSection();
}

TEST(SnapshotFormat, DetectsEveryFlippedByte)
{
    // The whole image is covered by header checks plus per-section CRCs:
    // no single-byte flip may survive construction.
    const auto image = sampleImage();
    for (size_t i = 0; i < image.size(); ++i) {
        auto damaged = image;
        damaged[i] ^= 0x01;
        EXPECT_THROW(SnapshotReader{damaged}, SnapshotError)
            << "flip at byte " << i << " went undetected";
    }
}

TEST(SnapshotFormat, DetectsEveryTruncationPoint)
{
    const auto image = sampleImage();
    for (size_t keep = 0; keep < image.size(); ++keep) {
        std::vector<uint8_t> damaged(image.begin(),
                                     image.begin() +
                                         static_cast<long>(keep));
        EXPECT_THROW(SnapshotReader{damaged}, SnapshotError)
            << "truncation to " << keep << " bytes went undetected";
    }
}

TEST(SnapshotFormat, RejectsWrongMagicAndVersion)
{
    auto image = sampleImage();
    image[0] ^= 0xff;
    EXPECT_THROW(SnapshotReader{image}, SnapshotError);
    image = sampleImage();
    image[4] ^= 0xff;  // version word
    EXPECT_THROW(SnapshotReader{image}, SnapshotError);
}

TEST(SnapshotFormat, ValidateImageMatchesReaderVerdict)
{
    std::string error;
    EXPECT_TRUE(validateImage(sampleImage(), &error));
    EXPECT_TRUE(error.empty());
    auto damaged = sampleImage();
    damaged[damaged.size() / 2] ^= 0x10;
    EXPECT_FALSE(validateImage(damaged, &error));
    EXPECT_FALSE(error.empty());
}

TEST(SnapshotFormat, ReaderEnforcesSectionDiscipline)
{
    {
        SnapshotReader r(sampleImage());
        EXPECT_THROW(r.beginSection("beta"), SnapshotError);  // order
    }
    {
        SnapshotReader r(sampleImage());
        EXPECT_THROW(r.u32(), SnapshotError);  // read outside any section
    }
    {
        SnapshotReader r(sampleImage());
        r.beginSection("alpha");
        r.u8();
        EXPECT_THROW(r.endSection(), SnapshotError);  // unread payload
    }
    {
        SnapshotReader r(sampleImage());
        r.beginSection("alpha");
        r.u8();
        r.b();
        r.u32();
        r.u64();
        r.i64();
        r.f64();
        r.str();
        r.bytes();
        EXPECT_THROW(r.u64(), SnapshotError);  // overrun
    }
}

TEST(SnapshotRng, SaveRestoreDrawIsBitIdentical)
{
    Rng original(12345);
    // Burn in, leaving a cached Box-Muller deviate pending.
    for (int i = 0; i < 7; ++i)
        (void)original.normal();
    (void)original.uniform();

    SnapshotWriter w;
    w.beginSection("rng");
    saveRng(w, original);
    w.endSection();
    SnapshotReader r(w.finish());
    r.beginSection("rng");
    Rng restored(999);  // seed must not matter
    restoreRng(r, &restored);
    r.endSection();

    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(original.next(), restored.next());
        EXPECT_DOUBLE_EQ(original.normal(), restored.normal());
    }
}

class SnapshotFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // One directory per test and per process: under ctest -j every
        // test runs in its own process, and a shared directory would let
        // one test's TearDown delete another's files mid-run.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = fs::temp_directory_path() /
              ("react_snapshot_test." + std::to_string(::getpid()) + "." +
               info->name());
        fs::create_directories(dir);
        path = (dir / "state.snap").string();
    }

    void TearDown() override
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    fs::path dir;
    std::string path;
};

TEST_F(SnapshotFileTest, SaveLoadRoundTrip)
{
    ASSERT_TRUE(saveSnapshotFile(path, sampleImage()));
    const SnapshotLoad load = loadSnapshotFile(path);
    EXPECT_TRUE(load.ok);
    EXPECT_FALSE(load.usedFallback);
    EXPECT_EQ(load.image, sampleImage());
    EXPECT_FALSE(load.diagnostic.empty());
}

TEST_F(SnapshotFileTest, SecondSaveKeepsPreviousGeneration)
{
    ASSERT_TRUE(saveSnapshotFile(path, sampleImage()));
    SnapshotWriter w;
    w.beginSection("v2");
    w.u32(2);
    w.endSection();
    ASSERT_TRUE(saveSnapshotFile(path, w.finish()));
    EXPECT_TRUE(fs::exists(path + ".prev"));
    const SnapshotLoad prev = loadSnapshotFile(path + ".prev");
    EXPECT_TRUE(prev.ok);
    EXPECT_EQ(prev.image, sampleImage());
}

TEST_F(SnapshotFileTest, DamagedPrimaryFallsBackToPrev)
{
    ASSERT_TRUE(saveSnapshotFile(path, sampleImage()));
    SnapshotWriter w;
    w.beginSection("v2");
    w.u32(2);
    w.endSection();
    ASSERT_TRUE(saveSnapshotFile(path, w.finish()));
    {
        // Torn write: chop the primary in half.
        std::error_code ec;
        fs::resize_file(path, fs::file_size(path) / 2, ec);
        ASSERT_FALSE(ec);
    }
    const SnapshotLoad load = loadSnapshotFile(path);
    EXPECT_TRUE(load.ok);
    EXPECT_TRUE(load.usedFallback);
    EXPECT_EQ(load.image, sampleImage());
    EXPECT_FALSE(load.diagnostic.empty());
}

TEST_F(SnapshotFileTest, BothDamagedReportsCleanFailure)
{
    ASSERT_TRUE(saveSnapshotFile(path, sampleImage()));
    ASSERT_TRUE(saveSnapshotFile(path, sampleImage()));
    std::ofstream(path, std::ios::trunc) << "garbage";
    std::ofstream(path + ".prev", std::ios::trunc) << "garbage";
    const SnapshotLoad load = loadSnapshotFile(path);
    EXPECT_FALSE(load.ok);
    EXPECT_FALSE(load.diagnostic.empty());
}

TEST_F(SnapshotFileTest, MissingFileReportsCleanFailure)
{
    const SnapshotLoad load = loadSnapshotFile(path);
    EXPECT_FALSE(load.ok);
    EXPECT_FALSE(load.usedFallback);
    EXPECT_FALSE(load.diagnostic.empty());
}

TEST_F(SnapshotFileTest, UnwritableDirectoryReturnsError)
{
    std::string error;
    EXPECT_FALSE(saveSnapshotFile(
        (dir / "missing_subdir" / "x.snap").string(), sampleImage(),
        &error));
    EXPECT_FALSE(error.empty());
}

/** Small but complete experiment cell for end-to-end checkpoint tests. */
struct CellFixture
{
    trace::PowerTrace power;
    harness::ExperimentConfig config;

    CellFixture()
        : power(0.01, burstSamples(), "ckpt-test")
    {
        config.dt = 1e-3;
        config.drainAllowance = 30.0;
        config.settleTime = 5.0;
        config.strictConservation = true;
    }

    static std::vector<double> burstSamples()
    {
        // 20 s of alternating 1 s bursts and gaps.
        std::vector<double> v;
        for (int s = 0; s < 20; ++s) {
            for (int i = 0; i < 100; ++i)
                v.push_back((s % 2) == 0 ? 0.02 : 0.0);
        }
        return v;
    }

    harness::ExperimentResult run(const harness::ExperimentConfig &cfg)
    {
        auto buffer = harness::makeBuffer(harness::BufferKind::React);
        auto benchmark = harness::makeBenchmark(
            harness::BenchmarkKind::SenseCompute,
            power.duration() + 30.0, 1234);
        harvest::HarvesterFrontend frontend(power);
        return harness::runExperiment(*buffer, benchmark.get(), frontend,
                                      cfg);
    }
};

TEST_F(SnapshotFileTest, ExperimentResumeIsBitIdentical)
{
    CellFixture cell;
    const auto golden = cell.run(cell.config);
    ASSERT_GT(golden.steps, 5000u);

    auto crash_cfg = cell.config;
    crash_cfg.checkpointPath = path;
    crash_cfg.checkpointEverySteps = 1000;
    crash_cfg.haltAfterSteps = golden.steps / 2;
    const auto crashed = cell.run(crash_cfg);
    EXPECT_TRUE(crashed.halted);
    EXPECT_EQ(crashed.steps, golden.steps / 2);

    auto resume_cfg = cell.config;
    resume_cfg.checkpointPath = path;
    resume_cfg.resume = true;
    const auto resumed = cell.run(resume_cfg);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_FALSE(resumed.halted);
    EXPECT_EQ(resumed.stateDigest, golden.stateDigest);
    EXPECT_EQ(resumed.steps, golden.steps);
    EXPECT_EQ(resumed.powerCycles, golden.powerCycles);
    EXPECT_EQ(resumed.workUnits, golden.workUnits);
    EXPECT_EQ(resumed.missedEvents, golden.missedEvents);
    EXPECT_EQ(resumed.totalTime, golden.totalTime);
    EXPECT_EQ(resumed.onTime, golden.onTime);
    EXPECT_EQ(resumed.ledger.harvested.raw(),
              golden.ledger.harvested.raw());
    EXPECT_EQ(resumed.ledger.delivered.raw(),
              golden.ledger.delivered.raw());
    EXPECT_EQ(resumed.residualEnergy, golden.residualEnergy);
}

TEST_F(SnapshotFileTest, FinishedCellResumesInstantlyWithStoredResult)
{
    CellFixture cell;
    auto cfg = cell.config;
    cfg.checkpointPath = path;
    const auto first = cell.run(cfg);
    EXPECT_FALSE(first.resumed);

    auto resume_cfg = cfg;
    resume_cfg.resume = true;
    const auto second = cell.run(resume_cfg);
    EXPECT_TRUE(second.resumed);
    EXPECT_EQ(second.stateDigest, first.stateDigest);
    EXPECT_EQ(second.steps, first.steps);
    EXPECT_EQ(second.workUnits, first.workUnits);
    EXPECT_EQ(second.totalTime, first.totalTime);
    EXPECT_EQ(second.ledger.harvested.raw(),
              first.ledger.harvested.raw());
}

TEST_F(SnapshotFileTest, MismatchedCheckpointColdStartsWithDiagnostic)
{
    CellFixture cell;
    auto cfg = cell.config;
    cfg.checkpointPath = path;
    cfg.checkpointEverySteps = 1000;
    cfg.haltAfterSteps = 3000;
    (void)cell.run(cfg);  // leaves a mid-run REACT/SC checkpoint

    // Same file, different experiment: must be rejected, then complete
    // as a cold start.
    auto other_cfg = cell.config;
    other_cfg.checkpointPath = path;
    other_cfg.resume = true;
    auto buffer = harness::makeBuffer(harness::BufferKind::Morphy);
    auto benchmark = harness::makeBenchmark(
        harness::BenchmarkKind::DataEncryption,
        cell.power.duration() + 30.0, 1234);
    harvest::HarvesterFrontend frontend(cell.power);
    const auto result = harness::runExperiment(*buffer, benchmark.get(),
                                               frontend, other_cfg);
    EXPECT_FALSE(result.resumed);
    EXPECT_NE(result.snapshotDiagnostic.find("rejected"),
              std::string::npos);
    EXPECT_GT(result.steps, 0u);
}

/**
 * Re-frame a snapshot image with a zero u64 spliced into section @p name
 * at payload byte @p at (clamped to the payload end): the shape of a
 * layout that carried one more u64 field there.  Walks the documented
 * wire format and re-emits every section through SnapshotWriter so each
 * CRC is valid -- only the layout is stale.
 */
std::vector<uint8_t>
withExtraU64(const std::vector<uint8_t> &image, const std::string &name,
             size_t at)
{
    const auto le = [&image](size_t pos, int bytes) {
        uint64_t v = 0;
        for (int i = 0; i < bytes; ++i)
            v |= static_cast<uint64_t>(image[pos + i]) << (8 * i);
        return v;
    };
    SnapshotWriter w;
    const uint64_t count = le(8, 4);
    size_t pos = 12;  // magic, version, section count
    for (uint64_t s = 0; s < count; ++s) {
        const size_t name_len = image[pos];
        const std::string section(image.begin() + pos + 1,
                                  image.begin() + pos + 1 + name_len);
        const size_t payload_len = le(pos + 1 + name_len, 8);
        const size_t payload = pos + 1 + name_len + 8;
        w.beginSection(section);
        for (size_t i = 0; i <= payload_len; ++i) {
            if (section == name && i == std::min(at, payload_len))
                w.u64(0);
            if (i < payload_len)
                w.u8(image[payload + i]);
        }
        w.endSection();
        pos = payload + payload_len + 4;  // payload, CRC
    }
    return w.finish();
}

TEST_F(SnapshotFileTest, PreviousLayoutCheckpointColdStartsWithDiagnostic)
{
    // Checkpoints from before the experiment and result sections lost
    // their u64 fast-step counter (it followed `steps`) carry one more
    // field.  The format version did not change, so runExperiment must
    // catch the stale layout itself: a "rejected" diagnostic, then a
    // cold start that finishes bit-identical to an uninterrupted run --
    // whether the extra field trails the section or shifts every field
    // after `steps` (which must not turn a misread count into a huge
    // allocation).  With a fault plan the cold start must also rebuild
    // the injector, so the faulted run replays its fault stream from
    // the seed.
    const struct
    {
        const char *what;
        sim::FaultPlan plan;
    } plans[] = {
        {"fault-free", sim::FaultPlan::none()},
        {"stress faults", sim::FaultPlan::stress(1.0)},
    };
    for (const auto &p : plans) {
        SCOPED_TRACE(p.what);
        CellFixture cell;
        cell.config.faultPlan = p.plan;
        const auto cold = cell.run(cell.config);
        ASSERT_GT(cold.steps, 5000u);
        if (p.plan.enabled()) {
            ASSERT_GT(cold.faultEvents, 0u);
        }

        auto crash_cfg = cell.config;
        crash_cfg.checkpointPath = path;
        crash_cfg.checkpointEverySteps = 1000;
        crash_cfg.haltAfterSteps = cold.steps / 2;
        ASSERT_TRUE(cell.run(crash_cfg).halted);
        const SnapshotLoad mid = loadSnapshotFile(path);
        ASSERT_TRUE(mid.ok);

        auto finish_cfg = cell.config;
        finish_cfg.checkpointPath = (dir / "finished.snap").string();
        ASSERT_FALSE(cell.run(finish_cfg).halted);
        const SnapshotLoad finished =
            loadSnapshotFile(finish_cfg.checkpointPath);
        ASSERT_TRUE(finished.ok);

        // `steps` ends the fifth 8-byte field of the experiment section
        // (t, off_streak, next_record, stored_start, steps); the result
        // section opens with three strings (u32 length + bytes) and
        // three f64s.
        const size_t experiment_after_steps = 5 * 8;
        const size_t result_after_steps =
            3 * 4 + cold.bufferName.size() + cold.benchmarkName.size() +
            cold.traceName.size() + 4 * 8;
        struct Case
        {
            const char *what;
            const std::vector<uint8_t> *image;
            const char *section;
            size_t at;
        };
        const Case cases[] = {
            {"experiment, trailing", &mid.image, "experiment", SIZE_MAX},
            {"experiment, after steps", &mid.image, "experiment",
             experiment_after_steps},
            {"result, after steps", &finished.image, "result",
             result_after_steps},
        };
        for (const Case &c : cases) {
            SCOPED_TRACE(c.what);
            ASSERT_TRUE(saveSnapshotFile(
                path, withExtraU64(*c.image, c.section, c.at)));
            auto resume_cfg = cell.config;
            resume_cfg.checkpointPath = path;
            resume_cfg.resume = true;
            const auto resumed = cell.run(resume_cfg);
            EXPECT_FALSE(resumed.resumed);
            EXPECT_FALSE(resumed.halted);
            EXPECT_NE(resumed.snapshotDiagnostic.find("rejected"),
                      std::string::npos)
                << resumed.snapshotDiagnostic;
            EXPECT_EQ(resumed.stateDigest, cold.stateDigest);
            EXPECT_EQ(resumed.steps, cold.steps);
            EXPECT_EQ(resumed.workUnits, cold.workUnits);
            EXPECT_EQ(resumed.faultEvents, cold.faultEvents);
            EXPECT_EQ(resumed.recoveryEvents, cold.recoveryEvents);
        }
    }
}

/**
 * Re-frame a snapshot image with the f64 at payload byte @p at of
 * section @p name replaced by @p value.  Like withExtraU64, every section
 * is re-emitted through SnapshotWriter, so each CRC is valid.
 */
std::vector<uint8_t>
withPatchedF64(const std::vector<uint8_t> &image, const std::string &name,
               size_t at, double value)
{
    const auto le = [&image](size_t pos, int bytes) {
        uint64_t v = 0;
        for (int i = 0; i < bytes; ++i)
            v |= static_cast<uint64_t>(image[pos + i]) << (8 * i);
        return v;
    };
    SnapshotWriter w;
    const uint64_t count = le(8, 4);
    size_t pos = 12;  // magic, version, section count
    for (uint64_t s = 0; s < count; ++s) {
        const size_t name_len = image[pos];
        const std::string section(image.begin() + pos + 1,
                                  image.begin() + pos + 1 + name_len);
        const size_t payload_len = le(pos + 1 + name_len, 8);
        const size_t payload = pos + 1 + name_len + 8;
        w.beginSection(section);
        for (size_t i = 0; i < payload_len; ++i) {
            if (section == name && i == at) {
                w.f64(value);
                i += 7;
                continue;
            }
            w.u8(image[payload + i]);
        }
        w.endSection();
        pos = payload + payload_len + 4;  // payload, CRC
    }
    return w.finish();
}

TEST_F(SnapshotFileTest, MorphyCheckpointWithMixedUnitCapacitancesColdStarts)
{
    // A CRC-valid Morphy checkpoint whose pooled units disagree in
    // capacitance.  The network moves every member of a branch by one
    // voltage step divided by a single unit capacitance, so it cannot
    // represent such a pool: restore must reject the image and the run
    // cold-start, finishing bit-identical to a fresh run.
    CellFixture cell;
    const auto run_morphy = [&cell](const harness::ExperimentConfig &cfg) {
        auto buffer = harness::makeBuffer(harness::BufferKind::Morphy);
        auto benchmark = harness::makeBenchmark(
            harness::BenchmarkKind::SenseCompute,
            cell.power.duration() + 30.0, 1234);
        harvest::HarvesterFrontend frontend(cell.power);
        return harness::runExperiment(*buffer, benchmark.get(), frontend,
                                      cfg);
    };
    const auto fresh = run_morphy(cell.config);
    ASSERT_GT(fresh.steps, 5000u);

    auto crash_cfg = cell.config;
    crash_cfg.checkpointPath = path;
    crash_cfg.checkpointEverySteps = 1000;
    crash_cfg.haltAfterSteps = fresh.steps / 2;
    ASSERT_TRUE(run_morphy(crash_cfg).halted);
    const SnapshotLoad mid = loadSnapshotFile(path);
    ASSERT_TRUE(mid.ok);

    // The buffer section holds the ledger (64 B), the task capacitor
    // (16 B) and the unit count (4 B), then each unit's capacitance and
    // voltage as two f64s.  Unit 1's capacitance is 2 mF.
    const size_t unit1_capacitance = 64 + 16 + 4 + 16;
    auto resume_cfg = cell.config;
    resume_cfg.checkpointPath = path;
    resume_cfg.resume = true;

    // The offset is right: writing back the same value resumes.
    ASSERT_TRUE(saveSnapshotFile(
        path, withPatchedF64(mid.image, "buffer", unit1_capacitance, 2e-3)));
    const auto same = run_morphy(resume_cfg);
    EXPECT_TRUE(same.resumed);
    EXPECT_EQ(same.stateDigest, fresh.stateDigest);

    ASSERT_TRUE(saveSnapshotFile(
        path, withPatchedF64(mid.image, "buffer", unit1_capacitance, 3e-3)));
    const auto resumed = run_morphy(resume_cfg);
    EXPECT_FALSE(resumed.resumed);
    EXPECT_NE(resumed.snapshotDiagnostic.find("rejected"), std::string::npos)
        << resumed.snapshotDiagnostic;
    EXPECT_NE(resumed.snapshotDiagnostic.find("capacitances differ"),
              std::string::npos)
        << resumed.snapshotDiagnostic;
    EXPECT_EQ(resumed.stateDigest, fresh.stateDigest);
    EXPECT_EQ(resumed.steps, fresh.steps);
    EXPECT_EQ(resumed.workUnits, fresh.workUnits);
    EXPECT_EQ(resumed.ledger.harvested.raw(), fresh.ledger.harvested.raw());
    EXPECT_EQ(resumed.ledger.switchLoss.raw(),
              fresh.ledger.switchLoss.raw());
}

TEST_F(SnapshotFileTest, CheckpointBytesAndDigestArePinned)
{
    // A REACT + PF cell (REACT's FRAM-backed controller state, PF's
    // arrival and frame queues) halted after its first periodic
    // checkpoint, then resumed to completion.  The literals were captured
    // at commit d8a811f: they move only if a snapshot layout or the
    // simulated physics changes, and the format version says neither
    // did.
    CellFixture cell;
    const auto run_pf = [&cell](const harness::ExperimentConfig &cfg) {
        auto buffer = harness::makeBuffer(harness::BufferKind::React);
        auto benchmark = harness::makeBenchmark(
            harness::BenchmarkKind::PacketForward,
            cell.power.duration() + 30.0, 1234);
        harvest::HarvesterFrontend frontend(cell.power);
        return harness::runExperiment(*buffer, benchmark.get(), frontend,
                                      cfg);
    };
    auto crash_cfg = cell.config;
    crash_cfg.checkpointPath = path;
    crash_cfg.checkpointEverySteps = 1000;
    crash_cfg.haltAfterSteps = 1500;
    ASSERT_TRUE(run_pf(crash_cfg).halted);
    const SnapshotLoad mid = loadSnapshotFile(path);
    ASSERT_TRUE(mid.ok);
    EXPECT_EQ(crc32(mid.image.data(), mid.image.size()), 0xb41454b8u);

    auto resume_cfg = cell.config;
    resume_cfg.checkpointPath = path;
    resume_cfg.resume = true;
    const auto finished = run_pf(resume_cfg);
    EXPECT_TRUE(finished.resumed);
    EXPECT_GT(finished.steps, crash_cfg.haltAfterSteps);
    EXPECT_EQ(finished.stateDigest, 0xabdcf188u);
    const SnapshotLoad done = loadSnapshotFile(path);
    ASSERT_TRUE(done.ok);
    EXPECT_EQ(crc32(done.image.data(), done.image.size()), 0x66f397c7u);
}

TEST(CheckpointEnv, FileNameSanitizesCellKeys)
{
    EXPECT_EQ(harness::checkpointFileName("DE:RF Cart:REACT"),
              "DE_RF_Cart_REACT.snap");
    EXPECT_EQ(harness::checkpointFileName("a/b\\c"), "a_b_c.snap");
}

TEST(CheckpointEnv, AppliesDirAndInterval)
{
    harness::ExperimentConfig cfg;
    ASSERT_EQ(setenv("REACT_CHECKPOINT_DIR", "/tmp/ckpt", 1), 0);
    ASSERT_EQ(setenv("REACT_CHECKPOINT_INTERVAL", "5000", 1), 0);
    EXPECT_TRUE(harness::applyCheckpointEnv(&cfg, "DE:RF Cart:REACT"));
    EXPECT_EQ(cfg.checkpointPath, "/tmp/ckpt/DE_RF_Cart_REACT.snap");
    EXPECT_TRUE(cfg.resume);
    EXPECT_EQ(cfg.checkpointEverySteps, 5000u);

    // An explicit path (reactd's per-job name) is left alone, resume
    // and cadence included.
    harness::ExperimentConfig named;
    named.checkpointPath = "/srv/jobs/DE_RF_Cart_REACT_0000000000000007.snap";
    named.checkpointEverySteps = 123;
    EXPECT_FALSE(harness::applyCheckpointEnv(&named, "DE:RF Cart:REACT"));
    EXPECT_EQ(named.checkpointPath,
              "/srv/jobs/DE_RF_Cart_REACT_0000000000000007.snap");
    EXPECT_FALSE(named.resume);
    EXPECT_EQ(named.checkpointEverySteps, 123u);
    unsetenv("REACT_CHECKPOINT_INTERVAL");
    unsetenv("REACT_CHECKPOINT_DIR");

    harness::ExperimentConfig off;
    EXPECT_FALSE(harness::applyCheckpointEnv(&off, "x"));
    EXPECT_TRUE(off.checkpointPath.empty());
}

} // namespace
} // namespace snapshot
} // namespace react
