/**
 * @file
 * Power-failure crash-consistency fuzzer for checkpoint/restore.
 *
 * The snapshot subsystem's contract is transparency: a run killed at an
 * arbitrary step and resumed from its last checkpoint must finish
 * bit-identical to a run that was never interrupted -- same state
 * digest, same ledger totals, same delivery counters.  This harness
 * enforces that the way the paper's systems are tested on hardware: by
 * actually pulling the plug.
 *
 * Three architectures (static 770 uF, Morphy, REACT) each paired with a
 * workload that exercises a distinct state surface (SC's RNG streams and
 * deadline queue, DE's block cursor, PF's arrival queue and FRAM frame
 * queue) run against a bursty synthetic trace:
 *
 *  1. Golden: one uninterrupted run records the reference digest.
 *  2. Kill points: for each of N seeded-random steps k, a checkpointed
 *     run is hard-stopped after step k (no snapshot flushes at the kill
 *     step, like a real power failure), then resumed and finished.  The
 *     resumed result must match the golden run exactly.
 *  3. Damage: the primary snapshot file is truncated, then bit-flipped;
 *     the resume must fall back to `.prev` with a diagnostic and still
 *     finish golden-identical.  A length-lie re-sealed under a valid
 *     CRC must be rejected by the decoder and cold-start, and so must
 *     (REACT only) a bank state byte no arrangement has.  With *both*
 *     files damaged it must degrade to a clean cold start -- never UB,
 *     never a wrong result.
 *
 * On a mismatch the failing snapshot files and the repro parameters are
 * preserved (crash_fuzz_failing.*) and the process exits non-zero.
 *
 * Usage: crash_fuzz [--kills N] [--seed S] [--dir PATH]
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/paper_setup.hh"
#include "harness/parallel_runner.hh"
#include "harvest/frontend.hh"
#include "trace/power_trace.hh"
#include "util/byte_codec.hh"
#include "util/crc32.hh"
#include "util/rng.hh"

namespace {

namespace fs = std::filesystem;
using namespace react;

/** Periodic checkpoint cadence for the fuzz runs, in steps.  Small, so
 *  most kill points have a recent checkpoint behind them. */
constexpr uint64_t kFuzzInterval = 2000;

/** One architecture x workload pairing under test. */
struct FuzzCase
{
    const char *label;
    harness::BufferKind buffer;
    harness::BenchmarkKind benchmark;
};

constexpr FuzzCase kCases[] = {
    {"static770uF+SC", harness::BufferKind::Static770uF,
     harness::BenchmarkKind::SenseCompute},
    {"morphy+DE", harness::BufferKind::Morphy,
     harness::BenchmarkKind::DataEncryption},
    {"react+PF", harness::BufferKind::React,
     harness::BenchmarkKind::PacketForward},
};

/**
 * Bursty deterministic trace: intermittent harvest bursts with dead air
 * between them, so every run crosses many power cycles (the state that
 * checkpointing is most likely to tear).
 */
trace::PowerTrace
makeFuzzTrace(uint64_t seed)
{
    Rng rng(seed);
    const double sample_dt = 0.01;
    const double duration = 45.0;
    std::vector<double> samples;
    samples.reserve(static_cast<size_t>(duration / sample_dt));
    double t = 0.0;
    while (t < duration) {
        const double burst = rng.uniform(0.8, 2.5);
        const double gap = rng.uniform(0.5, 2.0);
        const double level = rng.uniform(8e-3, 30e-3);
        for (double u = 0.0; u < burst && t < duration; u += sample_dt) {
            samples.push_back(level);
            t += sample_dt;
        }
        for (double u = 0.0; u < gap && t < duration; u += sample_dt) {
            samples.push_back(0.0);
            t += sample_dt;
        }
    }
    return trace::PowerTrace(sample_dt, std::move(samples), "fuzz-burst");
}

/** The exact-match fingerprint of a finished run. */
struct RunPrint
{
    uint32_t digest = 0;
    uint64_t steps = 0;
    double totalTime = 0.0;
    double latency = 0.0;
    double onTime = 0.0;
    uint64_t powerCycles = 0;
    uint64_t workUnits = 0;
    uint64_t packetsRx = 0;
    uint64_t packetsTx = 0;
    uint64_t failedOps = 0;
    uint64_t missedEvents = 0;
    double harvested = 0.0;
    double delivered = 0.0;
    double residualEnergy = 0.0;

    static RunPrint of(const harness::ExperimentResult &r)
    {
        RunPrint p;
        p.digest = r.stateDigest;
        p.steps = r.steps;
        p.totalTime = r.totalTime;
        p.latency = r.latency;
        p.onTime = r.onTime;
        p.powerCycles = r.powerCycles;
        p.workUnits = r.workUnits;
        p.packetsRx = r.packetsRx;
        p.packetsTx = r.packetsTx;
        p.failedOps = r.failedOps;
        p.missedEvents = r.missedEvents;
        p.harvested = r.ledger.harvested.raw();
        p.delivered = r.ledger.delivered.raw();
        p.residualEnergy = r.residualEnergy;
        return p;
    }

    bool operator==(const RunPrint &o) const
    {
        return digest == o.digest && steps == o.steps &&
            totalTime == o.totalTime && latency == o.latency &&
            onTime == o.onTime && powerCycles == o.powerCycles &&
            workUnits == o.workUnits && packetsRx == o.packetsRx &&
            packetsTx == o.packetsTx && failedOps == o.failedOps &&
            missedEvents == o.missedEvents && harvested == o.harvested &&
            delivered == o.delivered &&
            residualEnergy == o.residualEnergy;
    }

    void print(const char *tag) const
    {
        std::printf("  %-8s digest=%08x steps=%" PRIu64 " cycles=%" PRIu64
                    " work=%" PRIu64 " rx=%" PRIu64 " tx=%" PRIu64
                    " failed=%" PRIu64 " missed=%" PRIu64
                    " harvested=%.17g delivered=%.17g residual=%.17g\n",
                    tag, digest, steps, powerCycles, workUnits, packetsRx,
                    packetsTx, failedOps, missedEvents, harvested,
                    delivered, residualEnergy);
    }
};

/** Run one case to completion (optionally checkpointed / halted). */
harness::ExperimentResult
runCase(const FuzzCase &fc, const trace::PowerTrace &power,
        const harness::ExperimentConfig &config)
{
    auto buffer = harness::makeBuffer(fc.buffer);
    auto benchmark = harness::makeBenchmark(
        fc.benchmark, power.duration() + 60.0,
        harness::cellSeed(0xf00dull, fc.label));
    harvest::HarvesterFrontend frontend(power);
    return harness::runExperiment(*buffer, benchmark.get(), frontend,
                                  config);
}

harness::ExperimentConfig
baseConfig()
{
    harness::ExperimentConfig cfg;
    cfg.dt = 1e-3;
    cfg.drainAllowance = 60.0;
    cfg.settleTime = 5.0;
    cfg.strictConservation = true;
    return cfg;
}

void
removeSnapshots(const std::string &path)
{
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(path + ".prev", ec);
    fs::remove(path + ".tmp", ec);
}

/** Preserve the evidence of a failed comparison for offline repro. */
void
preserveFailure(const std::string &snap_path, const FuzzCase &fc,
                uint64_t seed, uint64_t kill_step)
{
    std::error_code ec;
    fs::copy_file(snap_path, "crash_fuzz_failing.snap",
                  fs::copy_options::overwrite_existing, ec);
    fs::copy_file(snap_path + ".prev", "crash_fuzz_failing.snap.prev",
                  fs::copy_options::overwrite_existing, ec);
    std::ofstream repro("crash_fuzz_failing.repro");
    repro << "case=" << fc.label << " seed=" << seed
          << " kill_step=" << kill_step << "\n";
    std::fprintf(stderr,
                 "repro: crash_fuzz --seed %" PRIu64
                 " (case %s, kill step %" PRIu64
                 "); snapshot preserved as crash_fuzz_failing.snap\n",
                 seed, fc.label, kill_step);
}

/** Flip one byte near the middle of a file. */
bool
flipByte(const std::string &path)
{
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (ec || size == 0)
        return false;
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    if (!f)
        return false;
    const std::streamoff pos = static_cast<std::streamoff>(size / 2);
    f.seekg(pos);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(pos);
    f.write(&c, 1);
    return static_cast<bool>(f);
}

/** Truncate a file to half its length (a torn write). */
bool
truncateFile(const std::string &path)
{
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (ec)
        return false;
    fs::resize_file(path, size / 2, ec);
    return !ec;
}

/**
 * Rewrite the payload of one named section in place and re-seal its CRC,
 * so the file still validates and only the decode of its fields can
 * reject it.  Walks the sections from the header (magic, version,
 * section count); each is a u8 name length, the name, the u64 payload
 * length, the payload and its u32 CRC (snapshot/snapshot.hh).
 *
 * @param edit Called with the payload and its length; returns false
 *        when the payload is too short to damage.
 */
template <typename Edit>
bool
resealedEdit(const std::string &path, const std::string &name, Edit edit)
{
    std::vector<uint8_t> image;
    {
        std::ifstream in(path, std::ios::binary);
        image.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    size_t section = 12;
    while (section < image.size()) {
        const size_t name_len = image[section];
        const size_t payload = section + 1 + name_len + 8;
        if (payload > image.size())
            return false;
        const uint64_t payload_len = loadLe64(image.data() + payload - 8);
        if (payload_len > image.size() - payload ||
            image.size() - payload - payload_len < 4)
            return false;
        const size_t end = payload + static_cast<size_t>(payload_len);
        if (std::string(image.begin() + section + 1,
                        image.begin() + section + 1 + name_len) != name) {
            section = end + 4;
            continue;
        }
        if (!edit(image.data() + payload, payload_len))
            return false;
        storeLe32(image.data() + end,
                  crc32(image.data() + section, end - section));
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(image.data()),
                  static_cast<std::streamsize>(image.size()));
        return static_cast<bool>(out);
    }
    return false;
}

/** A length-lie the CRC cannot see: rewrite the buffer-name length (the
 *  first field of the leading "meta" section) to ~4 GiB. */
bool
lengthLie(const std::string &path)
{
    return resealedEdit(path, "meta", [](uint8_t *payload, uint64_t len) {
        if (len < 4)
            return false;
        storeLe32(payload, 0xfffffff0u);
        return true;
    });
}

/**
 * An enum-lie the CRC cannot see: REACT bank 0's arrangement byte set
 * to 7, no BankState.  In the "buffer" section it follows the ledger
 * (64 B), the last-level capacitor (16 B) and the bank count (4 B).
 */
bool
enumLie(const std::string &path)
{
    constexpr size_t kBank0State = 64 + 16 + 4;
    return resealedEdit(path, "buffer", [](uint8_t *payload, uint64_t len) {
        if (len <= kBank0State)
            return false;
        payload[kBank0State] = 0x07;
        return true;
    });
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t kills = 6;
    uint64_t seed = 0xc0ffeeull;
    std::string dir = "crash_fuzz.tmp";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--kills") == 0)
            kills = std::strtoull(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--dir") == 0)
            dir = argv[i + 1];
    }

    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                     ec.message().c_str());
        return 1;
    }

    std::printf("=== crash_fuzz ===\n");
    std::printf("seed=%" PRIu64 " kills-per-case=%" PRIu64
                " checkpoint-interval=%" PRIu64 " steps\n\n",
                seed, kills, kFuzzInterval);

    const trace::PowerTrace power = makeFuzzTrace(seed);
    int failures = 0;

    for (const auto &fc : kCases) {
        const std::string snap = dir + "/" + fc.label + ".snap";
        std::printf("[%s]\n", fc.label);

        // 1. Golden reference: never interrupted, never checkpointed.
        const auto golden_result = runCase(fc, power, baseConfig());
        const RunPrint golden = RunPrint::of(golden_result);
        golden.print("golden");

        // 2. Seeded kill points across the whole run.
        Rng kill_rng(seed ^ harness::cellSeed(seed, fc.label));
        for (uint64_t i = 0; i < kills; ++i) {
            const uint64_t kill_step = 1 +
                kill_rng.next() % (golden.steps - 1);
            removeSnapshots(snap);

            auto crash_cfg = baseConfig();
            crash_cfg.checkpointPath = snap;
            crash_cfg.checkpointEverySteps = kFuzzInterval;
            crash_cfg.haltAfterSteps = kill_step;
            const auto crashed = runCase(fc, power, crash_cfg);
            if (!crashed.halted || crashed.steps != kill_step) {
                std::fprintf(stderr,
                             "kill at step %" PRIu64 " did not halt\n",
                             kill_step);
                ++failures;
                continue;
            }

            auto resume_cfg = baseConfig();
            resume_cfg.checkpointPath = snap;
            resume_cfg.checkpointEverySteps = kFuzzInterval;
            resume_cfg.resume = true;
            const auto resumed = runCase(fc, power, resume_cfg);
            const RunPrint got = RunPrint::of(resumed);
            const char *mode = resumed.resumed ? "resumed" : "cold";
            if (got == golden) {
                std::printf("  kill@%-8" PRIu64 " ok (%s)\n", kill_step,
                            mode);
            } else {
                std::printf("  kill@%-8" PRIu64 " MISMATCH (%s)\n",
                            kill_step, mode);
                got.print("got");
                preserveFailure(snap, fc, seed, kill_step);
                ++failures;
            }
        }

        // 3. Damaged-snapshot ladder: crash late enough that two
        //    checkpoint generations exist, then damage them one by one.
        const uint64_t late_kill = kFuzzInterval * 2 + 1234;
        if (late_kill < golden.steps) {
            enum class Expect
            {
                Fallback,   // primary unreadable: resume from .prev
                Rejected,   // primary validates but will not decode
                ColdStart,  // nothing usable on disk
            };
            struct DamageStage
            {
                const char *what;
                bool (*apply)(const std::string &);
                bool damagePrev;
                Expect expect;
                /** Applies to the REACT case only (bank bytes). */
                bool reactOnly;
            };
            const DamageStage stages[] = {
                {"truncated", truncateFile, false, Expect::Fallback, false},
                {"bit-flipped", flipByte, false, Expect::Fallback, false},
                {"length-lie", lengthLie, false, Expect::Rejected, false},
                {"enum-lie", enumLie, false, Expect::Rejected, true},
                {"both-destroyed", flipByte, true, Expect::ColdStart, false},
            };
            for (const auto &stage : stages) {
                if (stage.reactOnly &&
                    fc.buffer != harness::BufferKind::React)
                    continue;
                removeSnapshots(snap);
                auto crash_cfg = baseConfig();
                crash_cfg.checkpointPath = snap;
                crash_cfg.checkpointEverySteps = kFuzzInterval;
                crash_cfg.haltAfterSteps = late_kill;
                (void)runCase(fc, power, crash_cfg);

                if (!stage.apply(snap)) {
                    std::fprintf(stderr, "could not damage %s\n",
                                 snap.c_str());
                    ++failures;
                    continue;
                }
                if (stage.damagePrev)
                    (void)flipByte(snap + ".prev");

                auto resume_cfg = baseConfig();
                resume_cfg.checkpointPath = snap;
                resume_cfg.checkpointEverySteps = kFuzzInterval;
                resume_cfg.resume = true;
                const auto resumed = runCase(fc, power, resume_cfg);
                const RunPrint got = RunPrint::of(resumed);

                bool outcome_ok = !resumed.resumed;
                const char *outcome = "cold start";
                if (stage.expect == Expect::Fallback) {
                    outcome_ok = resumed.snapshotFallback && resumed.resumed;
                    outcome = "fell back to .prev";
                } else if (stage.expect == Expect::Rejected) {
                    outcome_ok = outcome_ok && !resumed.snapshotFallback &&
                        resumed.snapshotDiagnostic.find("rejected") !=
                            std::string::npos;
                    outcome = "rejected, cold start";
                }
                if (got == golden && outcome_ok &&
                    !resumed.snapshotDiagnostic.empty()) {
                    std::printf("  damage:%-14s ok (%s)\n", stage.what,
                                outcome);
                } else {
                    std::printf("  damage:%-14s FAILED (resumed=%d "
                                "fallback=%d diagnostic='%s')\n",
                                stage.what, resumed.resumed ? 1 : 0,
                                resumed.snapshotFallback ? 1 : 0,
                                resumed.snapshotDiagnostic.c_str());
                    got.print("got");
                    preserveFailure(snap, fc, seed, late_kill);
                    ++failures;
                }
            }
        }
        removeSnapshots(snap);
        std::printf("\n");
    }

    fs::remove_all(dir, ec);
    if (failures > 0) {
        std::printf("crash_fuzz: %d FAILURE(S)\n", failures);
        return 1;
    }
    std::printf("crash_fuzz: all kill points and damage modes "
                "bit-identical to the golden run\n");
    return 0;
}
