/**
 * @file
 * Versioned, CRC-32-guarded binary snapshots of simulator state.
 *
 * The paper's systems survive power failure by persisting state in FRAM;
 * the simulator itself gets the same property here so a long sweep that
 * dies mid-run can resume per-cell instead of starting over.  Every
 * stateful component implements save(SnapshotWriter&) / restore
 * (SnapshotReader&) against this format, and determinism (PR 3's
 * bit-identical cells) makes correctness checkable: a run restored from
 * any checkpoint must finish bit-identical to an uninterrupted run,
 * which the crash_fuzz harness enforces.
 *
 * ## Wire format
 *
 * Sections are framing on top of the repository's one byte codec
 * (util/byte_codec.hh); a component's save()/restore() writes and reads
 * codec primitives inside an open section:
 *
 *     header : u32 magic "RSNP" (0x52534e50, little-endian)
 *              u32 format version (kFormatVersion)
 *              u32 section count (patched when the writer finishes)
 *     section: u8  name length
 *              ... name bytes
 *              u64 payload length (little-endian)
 *              ... payload (codec primitives)
 *              u32 CRC-32 of the section record above (name length,
 *                  name, payload length, payload; little-endian)
 *
 * Payload primitives are encoded exactly as in an RNET payload, with
 * one difference: a byte blob's length prefix is a u64 here (u32 on the
 * wire) -- SnapshotWriter/SnapshotReader override bytes() for it and
 * nothing else.  Each section's CRC covers its entire record -- a
 * flipped byte anywhere but the header is a CRC mismatch -- and the
 * header's section count makes a file truncated at a clean section
 * boundary detectable too.  SnapshotReader validates the whole image in
 * its constructor and throws SnapshotError on any damage, before any
 * component sees a byte of it; a CRC-valid section whose fields do not
 * parse (a stale layout, a length-lie) throws the same type from the
 * codec's bounds checks.
 *
 * ## Atomic file protocol
 *
 * saveSnapshotFile() never overwrites the last good snapshot in place:
 * it writes `path.tmp`, rotates any existing `path` to `path.prev`, and
 * renames the temp file into place.  A crash at any point leaves either
 * the new snapshot, the previous one, or both on disk; loadSnapshotFile()
 * falls back from `path` to `path.prev` with a diagnostic, and reports
 * cleanly when neither validates (callers then cold-start, which is
 * always correct -- just slower).
 */

#ifndef REACT_SNAPSHOT_SNAPSHOT_HH
#define REACT_SNAPSHOT_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/byte_codec.hh"

namespace react {

class Rng;

namespace snapshot {

/** Format magic: "RSNP" read as a little-endian u32. */
constexpr uint32_t kMagic = 0x504e5352u;
/** Bumped on any incompatible wire-format change. */
constexpr uint32_t kFormatVersion = 1;

/** Raised on any validation failure (bad magic, wrong version, CRC
 *  mismatch, truncation, section-order or read-size mismatch).  Always
 *  catchable: a damaged snapshot degrades to a cold start, never UB.
 *  The codec's one decode-error type (util/byte_codec.hh). */
using SnapshotError = DecodeError;

/** Writes codec primitives into named, CRC-framed sections. */
class SnapshotWriter : public ByteWriter
{
  public:
    SnapshotWriter();

    /** Open a section.  Sections cannot nest, and primitives written
     *  outside a section are caught here or in finish() (programmer
     *  errors). */
    void beginSection(const std::string &name);

    /** Close the open section: patches its length, appends its CRC. */
    void endSection();

    /** u64 length prefix + raw bytes. */
    void bytes(const std::vector<uint8_t> &v) override;

    /** Finish the snapshot and take the image (writer is spent). */
    std::vector<uint8_t> finish();

  private:
    /** Offset of the open section's length field; SIZE_MAX when none
     *  is open. */
    size_t lengthPos = SIZE_MAX;
    /** End of the last closed section (or of the header): where the
     *  next section record, and its CRC span, starts. */
    size_t sealed = 0;
    /** Sections closed so far; patched into the header by finish(). */
    uint32_t sectionCount = 0;
};

/** Validates a snapshot image up front, then replays its sections; the
 *  inherited codec reads see only the open section's payload. */
class SnapshotReader : public ByteReader
{
  public:
    /**
     * Parse and fully validate the image: header, every section's
     * framing, every section's CRC.  @throws SnapshotError on damage.
     */
    explicit SnapshotReader(std::vector<uint8_t> image_bytes);
    /** Sections are views into the owned image. */
    SnapshotReader(const SnapshotReader &) = delete;
    SnapshotReader &operator=(const SnapshotReader &) = delete;

    /**
     * Open the next section; its name must match (sections are replayed
     * in the order they were written).  @throws SnapshotError otherwise.
     */
    void beginSection(const std::string &name);

    /** Close the section; throws unless every payload byte was read. */
    void endSection();

    /** u64 length prefix + raw bytes. */
    std::vector<uint8_t> bytes() override;

    /** Number of sections in the image. */
    size_t sectionCount() const { return sections.size(); }

  private:
    struct Section
    {
        std::string name;
        size_t payloadStart = 0;
        size_t payloadSize = 0;
    };

    std::vector<uint8_t> image;
    std::vector<Section> sections;
    /** Index of the next section beginSection() will open. */
    size_t nextSection = 0;
    bool sectionOpen = false;
};

/** Serialize a full RNG stream (xoshiro words + the Box-Muller cached
 *  normal -- omitting the cache would desynchronize normal() draws). */
void saveRng(SnapshotWriter &w, const Rng &rng);
void restoreRng(SnapshotReader &r, Rng *rng);

/** Validate an image without constructing a reader.
 *  @param error Filled with a diagnostic on failure (may be null).
 *  @return true when the image parses and every CRC checks out. */
bool validateImage(const std::vector<uint8_t> &image, std::string *error);

/**
 * Write a snapshot image atomically: `path.tmp` -> rotate existing
 * `path` to `path.prev` -> rename into place.  A power failure at any
 * point leaves at least one valid snapshot on disk.
 *
 * @return false (with a diagnostic in @p error, may be null) on I/O
 *         failure; never throws.
 */
bool saveSnapshotFile(const std::string &path,
                      const std::vector<uint8_t> &image,
                      std::string *error = nullptr);

/** Outcome of loadSnapshotFile(). */
struct SnapshotLoad
{
    /** The validated image (empty when ok == false). */
    std::vector<uint8_t> image;
    /** Whether any snapshot loaded. */
    bool ok = false;
    /** True when `path` was damaged/missing and `path.prev` was used. */
    bool usedFallback = false;
    /** Human-readable account of what happened (always filled). */
    std::string diagnostic;
};

/**
 * Load `path`, falling back to `path.prev` when the primary file is
 * missing, truncated, or fails CRC validation.  Never throws: a result
 * with ok == false means the caller must cold-start.
 */
SnapshotLoad loadSnapshotFile(const std::string &path);

} // namespace snapshot
} // namespace react

#endif // REACT_SNAPSHOT_SNAPSHOT_HH
