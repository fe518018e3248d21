#include "snapshot.hh"

#include <cstdio>
#include <fstream>

#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace react {
namespace snapshot {

namespace {

/**
 * Shared framing walk: parse the header and every section of an image,
 * checking bounds and CRCs, handing each section (name + payload range,
 * in file order) to @p sink.
 *
 * @return Empty string on success, else a diagnostic.
 */
template <typename SectionSink>
std::string
walkImage(const std::vector<uint8_t> &image, SectionSink &&sink)
{
    char msg[160];
    if (image.size() < 12)
        return "snapshot shorter than its 12-byte header";
    if (loadLe32(image.data()) != kMagic)
        return "bad snapshot magic (not a snapshot file?)";
    const uint32_t version = loadLe32(image.data() + 4);
    if (version != kFormatVersion) {
        std::snprintf(msg, sizeof(msg),
                      "unsupported snapshot format version %u (want %u)",
                      version, kFormatVersion);
        return msg;
    }
    const uint32_t declared = loadLe32(image.data() + 8);
    size_t pos = 12;
    size_t index = 0;
    while (pos < image.size()) {
        if (index >= declared) {
            std::snprintf(msg, sizeof(msg),
                          "trailing bytes after the %u declared sections",
                          declared);
            return msg;
        }
        const size_t section_start = pos;
        const size_t name_len = image[pos];
        ++pos;
        if (pos + name_len > image.size()) {
            std::snprintf(msg, sizeof(msg),
                          "section %zu: truncated name", index);
            return msg;
        }
        const std::string name(
            reinterpret_cast<const char *>(image.data() + pos), name_len);
        pos += name_len;
        if (pos + 8 > image.size()) {
            std::snprintf(msg, sizeof(msg),
                          "section %zu ('%s'): truncated length field",
                          index, name.c_str());
            return msg;
        }
        const uint64_t payload_len = loadLe64(image.data() + pos);
        pos += 8;
        if (payload_len > image.size() ||
            pos + payload_len + 4 > image.size()) {
            std::snprintf(msg, sizeof(msg),
                          "section %zu ('%s'): truncated payload "
                          "(%llu bytes claimed)",
                          index, name.c_str(),
                          static_cast<unsigned long long>(payload_len));
            return msg;
        }
        const size_t payload_start = pos;
        pos += static_cast<size_t>(payload_len);
        const uint32_t stored_crc = loadLe32(image.data() + pos);
        pos += 4;
        // The CRC spans the whole section record (name framing included,
        // CRC itself excluded): a flipped name byte is damage too.
        const uint32_t actual_crc =
            crc32(image.data() + section_start, pos - 4 - section_start);
        if (stored_crc != actual_crc) {
            std::snprintf(msg, sizeof(msg),
                          "section %zu ('%s'): CRC mismatch "
                          "(stored %08x, computed %08x)",
                          index, name.c_str(), stored_crc, actual_crc);
            return msg;
        }
        sink(name, payload_start, static_cast<size_t>(payload_len));
        ++index;
    }
    if (index != declared) {
        std::snprintf(msg, sizeof(msg),
                      "snapshot truncated: %zu of %u declared sections "
                      "present",
                      index, declared);
        return msg;
    }
    return std::string();
}

} // namespace

SnapshotWriter::SnapshotWriter()
{
    out.reserve(256);
    u32(kMagic);
    u32(kFormatVersion);
    u32(0);  // section count, patched by finish()
    sealed = out.size();
}

void
SnapshotWriter::beginSection(const std::string &name)
{
    react_assert(lengthPos == SIZE_MAX,
                 "snapshot sections cannot nest (endSection missing)");
    react_assert(out.size() == sealed,
                 "snapshot primitives need an open section");
    react_assert(!name.empty() && name.size() <= 255,
                 "snapshot section name must be 1..255 bytes");
    u8(static_cast<uint8_t>(name.size()));
    put(name.data(), name.size());
    lengthPos = out.size();
    u64(0);  // payload length, patched by endSection()
}

void
SnapshotWriter::endSection()
{
    react_assert(lengthPos != SIZE_MAX,
                 "endSection without a matching beginSection");
    const size_t payload_len = out.size() - (lengthPos + 8);
    storeLe64(out.data() + lengthPos, static_cast<uint64_t>(payload_len));
    // CRC over the whole section record so the name framing is guarded
    // too, matching walkImage().
    u32(crc32(out.data() + sealed, out.size() - sealed));
    lengthPos = SIZE_MAX;
    sealed = out.size();
    ++sectionCount;
}

void
SnapshotWriter::bytes(const std::vector<uint8_t> &v)
{
    u64(static_cast<uint64_t>(v.size()));
    put(v.data(), v.size());
}

std::vector<uint8_t>
SnapshotWriter::finish()
{
    react_assert(lengthPos == SIZE_MAX,
                 "finish() with an open section (endSection missing)");
    react_assert(out.size() == sealed,
                 "snapshot primitives need an open section");
    storeLe32(out.data() + 8, sectionCount);
    return take();
}

SnapshotReader::SnapshotReader(std::vector<uint8_t> image_bytes)
    : ByteReader(nullptr, 0), image(std::move(image_bytes))
{
    const std::string err = walkImage(
        image, [this](const std::string &name, size_t start, size_t size) {
            sections.push_back(Section{name, start, size});
        });
    if (!err.empty())
        throw SnapshotError(err);
}

void
SnapshotReader::beginSection(const std::string &name)
{
    if (sectionOpen)
        throw SnapshotError("beginSection('" + name +
                            "') with a section still open");
    if (nextSection >= sections.size())
        throw SnapshotError("snapshot ended before section '" + name + "'");
    const Section &s = sections[nextSection];
    if (s.name != name)
        throw SnapshotError("snapshot section order mismatch: expected '" +
                            name + "', found '" + s.name + "'");
    view(image.data() + s.payloadStart, s.payloadSize);
    sectionOpen = true;
    ++nextSection;
}

void
SnapshotReader::endSection()
{
    if (!sectionOpen)
        throw SnapshotError("endSection without an open section");
    if (remaining() != 0)
        throw SnapshotError("snapshot section '" +
                            sections[nextSection - 1].name +
                            "' not fully consumed (layout mismatch)");
    // Reads between sections now see an empty view and throw.
    view(nullptr, 0);
    sectionOpen = false;
}

std::vector<uint8_t>
SnapshotReader::bytes()
{
    return blob(u64());
}

bool
validateImage(const std::vector<uint8_t> &image, std::string *error)
{
    const std::string err =
        walkImage(image, [](const std::string &, size_t, size_t) {});
    if (!err.empty()) {
        if (error)
            *error = err;
        return false;
    }
    return true;
}

namespace {

/** Read a whole file; returns false when it cannot be opened. */
bool
readFile(const std::string &path, std::vector<uint8_t> *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    out->resize(size > 0 ? static_cast<size_t>(size) : 0);
    if (!out->empty())
        in.read(reinterpret_cast<char *>(out->data()),
                static_cast<std::streamsize>(out->size()));
    return static_cast<bool>(in);
}

} // namespace

bool
saveSnapshotFile(const std::string &path, const std::vector<uint8_t> &image,
                 std::string *error)
{
    const std::string tmp = path + ".tmp";
    const std::string prev = path + ".prev";
    {
        std::FILE *f = std::fopen(tmp.c_str(), "wb");
        if (!f) {
            if (error)
                *error = "cannot open '" + tmp + "' for writing";
            return false;
        }
        const size_t wrote =
            image.empty() ? 0 : std::fwrite(image.data(), 1, image.size(), f);
        const bool flushed = std::fflush(f) == 0;
        std::fclose(f);
        if (wrote != image.size() || !flushed) {
            if (error)
                *error = "short write to '" + tmp + "'";
            std::remove(tmp.c_str());
            return false;
        }
    }
    // Keep the previous good snapshot as the fallback generation.  If
    // the process dies between these two renames the primary name is
    // briefly absent, but `path.prev` is valid -- exactly the case
    // loadSnapshotFile() recovers from.
    std::remove(prev.c_str());
    std::rename(path.c_str(), prev.c_str());  // may fail: first snapshot
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error)
            *error = "cannot rename '" + tmp + "' into place";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

SnapshotLoad
loadSnapshotFile(const std::string &path)
{
    SnapshotLoad out;
    std::string primary_err;
    std::vector<uint8_t> data;
    if (!readFile(path, &data)) {
        primary_err = "cannot read '" + path + "'";
    } else if (!validateImage(data, &primary_err)) {
        primary_err = "'" + path + "': " + primary_err;
    } else {
        out.image = std::move(data);
        out.ok = true;
        out.diagnostic = "loaded snapshot '" + path + "'";
        return out;
    }

    const std::string prev = path + ".prev";
    std::string prev_err;
    data.clear();
    if (!readFile(prev, &data)) {
        prev_err = "cannot read '" + prev + "'";
    } else if (!validateImage(data, &prev_err)) {
        prev_err = "'" + prev + "': " + prev_err;
    } else {
        out.image = std::move(data);
        out.ok = true;
        out.usedFallback = true;
        out.diagnostic = primary_err +
            "; recovered from previous snapshot '" + prev + "'";
        return out;
    }

    out.diagnostic = primary_err + "; " + prev_err + "; cold-starting";
    return out;
}

void
saveRng(SnapshotWriter &w, const Rng &rng)
{
    const RngState st = rng.state();
    for (uint64_t word : st.s)
        w.u64(word);
    w.b(st.haveCachedNormal);
    w.f64(st.cachedNormal);
}

void
restoreRng(SnapshotReader &r, Rng *rng)
{
    RngState st;
    for (auto &word : st.s)
        word = r.u64();
    st.haveCachedNormal = r.b();
    st.cachedNormal = r.f64();
    rng->setState(st);
}

} // namespace snapshot
} // namespace react
