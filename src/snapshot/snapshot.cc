#include "snapshot.hh"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace react {
namespace snapshot {

namespace {

/** Little-endian u32 at a raw position (no bounds check). */
void
storeU32(uint8_t *at, uint32_t v)
{
    at[0] = static_cast<uint8_t>(v & 0xffu);
    at[1] = static_cast<uint8_t>((v >> 8) & 0xffu);
    at[2] = static_cast<uint8_t>((v >> 16) & 0xffu);
    at[3] = static_cast<uint8_t>((v >> 24) & 0xffu);
}

void
storeU64(uint8_t *at, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        at[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xffu);
}

uint32_t
fetchU32(const uint8_t *at)
{
    return static_cast<uint32_t>(at[0]) |
        (static_cast<uint32_t>(at[1]) << 8) |
        (static_cast<uint32_t>(at[2]) << 16) |
        (static_cast<uint32_t>(at[3]) << 24);
}

uint64_t
fetchU64(const uint8_t *at)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(at[i]) << (8 * i);
    return v;
}

/**
 * Shared framing walk: parse the header and every section of an image,
 * checking bounds and CRCs.  On success fills @p out_sections (section
 * name + payload range, in file order) when non-null.
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
    if (fetchU32(image.data()) != kMagic)
        return "bad snapshot magic (not a snapshot file?)";
    const uint32_t version = fetchU32(image.data() + 4);
    if (version != kFormatVersion) {
        std::snprintf(msg, sizeof(msg),
                      "unsupported snapshot format version %u (want %u)",
                      version, kFormatVersion);
        return msg;
    }
    const uint32_t declared = fetchU32(image.data() + 8);
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
        const uint64_t payload_len = fetchU64(image.data() + pos);
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
        const uint32_t stored_crc = fetchU32(image.data() + pos);
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
    image.reserve(256);
    uint8_t header[12];
    storeU32(header, kMagic);
    storeU32(header + 4, kFormatVersion);
    storeU32(header + 8, 0);  // section count, patched by finish()
    image.insert(image.end(), header, header + 12);
}

void
SnapshotWriter::put(const void *data, size_t size)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    image.insert(image.end(), p, p + size);
}

void
SnapshotWriter::beginSection(const std::string &name)
{
    react_assert(lengthPos == SIZE_MAX,
                 "snapshot sections cannot nest (endSection missing)");
    react_assert(!name.empty() && name.size() <= 255,
                 "snapshot section name must be 1..255 bytes");
    sectionPos = image.size();
    image.push_back(static_cast<uint8_t>(name.size()));
    put(name.data(), name.size());
    lengthPos = image.size();
    const uint8_t zeros[8] = {};
    put(zeros, 8);
    payloadPos = image.size();
}

void
SnapshotWriter::endSection()
{
    react_assert(lengthPos != SIZE_MAX,
                 "endSection without a matching beginSection");
    const size_t payload_len = image.size() - payloadPos;
    storeU64(image.data() + lengthPos,
             static_cast<uint64_t>(payload_len));
    // CRC over the whole section record so the name framing is guarded
    // too, matching walkImage().
    const uint32_t crc =
        crc32(image.data() + sectionPos, image.size() - sectionPos);
    uint8_t crc_bytes[4];
    storeU32(crc_bytes, crc);
    put(crc_bytes, 4);
    lengthPos = SIZE_MAX;
    ++sectionCount;
}

void
SnapshotWriter::u8(uint8_t v)
{
    react_assert(lengthPos != SIZE_MAX,
                 "snapshot primitives need an open section");
    image.push_back(v);
}

void
SnapshotWriter::b(bool v)
{
    u8(v ? 1 : 0);
}

void
SnapshotWriter::u32(uint32_t v)
{
    uint8_t enc[4];
    storeU32(enc, v);
    react_assert(lengthPos != SIZE_MAX,
                 "snapshot primitives need an open section");
    put(enc, 4);
}

void
SnapshotWriter::u64(uint64_t v)
{
    uint8_t enc[8];
    storeU64(enc, v);
    react_assert(lengthPos != SIZE_MAX,
                 "snapshot primitives need an open section");
    put(enc, 8);
}

void
SnapshotWriter::i64(int64_t v)
{
    uint64_t enc;
    std::memcpy(&enc, &v, sizeof(enc));
    u64(enc);
}

void
SnapshotWriter::f64(double v)
{
    uint64_t enc;
    std::memcpy(&enc, &v, sizeof(enc));
    u64(enc);
}

void
SnapshotWriter::str(const std::string &v)
{
    u32(static_cast<uint32_t>(v.size()));
    react_assert(lengthPos != SIZE_MAX,
                 "snapshot primitives need an open section");
    put(v.data(), v.size());
}

void
SnapshotWriter::bytes(const std::vector<uint8_t> &v)
{
    u64(static_cast<uint64_t>(v.size()));
    react_assert(lengthPos != SIZE_MAX,
                 "snapshot primitives need an open section");
    put(v.data(), v.size());
}

std::vector<uint8_t>
SnapshotWriter::finish()
{
    react_assert(lengthPos == SIZE_MAX,
                 "finish() with an open section (endSection missing)");
    storeU32(image.data() + 8, sectionCount);
    return std::move(image);
}

SnapshotReader::SnapshotReader(std::vector<uint8_t> image_bytes)
    : image(std::move(image_bytes))
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
    if (cursor != SIZE_MAX)
        throw SnapshotError("beginSection('" + name +
                            "') with a section still open");
    if (nextSection >= sections.size())
        throw SnapshotError("snapshot ended before section '" + name + "'");
    const Section &s = sections[nextSection];
    if (s.name != name)
        throw SnapshotError("snapshot section order mismatch: expected '" +
                            name + "', found '" + s.name + "'");
    cursor = s.payloadStart;
    payloadEnd = s.payloadStart + s.payloadSize;
    ++nextSection;
}

void
SnapshotReader::endSection()
{
    if (cursor == SIZE_MAX)
        throw SnapshotError("endSection without an open section");
    if (cursor != payloadEnd)
        throw SnapshotError("snapshot section '" +
                            sections[nextSection - 1].name +
                            "' not fully consumed (layout mismatch)");
    cursor = SIZE_MAX;
}

void
SnapshotReader::take(void *out, size_t size)
{
    if (cursor == SIZE_MAX)
        throw SnapshotError("snapshot read outside any section");
    if (cursor + size > payloadEnd)
        throw SnapshotError("snapshot section '" +
                            sections[nextSection - 1].name +
                            "' read past its end (layout mismatch)");
    std::memcpy(out, image.data() + cursor, size);
    cursor += size;
}

uint8_t
SnapshotReader::u8()
{
    uint8_t v;
    take(&v, 1);
    return v;
}

bool
SnapshotReader::b()
{
    return u8() != 0;
}

uint32_t
SnapshotReader::u32()
{
    uint8_t enc[4];
    take(enc, 4);
    return fetchU32(enc);
}

uint64_t
SnapshotReader::u64()
{
    uint8_t enc[8];
    take(enc, 8);
    return fetchU64(enc);
}

int64_t
SnapshotReader::i64()
{
    const uint64_t enc = u64();
    int64_t v;
    std::memcpy(&v, &enc, sizeof(v));
    return v;
}

double
SnapshotReader::f64()
{
    const uint64_t enc = u64();
    double v;
    std::memcpy(&v, &enc, sizeof(v));
    return v;
}

std::string
SnapshotReader::str()
{
    const uint32_t n = u32();
    if (cursor + n > payloadEnd)
        throw SnapshotError("snapshot string overruns its section");
    std::string v(n, '\0');
    if (n > 0)
        take(v.data(), n);
    return v;
}

std::vector<uint8_t>
SnapshotReader::bytes()
{
    const uint64_t n = u64();
    if (cursor == SIZE_MAX || cursor + n > payloadEnd)
        throw SnapshotError("snapshot byte array overruns its section");
    std::vector<uint8_t> v(static_cast<size_t>(n));
    if (n > 0)
        take(v.data(), static_cast<size_t>(n));
    return v;
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
