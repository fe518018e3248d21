/**
 * @file
 * The repository's one little-endian byte codec.
 *
 * Everything this reproduction persists or sends -- RNET payloads
 * (net/wire.hh), RNET frame headers (net/frame.hh), RSNP snapshot
 * sections (snapshot/snapshot.hh), REACT's FRAM record, the intermittent
 * runtime's u64 variables and the auth nonces -- is encoded here:
 *
 *  - integers little-endian, through the fixed-offset storeLe/loadLe
 *    helpers below (the only place in src/ that shifts bytes into
 *    words);
 *  - doubles as their IEEE-754 bit pattern (bit-exact round trip,
 *    -0.0 and NaN payloads included);
 *  - strings as u32 length + raw bytes; byte blobs as a length + raw
 *    bytes, where the length is a u32 here and a u64 in snapshot
 *    sections (the one format difference, a virtual bytes() override).
 *
 * ByteReader is strict: every read is bounds-checked against the view,
 * variable-length reads validate the declared length against
 * remaining() *before* allocating (a length-lie can never drive an
 * allocation larger than the input), and any malformed input throws
 * DecodeError -- one catchable type for RNET payloads and snapshots
 * alike, never UB, never std::length_error or bad_alloc.
 */

#ifndef REACT_UTIL_BYTE_CODEC_HH
#define REACT_UTIL_BYTE_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace react {

/** Raised on any malformed encoded input (truncation, length-lie,
 *  trailing bytes, bad framing).  net::ProtocolError and
 *  snapshot::SnapshotError name this type. */
class DecodeError : public std::runtime_error
{
  public:
    explicit DecodeError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

/** @name Fixed-offset little-endian fields (no bounds check; for
 *  records written in place into a buffer the caller has sized). @{ */
inline void
storeLe32(uint8_t *at, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        at[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline void
storeLe64(uint8_t *at, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        at[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline uint32_t
loadLe32(const uint8_t *at)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(at[i]) << (8 * i);
    return v;
}

inline uint64_t
loadLe64(const uint8_t *at)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(at[i]) << (8 * i);
    return v;
}
/** @} */

/** Appends primitives to a growing byte buffer. */
class ByteWriter
{
  public:
    ByteWriter() = default;
    ByteWriter(const ByteWriter &) = default;
    ByteWriter(ByteWriter &&) = default;
    ByteWriter &operator=(const ByteWriter &) = default;
    ByteWriter &operator=(ByteWriter &&) = default;
    virtual ~ByteWriter() = default;

    void u8(uint8_t v) { out.push_back(v); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    /** Stored as the IEEE-754 bit pattern: bit-exact round trip. */
    void f64(double v);
    /** u32 length prefix + raw bytes. */
    void str(const std::string &v);
    /** u32 length prefix + raw bytes (u64 in snapshot sections). */
    virtual void bytes(const std::vector<uint8_t> &v);

    const std::vector<uint8_t> &data() const { return out; }
    std::vector<uint8_t> take() { return std::move(out); }

  protected:
    void put(const void *data_ptr, size_t size);

    std::vector<uint8_t> out;
};

/**
 * Reads primitives back out of a byte view.  The reader does not own
 * the bytes; they must outlive it.  Every read throws DecodeError on
 * overrun.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data_ptr, size_t size)
        : base(data_ptr), end(size)
    {
    }
    explicit ByteReader(const std::vector<uint8_t> &bytes_in)
        : ByteReader(bytes_in.data(), bytes_in.size())
    {
    }
    ByteReader(const ByteReader &) = default;
    ByteReader &operator=(const ByteReader &) = default;
    virtual ~ByteReader() = default;

    uint8_t u8() { return *take(1); }
    bool b() { return u8() != 0; }
    uint32_t u32() { return loadLe32(take(4)); }
    uint64_t u64() { return loadLe64(take(8)); }
    int64_t i64() { return static_cast<int64_t>(u64()); }
    double f64();
    std::string str();
    /** u32 length prefix + raw bytes (u64 in snapshot sections). */
    virtual std::vector<uint8_t> bytes();

    /** Bytes not yet consumed. */
    size_t remaining() const { return end - cursor; }

    /** Throw unless the view was consumed exactly. */
    void expectEnd() const;

  protected:
    /** Consume @p size bytes; throws DecodeError past the end.  A u64
     *  so that no declared length can wrap the check. */
    const uint8_t *take(uint64_t size);
    /** Copy out a blob whose declared length was just read. */
    std::vector<uint8_t> blob(uint64_t size);
    /** Re-point the reader at a new view (snapshot sections). */
    void view(const uint8_t *data_ptr, size_t size);

  private:
    const uint8_t *base;
    size_t end;
    size_t cursor = 0;
};

} // namespace react

#endif // REACT_UTIL_BYTE_CODEC_HH
