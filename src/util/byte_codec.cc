#include "byte_codec.hh"

#include <cstring>

namespace react {

void
ByteWriter::put(const void *data_ptr, size_t size)
{
    const auto *p = static_cast<const uint8_t *>(data_ptr);
    out.insert(out.end(), p, p + size);
}

void
ByteWriter::u32(uint32_t v)
{
    uint8_t buf[4];
    storeLe32(buf, v);
    put(buf, sizeof(buf));
}

void
ByteWriter::u64(uint64_t v)
{
    uint8_t buf[8];
    storeLe64(buf, v);
    put(buf, sizeof(buf));
}

void
ByteWriter::f64(double v)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
ByteWriter::str(const std::string &v)
{
    u32(static_cast<uint32_t>(v.size()));
    put(v.data(), v.size());
}

void
ByteWriter::bytes(const std::vector<uint8_t> &v)
{
    u32(static_cast<uint32_t>(v.size()));
    put(v.data(), v.size());
}

const uint8_t *
ByteReader::take(uint64_t size)
{
    // Checked before anything is allocated from a declared length, so a
    // length-lie cannot drive an allocation past the input size.
    if (size > remaining())
        throw DecodeError("input truncated: need " + std::to_string(size) +
                          " bytes, have " + std::to_string(remaining()));
    const uint8_t *at = base + cursor;
    cursor += static_cast<size_t>(size);
    return at;
}

double
ByteReader::f64()
{
    const uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
ByteReader::str()
{
    const uint32_t size = u32();
    return std::string(reinterpret_cast<const char *>(take(size)), size);
}

std::vector<uint8_t>
ByteReader::bytes()
{
    return blob(u32());
}

std::vector<uint8_t>
ByteReader::blob(uint64_t size)
{
    const uint8_t *at = take(size);
    return std::vector<uint8_t>(at, at + size);
}

void
ByteReader::view(const uint8_t *data_ptr, size_t size)
{
    base = data_ptr;
    end = size;
    cursor = 0;
}

void
ByteReader::expectEnd() const
{
    if (remaining() != 0)
        throw DecodeError("input has " + std::to_string(remaining()) +
                          " unconsumed trailing bytes");
}

} // namespace react
