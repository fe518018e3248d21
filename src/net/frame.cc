#include "frame.hh"

#include <cstring>

#include "util/crc32.hh"

namespace react {
namespace net {

std::vector<uint8_t>
encodeFrame(uint8_t type, const std::vector<uint8_t> &payload)
{
    if (payload.size() > kMaxPayload)
        throw ProtocolError("frame payload of " +
                            std::to_string(payload.size()) +
                            " bytes exceeds kMaxPayload");
    std::vector<uint8_t> frame(kFrameHeaderSize + payload.size() +
                               kFrameTrailerSize);
    storeLe32(frame.data(), kFrameMagic);
    frame[4] = type;
    storeLe32(frame.data() + 5, static_cast<uint32_t>(payload.size()));
    if (!payload.empty())
        std::memcpy(frame.data() + kFrameHeaderSize, payload.data(),
                    payload.size());
    const uint32_t crc =
        crc32(frame.data(), kFrameHeaderSize + payload.size());
    storeLe32(frame.data() + kFrameHeaderSize + payload.size(), crc);
    return frame;
}

void
FrameDecoder::feed(const uint8_t *data, size_t size)
{
    if (poisoned)
        throw ProtocolError("decoder poisoned by earlier malformed input");
    buffer.insert(buffer.end(), data, data + size);
    validatePrefix();
}

void
FrameDecoder::validatePrefix()
{
    // Validate as much of the header as is present, so damage is
    // reported at the earliest provable byte rather than after a full
    // (attacker-declared) payload has been awaited.
    if (buffer.size() >= 4) {
        const uint32_t magic = loadLe32(buffer.data());
        if (magic != kFrameMagic) {
            poisoned = true;
            throw ProtocolError("bad frame magic");
        }
    }
    if (buffer.size() >= kFrameHeaderSize) {
        const uint32_t length = loadLe32(buffer.data() + 5);
        if (length > kMaxPayload) {
            poisoned = true;
            throw ProtocolError("declared payload of " +
                                std::to_string(length) +
                                " bytes exceeds kMaxPayload");
        }
    }
}

bool
FrameDecoder::next(Frame *out)
{
    if (poisoned)
        throw ProtocolError("decoder poisoned by earlier malformed input");
    if (buffer.size() < kFrameHeaderSize)
        return false;
    const uint32_t length = loadLe32(buffer.data() + 5);
    const size_t total = kFrameHeaderSize + length + kFrameTrailerSize;
    if (buffer.size() < total)
        return false;

    const uint32_t stored = loadLe32(buffer.data() + kFrameHeaderSize +
                                     length);
    const uint32_t actual = crc32(buffer.data(), kFrameHeaderSize + length);
    if (stored != actual) {
        poisoned = true;
        throw ProtocolError("frame CRC mismatch");
    }

    out->type = buffer[4];
    out->payload.assign(buffer.begin() +
                            static_cast<long>(kFrameHeaderSize),
                        buffer.begin() +
                            static_cast<long>(kFrameHeaderSize + length));
    buffer.erase(buffer.begin(), buffer.begin() + static_cast<long>(total));
    ++decoded;
    // The next frame's header may already be buffered and damaged.
    validatePrefix();
    return true;
}

} // namespace net
} // namespace react
