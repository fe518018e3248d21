/**
 * @file
 * Protocol payload codec: the shared byte codec (util/byte_codec.hh)
 * under the names the serving layer uses.
 *
 * Frames (net/frame.hh) guarantee integrity -- a payload that reaches a
 * WireReader has already passed its CRC.  The codec guarantees *shape*:
 * every decode is bounds-checked against the payload, variable-length
 * fields are validated against the bytes actually present before
 * anything is allocated, and a parser that walks off the end throws
 * ProtocolError instead of over-reading.  RNET payloads use the codec
 * exactly as defined there (u32 blob lengths); RSNP snapshot sections
 * differ only in their u64 blob length.
 */

#ifndef REACT_NET_WIRE_HH
#define REACT_NET_WIRE_HH

#include "util/byte_codec.hh"

namespace react {
namespace net {

/** Raised on any malformed protocol input (framing or payload shape).
 *  Always catchable: a bad peer costs a connection, never the server. */
using ProtocolError = DecodeError;
using WireWriter = ByteWriter;
using WireReader = ByteReader;

} // namespace net
} // namespace react

#endif // REACT_NET_WIRE_HH
