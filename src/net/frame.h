// ETLNET1 framing: the length-prefixed, checksummed envelope every
// message on the optimizer wire travels in.
//
//   offset  size  field
//   0       8     magic "ETLNET1\0"
//   8       1     frame type (FrameType)
//   9       8     payload length, u64 little-endian
//   17      N     payload (protocol.h defines the per-type encodings)
//   17+N    8     FNV-64 over (type byte + payload), u64 little-endian
//
// Decoding is defensive end to end: bad magic, unknown type, an
// oversized length prefix (checked against max_frame_bytes BEFORE any
// allocation), truncation, and a bad checksum all fail with a clean
// InvalidArgument — a corrupt or malicious frame can never produce a
// partially-decoded message or an allocation bomb. The same codec runs
// on both sides, so the fuzz tests exercise the server's exact parsing
// path in memory.

#ifndef ETLOPT_NET_FRAME_H_
#define ETLOPT_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/statusor.h"
#include "net/socket.h"

namespace etlopt {

inline constexpr char kNetMagic[8] = {'E', 'T', 'L', 'N', 'E', 'T',
                                      '1', '\0'};
/// magic + type + length prefix.
inline constexpr size_t kFrameHeaderBytes = sizeof(kNetMagic) + 1 + 8;
inline constexpr size_t kFrameChecksumBytes = 8;

/// Request types the client sends; response types the server answers
/// with. kError carries a Status for any failed request.
enum class FrameType : uint8_t {
  kOptimizeRequest = 1,
  kStatsRequest = 2,
  kSavePlansRequest = 3,
  kHealthRequest = 4,

  kOptimizeResponse = 65,
  kStatsResponse = 66,
  kSavePlansResponse = 67,
  kHealthResponse = 68,

  kErrorResponse = 127,
};

/// True for the types a decoder may legally see at all.
bool IsKnownFrameType(uint8_t type);

struct Frame {
  FrameType type = FrameType::kErrorResponse;
  std::string payload;
};

/// Serializes one frame (header + payload + checksum).
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Decodes one complete frame from `bytes`, which must contain exactly
/// one frame. Rejects bad magic/type, length mismatch against the actual
/// buffer, payloads past `max_frame_bytes`, and a bad checksum.
StatusOr<Frame> DecodeFrame(std::string_view bytes, size_t max_frame_bytes);

/// Writes one frame to the socket (single WriteFully, so the net.write
/// fault site covers the whole frame).
Status WriteFrame(Socket& socket, FrameType type, std::string_view payload);

/// Reads one frame: header first (so the length prefix is validated
/// against max_frame_bytes before the payload buffer is sized), then
/// payload + checksum. Any truncation — a peer that stalls, dies, or
/// closes mid-frame — surfaces as the clean Status ReadFully produced,
/// never as a short frame.
StatusOr<Frame> ReadFrame(Socket& socket, size_t max_frame_bytes);

}  // namespace etlopt

#endif  // ETLOPT_NET_FRAME_H_
