// The byte codec under every etlopt binary format: plan files, recovery
// and stream checkpoints, fingerprints and the ETLNET1 wire protocol.
// Writers append little-endian integers, IEEE bit patterns and
// u32-length-prefixed strings; WireReader bounds-checks every read and
// fails with InvalidArgument, so corrupt input can never read past the
// end or force a huge allocation.
//
// The persisted formats (ETLCKPT1, ETLSTRM1, ETLPLNS1) share one
// checksummed envelope, checked before any payload byte is decoded:
//
//   magic (8 bytes) | u64 payload length | payload | u64 FNV-1a(payload)
//
// ETLNET1 frames keep their own framing (net/frame.h): their checksum
// also covers a type byte, and sockets read them in two steps.

#ifndef ETLOPT_COMMON_BYTE_CODEC_H_
#define ETLOPT_COMMON_BYTE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/macros.h"
#include "common/status.h"
#include "common/statusor.h"

namespace etlopt {

void PutU32(std::string& out, uint32_t v);
void PutU64(std::string& out, uint64_t v);
/// Stored as the IEEE bit pattern, so the round trip is trivially exact.
void PutDouble(std::string& out, double v);
/// u32 length prefix + raw bytes.
void PutString(std::string& out, std::string_view s);

/// Bounds-checked cursor over one encoded buffer.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  StatusOr<uint8_t> U8() {
    ETLOPT_RETURN_NOT_OK(Need(1));
    return static_cast<uint8_t>(bytes_[pos_++]);
  }

  StatusOr<uint32_t> U32() { return LittleEndian<uint32_t>(); }
  StatusOr<uint64_t> U64() { return LittleEndian<uint64_t>(); }
  StatusOr<double> Double();

  StatusOr<std::string> String() {
    ETLOPT_ASSIGN_OR_RETURN(uint32_t n, U32());
    ETLOPT_RETURN_NOT_OK(Need(n));
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  StatusOr<std::string_view> Bytes(size_t n) {
    ETLOPT_RETURN_NOT_OK(Need(n));
    std::string_view v = bytes_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <typename T>
  StatusOr<T> LittleEndian() {
    ETLOPT_RETURN_NOT_OK(Need(sizeof(T)));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  Status Need(size_t n) {
    if (n > bytes_.size() - pos_) {
      return Status::InvalidArgument("truncated binary input");
    }
    return Status::OK();
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Wraps `payload` in the checksummed envelope under the 8-byte `magic`.
/// Copies the payload once.
std::string SealChecksummed(std::string_view magic, std::string_view payload);

/// The payload of a sealed `bytes`, as a view into it. InvalidArgument
/// prefixed with `what` ("checkpoint", "plan cache", ...) on a wrong
/// magic, a length that disagrees with the input size, or a checksum
/// mismatch.
StatusOr<std::string_view> OpenChecksummed(std::string_view magic,
                                           std::string_view bytes,
                                           const char* what);

}  // namespace etlopt

#endif  // ETLOPT_COMMON_BYTE_CODEC_H_
