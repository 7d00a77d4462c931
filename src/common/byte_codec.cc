#include "common/byte_codec.h"

#include <cstring>

#include "common/string_util.h"

namespace etlopt {

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutDouble(std::string& out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string& out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out += s;
}

StatusOr<double> WireReader::Double() {
  ETLOPT_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string SealChecksummed(std::string_view magic, std::string_view payload) {
  std::string out;
  out.reserve(magic.size() + payload.size() + 16);
  out += magic;
  PutU64(out, payload.size());
  out += payload;
  PutU64(out, Fnv1a64(payload));
  return out;
}

StatusOr<std::string_view> OpenChecksummed(std::string_view magic,
                                           std::string_view bytes,
                                           const char* what) {
  if (bytes.size() < magic.size() + 16 || !StartsWith(bytes, magic)) {
    return Status::InvalidArgument(
        StrFormat("%s: bad magic or truncated file", what));
  }
  WireReader reader(bytes.substr(magic.size()));
  ETLOPT_ASSIGN_OR_RETURN(uint64_t payload_size, reader.U64());
  if (payload_size != reader.remaining() - 8) {
    return Status::InvalidArgument(
        StrFormat("%s: length mismatch (truncated)", what));
  }
  ETLOPT_ASSIGN_OR_RETURN(std::string_view payload,
                          reader.Bytes(payload_size));
  ETLOPT_ASSIGN_OR_RETURN(uint64_t recorded_checksum, reader.U64());
  if (Fnv1a64(payload) != recorded_checksum) {
    return Status::InvalidArgument(StrFormat("%s: checksum mismatch", what));
  }
  return payload;
}

}  // namespace etlopt
