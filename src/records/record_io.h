// Binary record codec: the tagged cell encoding, arity-prefixed records
// and u64-counted row lists inside the ETLCKPT1 recovery checkpoints,
// the ETLSTRM1 stream checkpoints (targets and operator state), and the
// execution-input fingerprint. Built on the common byte codec
// (common/byte_codec.h), whose checksummed envelope wraps both
// checkpoint formats. Doubles are encoded as bit patterns, so every
// round trip is exact; readers bounds-check every access and fail with
// a clean Status on truncation or garbage.

#ifndef ETLOPT_RECORDS_RECORD_IO_H_
#define ETLOPT_RECORDS_RECORD_IO_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/byte_codec.h"
#include "common/statusor.h"
#include "records/record.h"
#include "schema/value.h"

namespace etlopt {

/// Tag + payload per cell; doubles as bit patterns.
void PutValue(std::string& out, const Value& v);

/// u32 count, then each cell. A record is encoded as its values.
void PutValues(std::string& out, const std::vector<Value>& values);
void PutRecord(std::string& out, const Record& record);

/// u64 row count, then each record.
void PutRecords(std::string& out, const std::vector<Record>& rows);

StatusOr<Value> ReadValue(WireReader& reader);
StatusOr<std::vector<Value>> ReadValues(WireReader& reader);
StatusOr<Record> ReadRecord(WireReader& reader);
/// The inverse of PutRecords. The reserve is bounded by what the input
/// could hold (a record costs at least 4 bytes), so a corrupt count
/// cannot force a huge allocation before the per-row bounds checks fire.
StatusOr<std::vector<Record>> ReadRecords(WireReader& reader);

/// Whether every row has exactly `arity` cells. A checksum proves only
/// that restored bytes are the ones written; decoders also check rows
/// against the schema they are restored into.
bool AllRowsHaveArity(const std::vector<Record>& rows, size_t arity);

}  // namespace etlopt

#endif  // ETLOPT_RECORDS_RECORD_IO_H_
