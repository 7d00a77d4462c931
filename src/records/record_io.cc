#include "records/record_io.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

void PutValue(std::string& out, const Value& v) {
  out.push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      out.push_back(v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64:
      PutU64(out, static_cast<uint64_t>(v.int_value()));
      break;
    case DataType::kDouble:
      PutDouble(out, v.double_value());
      break;
    case DataType::kString:
      PutString(out, v.string_value());
      break;
  }
}

void PutValues(std::string& out, const std::vector<Value>& values) {
  PutU32(out, static_cast<uint32_t>(values.size()));
  for (const Value& v : values) PutValue(out, v);
}

void PutRecord(std::string& out, const Record& record) {
  PutValues(out, record.values());
}

void PutRecords(std::string& out, const std::vector<Record>& rows) {
  PutU64(out, rows.size());
  for (const Record& r : rows) PutRecord(out, r);
}

StatusOr<Value> ReadValue(WireReader& reader) {
  ETLOPT_ASSIGN_OR_RETURN(uint8_t tag, reader.U8());
  switch (static_cast<DataType>(tag)) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool: {
      ETLOPT_ASSIGN_OR_RETURN(uint8_t b, reader.U8());
      if (b > 1) return Status::InvalidArgument("checkpoint: bad bool cell");
      return Value::Bool(b == 1);
    }
    case DataType::kInt64: {
      ETLOPT_ASSIGN_OR_RETURN(uint64_t bits, reader.U64());
      return Value::Int(static_cast<int64_t>(bits));
    }
    case DataType::kDouble: {
      ETLOPT_ASSIGN_OR_RETURN(double d, reader.Double());
      return Value::Double(d);
    }
    case DataType::kString: {
      ETLOPT_ASSIGN_OR_RETURN(std::string s, reader.String());
      return Value::String(std::move(s));
    }
  }
  return Status::InvalidArgument(
      StrFormat("checkpoint: bad value tag %u", tag));
}

StatusOr<std::vector<Value>> ReadValues(WireReader& reader) {
  ETLOPT_ASSIGN_OR_RETURN(uint32_t n, reader.U32());
  std::vector<Value> values;
  // Every cell costs at least its tag byte.
  values.reserve(std::min<size_t>(n, reader.remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    ETLOPT_ASSIGN_OR_RETURN(Value v, ReadValue(reader));
    values.push_back(std::move(v));
  }
  return values;
}

StatusOr<Record> ReadRecord(WireReader& reader) {
  ETLOPT_ASSIGN_OR_RETURN(std::vector<Value> values, ReadValues(reader));
  return Record(std::move(values));
}

StatusOr<std::vector<Record>> ReadRecords(WireReader& reader) {
  ETLOPT_ASSIGN_OR_RETURN(uint64_t n, reader.U64());
  std::vector<Record> rows;
  rows.reserve(static_cast<size_t>(
      std::min<uint64_t>(n, reader.remaining() / 4)));
  for (uint64_t i = 0; i < n; ++i) {
    ETLOPT_ASSIGN_OR_RETURN(Record r, ReadRecord(reader));
    rows.push_back(std::move(r));
  }
  return rows;
}

bool AllRowsHaveArity(const std::vector<Record>& rows, size_t arity) {
  return std::all_of(rows.begin(), rows.end(), [arity](const Record& r) {
    return r.size() == arity;
  });
}

}  // namespace etlopt
