#include "persist/serde.h"

#include <algorithm>
#include <cstring>

#include "util/string_util.h"

namespace autoindex {
namespace persist {

namespace {

// Lazily built 256-entry CRC-32 table (IEEE polynomial, reflected).
const uint32_t* CrcTable() {
  static const uint32_t* table = [] {
    static uint32_t entries[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
    return entries;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const uint32_t* table = CrcTable();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Writer::PutU32(uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf_.append(b, 4);
}

void Writer::PutU64(uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf_.append(b, 8);
}

void Writer::PutDouble(double v) {
  static_assert(sizeof(double) == sizeof(uint64_t));
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Writer::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void Writer::PutBytes(const void* data, size_t len) {
  buf_.append(static_cast<const char*>(data), len);
}

bool Reader::Need(size_t n) {
  if (!status_.ok()) return false;
  if (size_ - pos_ < n) {
    status_ = Status::OutOfRange(
        StrCat("short read: need ", n, " bytes, have ", size_ - pos_));
    return false;
  }
  return true;
}

void Reader::Fail(Status status) {
  if (status_.ok() && !status.ok()) status_ = std::move(status);
}

uint8_t Reader::GetU8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t Reader::GetU32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t Reader::GetU64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double Reader::GetDouble() {
  const uint64_t bits = GetU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::GetString() {
  const uint32_t len = GetU32();
  if (!Need(len)) return std::string();
  std::string s(data_ + pos_, len);
  pos_ += len;
  return s;
}

// --- Value / Row / Schema -----------------------------------------------

void PutValue(Writer* w, const Value& v) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      w->PutI64(v.AsInt());
      break;
    case ValueType::kDouble:
      w->PutDouble(v.AsDouble());
      break;
    case ValueType::kString:
      w->PutString(v.AsString());
      break;
  }
}

Value GetValue(Reader* r) {
  const uint8_t tag = r->GetU8();
  switch (tag) {
    case static_cast<uint8_t>(ValueType::kNull):
      return Value::Null();
    case static_cast<uint8_t>(ValueType::kInt):
      return Value(r->GetI64());
    case static_cast<uint8_t>(ValueType::kDouble):
      return Value(r->GetDouble());
    case static_cast<uint8_t>(ValueType::kString):
      return Value(r->GetString());
    default:
      r->Fail(Status::InvalidArgument(
          StrCat("bad value type tag ", static_cast<int>(tag))));
      return Value::Null();
  }
}

void PutRow(Writer* w, const Row& row) {
  w->PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) PutValue(w, v);
}

Row GetRow(Reader* r) {
  const uint32_t n = r->GetU32();
  Row row;
  // Bound the reserve by what the buffer could possibly hold (a cell is
  // at least one byte) so a corrupt count cannot force a huge allocation.
  row.reserve(std::min<size_t>(n, r->remaining()));
  for (uint32_t i = 0; i < n && r->ok(); ++i) row.push_back(GetValue(r));
  return row;
}

void PutSchema(Writer* w, const Schema& schema) {
  w->PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (const Column& col : schema.columns()) {
    w->PutString(col.name);
    w->PutU8(static_cast<uint8_t>(col.type));
    w->PutU64(col.avg_width);
  }
}

Schema GetSchema(Reader* r) {
  const uint32_t n = r->GetU32();
  std::vector<Column> columns;
  columns.reserve(std::min<size_t>(n, r->remaining()));
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    Column col;
    col.name = r->GetString();
    const uint8_t tag = r->GetU8();
    if (tag > static_cast<uint8_t>(ValueType::kString)) {
      r->Fail(Status::InvalidArgument(
          StrCat("bad column type tag ", static_cast<int>(tag))));
      break;
    }
    col.type = static_cast<ValueType>(tag);
    col.avg_width = r->GetU64();
    columns.push_back(std::move(col));
  }
  return Schema(std::move(columns));
}

}  // namespace persist
}  // namespace autoindex
