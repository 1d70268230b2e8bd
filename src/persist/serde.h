#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/status.h"

namespace autoindex {
namespace persist {

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `len` bytes. `seed`
// chains partial computations: Crc32(b, n2, Crc32(a, n1)) equals the CRC
// of the concatenation.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

// Little-endian binary writer over an in-memory buffer. The buffer is
// handed to the file layer (file_format.h) which frames it into a
// checksummed section; Writer itself never touches disk.
class Writer {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  // u32 byte length + raw bytes; embedded NULs round-trip.
  void PutString(std::string_view s);
  void PutBytes(const void* data, size_t len);

  const std::string& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  std::string buf_;
};

// Sticky-error reader over a borrowed byte range. Every getter returns a
// zero value once the stream has failed; callers check status() once at
// the end (or wherever a failure changes control flow) instead of
// threading a Status through every primitive read. Running off the end of
// the buffer — the torn-write case — is an OutOfRange error, never UB.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::string& buf) : Reader(buf.data(), buf.size()) {}

  uint8_t GetU8();
  bool GetBool() { return GetU8() != 0; }
  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetDouble();
  std::string GetString();

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return size_ - pos_; }
  // True when every byte has been consumed and no read failed.
  bool AtEnd() const { return ok() && pos_ == size_; }

  // Lets higher-level decoders poison the stream on semantic errors (an
  // enum tag out of range, an implausible element count); subsequent
  // reads short-circuit. The first failure wins.
  void Fail(Status status);

 private:
  // True when `n` more bytes are available; fails the stream otherwise.
  bool Need(size_t n);

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  Status status_;
};

// --- storage-type serde (Value / Row / Schema) --------------------------
// Shared by the snapshot (heap pages, stats min/max, histogram bounds)
// and the WAL (INSERT rows, UPDATE assignments).

void PutValue(Writer* w, const Value& v);
Value GetValue(Reader* r);

void PutRow(Writer* w, const Row& row);
Row GetRow(Reader* r);

void PutSchema(Writer* w, const Schema& schema);
Schema GetSchema(Reader* r);

}  // namespace persist
}  // namespace autoindex
