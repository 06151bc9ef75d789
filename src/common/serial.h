#ifndef SEMITRI_COMMON_SERIAL_H_
#define SEMITRI_COMMON_SERIAL_H_

// Bit-exact binary state serialization, used by the durability layer:
// write-ahead-log record payloads (store/wal.h) and streaming
// checkpoints (stream::SessionManager::Checkpoint). Doubles are encoded
// as their IEEE-754 bit pattern, so a round trip restores every value
// bit-identically — the streaming/offline equivalence contracts are
// checked with exact floating-point equality, and a recovered object
// must keep honoring them.
//
// Encoding: fixed-width little-endian integers, bit-cast doubles,
// u32-length-prefixed strings. StateReader getters return Corruption on
// truncated input and never read past the buffer, so checkpoints and
// WAL payloads are safe to parse from untrusted / torn files.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace semitri::common {

// CRC-32 (IEEE 802.3 polynomial, the zlib/gzip one) — integrity frame
// for WAL records and checkpoint files. `seed` chains incremental
// computations: Crc32(b, Crc32(a)) == Crc32(a + b). Computed
// slice-by-8 (eight table lookups per 8-byte word); the value is the
// same as the classic byte-at-a-time table loop's, bit for bit.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

class StateWriter {
 public:
  void PutU8(uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void PutBool(bool value) { PutU8(value ? 1 : 0); }
  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  void PutI64(int64_t value) { PutU64(static_cast<uint64_t>(value)); }
  void PutDouble(double value);  // IEEE-754 bit pattern
  void PutString(std::string_view value);  // u32 length + bytes

  const std::string& data() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  [[nodiscard]] Status GetU8(uint8_t* out);
  [[nodiscard]] Status GetBool(bool* out);
  [[nodiscard]] Status GetU32(uint32_t* out);
  [[nodiscard]] Status GetU64(uint64_t* out);
  [[nodiscard]] Status GetI64(int64_t* out);
  [[nodiscard]] Status GetDouble(double* out);
  [[nodiscard]] Status GetString(std::string* out);

  // All bytes consumed — checkpoint loaders verify this to reject
  // trailing garbage.
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  [[nodiscard]] Status Take(size_t n, const char** out);

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace semitri::common

#endif  // SEMITRI_COMMON_SERIAL_H_
