#include "common/serial.h"

#include <array>
#include <cstring>

namespace semitri::common {

namespace {

// Slice-by-8 tables for the reflected IEEE polynomial: tables[0] is the
// classic byte-at-a-time table, and tables[k][b] is the CRC contribution
// of byte b followed by k zero bytes, so eight table lookups fold one
// 8-byte word per step.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

// Little-endian 32-bit load, independent of host byte order and
// alignment (compiles to a single load on little-endian targets).
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  static const CrcTables t = MakeCrcTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = LoadLe32(p) ^ c;
    uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void StateWriter::PutU32(uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
  }
}

void StateWriter::PutU64(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
  }
}

void StateWriter::PutDouble(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(bits);
}

void StateWriter::PutString(std::string_view value) {
  PutU32(static_cast<uint32_t>(value.size()));
  buffer_.append(value.data(), value.size());
}

Status StateReader::Take(size_t n, const char** out) {
  if (data_.size() - pos_ < n) {
    return Status::Corruption("serialized state truncated");
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return Status::OK();
}

Status StateReader::GetU8(uint8_t* out) {
  const char* p = nullptr;
  SEMITRI_RETURN_IF_ERROR(Take(1, &p));
  *out = static_cast<uint8_t>(*p);
  return Status::OK();
}

Status StateReader::GetBool(bool* out) {
  uint8_t v = 0;
  SEMITRI_RETURN_IF_ERROR(GetU8(&v));
  if (v > 1) return Status::Corruption("serialized bool out of range");
  *out = v != 0;
  return Status::OK();
}

Status StateReader::GetU32(uint32_t* out) {
  const char* p = nullptr;
  SEMITRI_RETURN_IF_ERROR(Take(4, &p));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *out = v;
  return Status::OK();
}

Status StateReader::GetU64(uint64_t* out) {
  const char* p = nullptr;
  SEMITRI_RETURN_IF_ERROR(Take(8, &p));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *out = v;
  return Status::OK();
}

Status StateReader::GetI64(int64_t* out) {
  uint64_t v = 0;
  SEMITRI_RETURN_IF_ERROR(GetU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status StateReader::GetDouble(double* out) {
  uint64_t bits = 0;
  SEMITRI_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status StateReader::GetString(std::string* out) {
  uint32_t size = 0;
  SEMITRI_RETURN_IF_ERROR(GetU32(&size));
  const char* p = nullptr;
  SEMITRI_RETURN_IF_ERROR(Take(size, &p));
  out->assign(p, size);
  return Status::OK();
}

}  // namespace semitri::common
