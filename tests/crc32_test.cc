// common::Crc32 against a bytewise reference: the slice-by-8 kernel
// must reproduce the classic table loop bit for bit, because every WAL
// frame, session checkpoint, shipped segment and scrubber checksum on
// disk was written with it.

#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"

namespace semitri::common {
namespace {

// The textbook reflected CRC-32, one bit at a time: slow, obviously
// correct, and independent of any table.
uint32_t BitwiseCrc32(std::string_view data, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (char ch : data) {
    c ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(Rng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& ch : out) {
    ch = static_cast<char>(rng->UniformInt(0, 255));
  }
  return out;
}

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32(std::string(1, '\0')), 0xD202EF8Du);
}

TEST(Crc32Test, MatchesBitwiseReferenceOnUnalignedRandomBuffers) {
  Rng rng(20261017);
  // One backing buffer, sliced at every offset 0..7 so the 8-byte main
  // loop starts misaligned, and at every length class: empty, shorter
  // than one word, word-multiple and ragged tails up to 4 KiB.
  const std::string backing = RandomBytes(&rng, 4096 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u,
                          1000u, 4095u, 4096u}) {
      std::string_view slice(backing.data() + offset, length);
      EXPECT_EQ(Crc32(slice), BitwiseCrc32(slice))
          << "offset " << offset << " length " << length;
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    size_t offset = static_cast<size_t>(rng.UniformInt(0, 7));
    size_t length = static_cast<size_t>(rng.UniformInt(0, 4096));
    std::string_view slice(backing.data() + offset, length);
    uint32_t seed = static_cast<uint32_t>(rng.UniformInt(0, 1 << 30));
    EXPECT_EQ(Crc32(slice, seed), BitwiseCrc32(slice, seed))
        << "offset " << offset << " length " << length;
  }
}

TEST(Crc32Test, SeedChainsAcrossSplits) {
  Rng rng(7);
  const std::string data = RandomBytes(&rng, 777);
  const uint32_t whole = Crc32(data);
  for (size_t cut : {0u, 1u, 5u, 8u, 13u, 64u, 400u, 776u, 777u}) {
    std::string_view a(data.data(), cut);
    std::string_view b(data.data() + cut, data.size() - cut);
    EXPECT_EQ(Crc32(b, Crc32(a)), whole) << "cut at " << cut;
  }
}

}  // namespace
}  // namespace semitri::common
