// Tests for the store's write-ahead log: frame round-trips, torn-tail
// truncation, CRC corruption detection, and append-after-recovery.

#include "store/wal.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace semitri::store {
namespace {

namespace fs = std::filesystem;

struct Replayed {
  WalRecordType type;
  std::string payload;
};

std::string TempWal(const char* name) {
  std::string path = (fs::temp_directory_path() / name).string();
  fs::remove(path);
  return path;
}

common::Result<std::vector<Replayed>> ReplayAll(const std::string& path,
                                                bool truncate = false) {
  std::vector<Replayed> records;
  auto stats = ReplayWal(
      path,
      [&](WalRecordType type, std::string_view payload) {
        records.push_back({type, std::string(payload)});
        return common::Status::OK();
      },
      truncate);
  if (!stats.ok()) return stats.status();
  return records;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

TEST(WalTest, AppendReplayRoundTrip) {
  std::string path = TempWal("semitri_wal_roundtrip.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        (*writer)->Append(WalRecordType::kRawPoints, "alpha").ok());
    ASSERT_TRUE((*writer)->Append(WalRecordType::kEpisodes, "").ok());
    std::string binary("\x00\x01\xff payload", 11);
    ASSERT_TRUE(
        (*writer)->Append(WalRecordType::kInterpretation, binary).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto records = ReplayAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].type, WalRecordType::kRawPoints);
  EXPECT_EQ((*records)[0].payload, "alpha");
  EXPECT_EQ((*records)[1].type, WalRecordType::kEpisodes);
  EXPECT_EQ((*records)[1].payload, "");
  EXPECT_EQ((*records)[2].type, WalRecordType::kInterpretation);
  EXPECT_EQ((*records)[2].payload.size(), 11u);
  fs::remove(path);
}

TEST(WalTest, MissingFileIsEmptyLog) {
  auto records = ReplayAll("/nonexistent/semitri/wal.log");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(WalTest, TornTailIsTruncated) {
  std::string path = TempWal("semitri_wal_torn.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(WalRecordType::kEpisodes, "keep1").ok());
    ASSERT_TRUE((*writer)->Append(WalRecordType::kEpisodes, "keep2").ok());
  }
  std::string intact = ReadFile(path);
  // Simulate a power cut mid-append: half of a third frame.
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(WalRecordType::kEpisodes, "torn").ok());
  }
  std::string full = ReadFile(path);
  ASSERT_GT(full.size(), intact.size());
  WriteFile(path, full.substr(0, intact.size() + (full.size() - intact.size()) / 2));

  std::vector<Replayed> records;
  auto stats = ReplayWal(
      path,
      [&](WalRecordType type, std::string_view payload) {
        records.push_back({type, std::string(payload)});
        return common::Status::OK();
      },
      /*truncate_torn_tail=*/true);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, 2u);
  EXPECT_GT(stats->torn_bytes_truncated, 0u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, "keep1");
  EXPECT_EQ(records[1].payload, "keep2");
  // The tail is gone: the file is byte-identical to the intact prefix,
  // so appending can safely resume.
  EXPECT_EQ(ReadFile(path), intact);
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(WalRecordType::kEpisodes, "after").ok());
  }
  auto again = ReplayAll(path);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), 3u);
  EXPECT_EQ((*again)[2].payload, "after");
  fs::remove(path);
}

TEST(WalTest, CorruptCrcEndsReplayAtBadFrame) {
  std::string path = TempWal("semitri_wal_crc.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(WalRecordType::kEpisodes, "good").ok());
    ASSERT_TRUE((*writer)->Append(WalRecordType::kEpisodes, "bitrot").ok());
  }
  std::string data = ReadFile(path);
  data.back() ^= 0x01;  // flip a payload bit in the second frame
  WriteFile(path, data);

  auto stats = ReplayWal(
      path, [](WalRecordType, std::string_view) { return common::Status::OK(); },
      /*truncate_torn_tail=*/false);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, 1u);
  EXPECT_GT(stats->torn_bytes_truncated, 0u);
  // truncate_torn_tail=false left the file untouched.
  EXPECT_EQ(ReadFile(path), data);
  fs::remove(path);
}

TEST(WalTest, TruncateEmptiesLog) {
  std::string path = TempWal("semitri_wal_truncate.log");
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kEpisodes, "x").ok());
  ASSERT_TRUE((*writer)->Truncate().ok());
  EXPECT_EQ(fs::file_size(path), 0u);
  // Appends continue after compaction.
  ASSERT_TRUE((*writer)->Append(WalRecordType::kEpisodes, "y").ok());
  auto records = ReplayAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "y");
  fs::remove(path);
}

TEST(WalTest, ApplyErrorAbortsReplay) {
  std::string path = TempWal("semitri_wal_apply_err.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(WalRecordType::kEpisodes, "a").ok());
    ASSERT_TRUE((*writer)->Append(WalRecordType::kEpisodes, "b").ok());
  }
  size_t applied = 0;
  auto stats = ReplayWal(
      path,
      [&](WalRecordType, std::string_view) {
        ++applied;
        return common::Status::Corruption("bad record");
      },
      /*truncate_torn_tail=*/false);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(applied, 1u);
  fs::remove(path);
}

}  // namespace
}  // namespace semitri::store
