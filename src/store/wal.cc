#include "store/wal.h"

#include "common/fault_injection.h"
#include "common/serial.h"

namespace semitri::store {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc32

void WriteU32(uint32_t v, char* p) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

uint32_t ReadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

void AppendWalFrame(WalRecordType type, std::string_view payload,
                    std::string* out) {
  const size_t header = out->size();
  out->reserve(header + kFrameHeaderBytes + 1 + payload.size());
  out->append(kFrameHeaderBytes, '\0');
  out->push_back(static_cast<char>(type));
  out->append(payload);
  WriteU32(static_cast<uint32_t>(payload.size()), out->data() + header);
  WriteU32(common::Crc32(std::string_view(*out).substr(header +
                                                       kFrameHeaderBytes)),
           out->data() + header + 4);
}

common::Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path, common::Env* env) {
  auto file = common::ResolveEnv(env)->NewWritableFile(
      path, common::WriteMode::kAppend);
  if (!file.ok()) {
    return common::Status::IoError("cannot open wal " + path + ": " +
                                   file.status().message());
  }
  return std::unique_ptr<WalWriter>(new WalWriter(std::move(*file)));
}

common::Status WalWriter::Poison(common::Status st) {
  poisoned_ = true;
  poison_cause_ = st;
  return st;
}

common::Status WalWriter::Append(WalRecordType type,
                                 std::string_view payload) {
  if (dead_) {
    return common::Status::IoError("wal writer dead after simulated crash");
  }
  if (poisoned_) {
    return common::Status::IoError(
        "wal writer poisoned by earlier failure, rotate the log (cause: " +
        poison_cause_.ToString() + ")");
  }
  std::string frame;
  AppendWalFrame(type, payload, &frame);
  common::FaultAction action = SEMITRI_FAULT_FIRE("wal_append");
  if (action == common::FaultAction::kCrash) {
    // Simulated power cut mid-write: half the frame reaches the disk,
    // then the process is gone. Recovery must truncate this torn tail.
    // The partial write's own status is irrelevant — we report the crash.
    (void)file_->Append(
        std::string_view(frame.data(), frame.size() / 2));
    dead_ = true;
    poisoned_ = true;
    return common::Status::IoError("simulated crash during wal append");
  }
  if (action == common::FaultAction::kFail) {
    return Poison(common::Status::IoError("injected wal append failure"));
  }
  common::Status st = file_->Append(frame);
  if (!st.ok()) return Poison(std::move(st));
  return st;
}

common::Status WalWriter::Sync() {
  if (dead_) {
    return common::Status::IoError("wal writer dead after simulated crash");
  }
  if (poisoned_) {
    return common::Status::IoError(
        "wal writer poisoned by earlier failure, rotate the log (cause: " +
        poison_cause_.ToString() + ")");
  }
  common::FaultAction action = SEMITRI_FAULT_FIRE("wal_sync");
  if (action == common::FaultAction::kCrash) {
    dead_ = true;
    poisoned_ = true;
    return common::Status::IoError("simulated crash during wal sync");
  }
  if (action == common::FaultAction::kFail) {
    return Poison(common::Status::IoError("injected wal sync failure"));
  }
  common::Status st = file_->Sync();
  if (!st.ok()) return Poison(std::move(st));
  return st;
}

common::Status WalWriter::Truncate() {
  if (dead_) {
    return common::Status::IoError("wal writer dead after simulated crash");
  }
  if (poisoned_) {
    return common::Status::IoError(
        "wal writer poisoned by earlier failure, rotate the log (cause: " +
        poison_cause_.ToString() + ")");
  }
  common::Status st = file_->Truncate(0);
  if (!st.ok()) return Poison(std::move(st));
  return st;
}

common::Result<size_t> DecodeWalFrames(
    std::string_view data,
    const std::function<common::Status(WalRecordType, std::string_view)>&
        apply) {
  size_t pos = 0;
  while (true) {
    if (data.size() - pos < kFrameHeaderBytes) break;  // torn header
    uint32_t length = ReadU32(data.data() + pos);
    uint32_t crc = ReadU32(data.data() + pos + 4);
    size_t body_size = static_cast<size_t>(length) + 1;  // type + payload
    if (data.size() - pos - kFrameHeaderBytes < body_size) break;  // torn body
    std::string_view body = data.substr(pos + kFrameHeaderBytes, body_size);
    if (common::Crc32(body) != crc) break;  // torn or corrupt frame
    WalRecordType type = static_cast<WalRecordType>(
        static_cast<uint8_t>(body.front()));
    SEMITRI_RETURN_IF_ERROR(apply(type, body.substr(1)));
    pos += kFrameHeaderBytes + body_size;
  }
  return pos;
}

common::Result<WalReplayStats> ReplayWal(
    const std::string& path,
    const std::function<common::Status(WalRecordType, std::string_view)>&
        apply,
    bool truncate_torn_tail, common::Env* env) {
  common::Env* e = common::ResolveEnv(env);
  WalReplayStats stats;
  std::string data;
  {
    common::Status read = e->ReadFileToString(path, &data);
    if (read.code() == common::StatusCode::kNotFound) {
      return stats;  // no log yet — empty
    }
    if (!read.ok()) return read;
  }

  auto intact = DecodeWalFrames(
      data, [&](WalRecordType type, std::string_view payload) {
        SEMITRI_RETURN_IF_ERROR(apply(type, payload));
        ++stats.records_applied;
        return common::Status::OK();
      });
  SEMITRI_RETURN_IF_ERROR(intact.status());
  const size_t pos = *intact;
  stats.torn_bytes_truncated = data.size() - pos;
  if (stats.torn_bytes_truncated > 0 && truncate_torn_tail) {
    common::Status st = e->TruncateFile(path, pos);
    if (!st.ok()) {
      return common::Status::IoError("cannot truncate torn wal tail: " +
                                     st.message());
    }
  }
  return stats;
}

}  // namespace semitri::store
