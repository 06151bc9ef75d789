#include "common/fault_fs.h"

#include <utility>

namespace semitri::common {

namespace {

Status InjectedError(FaultKind kind, const char* op, const std::string& path) {
  std::string prefix;
  switch (kind) {
    case FaultKind::kEnospc:
      prefix = "injected ENOSPC (no space left on device)";
      break;
    case FaultKind::kShortWrite:
      prefix = "injected short write";
      break;
    case FaultKind::kFsyncFail:
      prefix = "injected fsync failure (durability unknown)";
      break;
    case FaultKind::kTornRename:
      prefix = "injected torn rename (tmp left behind)";
      break;
    case FaultKind::kEio:
      prefix = "injected EIO (input/output error)";
      break;
  }
  return Status::IoError(prefix + " at env:" + op + " on " + path);
}

}  // namespace

// A WritableFile that consults the owning FaultFs before every
// operation. Named (not anonymous) so FaultFs's friend declaration
// binds; the definition is local to this TU.
class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultFs* fs, std::unique_ptr<WritableFile> base,
                    std::string path)
      : fs_(fs), base_(std::move(base)), path_(std::move(path)) {}

  Status Append(std::string_view data) override {
    if (fs_->dead()) return fs_->DeadStatus(path_);
    FaultAction action = fs_->FireOp("append", path_);
    if (action == FaultAction::kNone) return base_->Append(data);
    FaultKind kind = fs_->KindFor("append");
    if (kind == FaultKind::kShortWrite) {
      // Half the bytes reach the base file before the failure — the
      // caller's framing must treat the suffix as torn. The partial
      // write's own status is irrelevant; we report the injected fault.
      (void)base_->Append(data.substr(0, data.size() / 2));
    }
    if (action == FaultAction::kCrash) {
      fs_->MarkDead();
      return Status::IoError("simulated power cut during append on " + path_);
    }
    return InjectedError(kind, "append", path_);
  }

  Status Sync() override {
    if (fs_->dead()) return fs_->DeadStatus(path_);
    FaultAction action = fs_->FireOp("sync", path_);
    if (action == FaultAction::kNone) return base_->Sync();
    if (action == FaultAction::kCrash) {
      fs_->MarkDead();
      return Status::IoError("simulated power cut during sync on " + path_);
    }
    // A failed fsync leaves the already-appended bytes in the base
    // file (they may well be durable) but reports failure: the
    // fsyncgate ambiguity the poisoned-WAL contract exists for.
    return InjectedError(fs_->KindFor("sync"), "sync", path_);
  }

  Status Truncate(uint64_t size) override {
    if (fs_->dead()) return fs_->DeadStatus(path_);
    FaultAction action = fs_->FireOp("truncate", path_);
    if (action == FaultAction::kNone) return base_->Truncate(size);
    if (action == FaultAction::kCrash) {
      fs_->MarkDead();
      return Status::IoError("simulated power cut during truncate on " +
                             path_);
    }
    return InjectedError(fs_->KindFor("truncate"), "truncate", path_);
  }

  Status Close() override {
    if (fs_->dead()) return fs_->DeadStatus(path_);
    FaultAction action = fs_->FireOp("close", path_);
    if (action == FaultAction::kNone) return base_->Close();
    if (action == FaultAction::kCrash) {
      fs_->MarkDead();
      return Status::IoError("simulated power cut during close on " + path_);
    }
    return InjectedError(fs_->KindFor("close"), "close", path_);
  }

 private:
  FaultFs* const fs_;
  const std::unique_ptr<WritableFile> base_;
  const std::string path_;
};

void FaultFs::SetFaultKind(const std::string& site, FaultKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  kinds_[site] = kind;
}

void FaultFs::SetPathFilter(std::string substr) {
  std::lock_guard<std::mutex> lock(mu_);
  path_filter_ = std::move(substr);
}

bool FaultFs::dead() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

void FaultFs::MarkDead() {
  std::lock_guard<std::mutex> lock(mu_);
  dead_ = true;
}

Status FaultFs::DeadStatus(const std::string& path) const {
  return Status::IoError("simulated power cut: all I/O dead (op on " + path +
                         ")");
}

FaultAction FaultFs::FireOp(const char* op, const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!path_filter_.empty() &&
        path.find(path_filter_) == std::string::npos) {
      return FaultAction::kNone;
    }
  }
  return SEMITRI_FAULT_FIRE("env:" + std::string(op));
}

FaultKind FaultFs::KindFor(const char* op) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = kinds_.find("env:" + std::string(op));
  return it == kinds_.end() ? FaultKind::kEio : it->second;
}

Result<std::unique_ptr<WritableFile>> FaultFs::NewWritableFile(
    const std::string& path, WriteMode mode) {
  if (dead()) return DeadStatus(path);
  FaultAction action = FireOp("open", path);
  if (action == FaultAction::kCrash) {
    MarkDead();
    return Status::IoError("simulated power cut during open on " + path);
  }
  if (action == FaultAction::kFail) {
    return InjectedError(KindFor("open"), "open", path);
  }
  auto base = base_->NewWritableFile(path, mode);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      new FaultWritableFile(this, std::move(*base), path));
}

Status FaultFs::ReadFileToString(const std::string& path, std::string* out) {
  if (dead()) return DeadStatus(path);
  FaultAction action = FireOp("read", path);
  if (action == FaultAction::kCrash) {
    MarkDead();
    return Status::IoError("simulated power cut during read on " + path);
  }
  if (action == FaultAction::kFail) {
    return InjectedError(KindFor("read"), "read", path);
  }
  return base_->ReadFileToString(path, out);
}

Status FaultFs::WriteStringToFile(const std::string& path,
                                  std::string_view data, bool sync) {
  // Composed from this Env's own open/append/sync/close so those four
  // sites cover whole-file writes too — no separate "env:write" site.
  auto file = NewWritableFile(path, WriteMode::kTruncate);
  if (!file.ok()) return file.status();
  SEMITRI_RETURN_IF_ERROR((*file)->Append(data));
  if (sync) SEMITRI_RETURN_IF_ERROR((*file)->Sync());
  return (*file)->Close();
}

Status FaultFs::RenameFile(const std::string& from, const std::string& to) {
  if (dead()) return DeadStatus(from);
  FaultAction action = FireOp("rename", from);
  if (action == FaultAction::kCrash) {
    // Power cut before the rename reached the journal: the source is
    // still in place, the destination untouched.
    MarkDead();
    return Status::IoError("simulated power cut during rename of " + from);
  }
  if (action == FaultAction::kFail) {
    // Torn rename and EIO look the same to the caller: nothing moved,
    // the source (a .tmp, typically) is left behind.
    return InjectedError(KindFor("rename"), "rename", from);
  }
  return base_->RenameFile(from, to);
}

Status FaultFs::SyncDir(const std::string& dir) {
  if (dead()) return DeadStatus(dir);
  FaultAction action = FireOp("sync_dir", dir);
  if (action == FaultAction::kCrash) {
    MarkDead();
    return Status::IoError("simulated power cut during dir sync of " + dir);
  }
  if (action == FaultAction::kFail) {
    return InjectedError(KindFor("sync_dir"), "sync_dir", dir);
  }
  return base_->SyncDir(dir);
}

Status FaultFs::RemoveFile(const std::string& path) {
  if (dead()) return DeadStatus(path);
  FaultAction action = FireOp("remove", path);
  if (action == FaultAction::kCrash) {
    MarkDead();
    return Status::IoError("simulated power cut during remove of " + path);
  }
  if (action == FaultAction::kFail) {
    return InjectedError(KindFor("remove"), "remove", path);
  }
  return base_->RemoveFile(path);
}

Status FaultFs::CreateDirs(const std::string& dir) {
  if (dead()) return DeadStatus(dir);
  FaultAction action = FireOp("mkdir", dir);
  if (action == FaultAction::kCrash) {
    MarkDead();
    return Status::IoError("simulated power cut during mkdir of " + dir);
  }
  if (action == FaultAction::kFail) {
    return InjectedError(KindFor("mkdir"), "mkdir", dir);
  }
  return base_->CreateDirs(dir);
}

Status FaultFs::RemoveDirRecursive(const std::string& dir) {
  if (dead()) return DeadStatus(dir);
  FaultAction action = FireOp("rmdir", dir);
  if (action == FaultAction::kCrash) {
    MarkDead();
    return Status::IoError("simulated power cut during rmdir of " + dir);
  }
  if (action == FaultAction::kFail) {
    return InjectedError(KindFor("rmdir"), "rmdir", dir);
  }
  return base_->RemoveDirRecursive(dir);
}

Result<std::vector<std::string>> FaultFs::ListDir(const std::string& dir) {
  if (dead()) return Result<std::vector<std::string>>(DeadStatus(dir));
  FaultAction action = FireOp("list", dir);
  if (action == FaultAction::kCrash) {
    MarkDead();
    return Result<std::vector<std::string>>(
        Status::IoError("simulated power cut during list of " + dir));
  }
  if (action == FaultAction::kFail) {
    return Result<std::vector<std::string>>(
        InjectedError(KindFor("list"), "list", dir));
  }
  return base_->ListDir(dir);
}

bool FaultFs::FileExists(const std::string& path) {
  // bool-returning probes cannot report a fault; a dead filesystem
  // sees nothing.
  if (dead()) return false;
  return base_->FileExists(path);
}

bool FaultFs::IsDirectory(const std::string& path) {
  if (dead()) return false;
  return base_->IsDirectory(path);
}

Result<uint64_t> FaultFs::FileSize(const std::string& path) {
  if (dead()) return Result<uint64_t>(DeadStatus(path));
  FaultAction action = FireOp("size", path);
  if (action == FaultAction::kCrash) {
    MarkDead();
    return Result<uint64_t>(
        Status::IoError("simulated power cut during stat of " + path));
  }
  if (action == FaultAction::kFail) {
    return Result<uint64_t>(InjectedError(KindFor("size"), "size", path));
  }
  return base_->FileSize(path);
}

Status FaultFs::TruncateFile(const std::string& path, uint64_t size) {
  if (dead()) return DeadStatus(path);
  FaultAction action = FireOp("truncate_file", path);
  if (action == FaultAction::kCrash) {
    MarkDead();
    return Status::IoError("simulated power cut during truncate of " + path);
  }
  if (action == FaultAction::kFail) {
    return InjectedError(KindFor("truncate_file"), "truncate_file", path);
  }
  return base_->TruncateFile(path, size);
}

}  // namespace semitri::common
