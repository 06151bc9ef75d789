#ifndef SEMITRI_COMMON_STATUS_H_
#define SEMITRI_COMMON_STATUS_H_

// Error handling for the SeMiTri library.
//
// Library code does not throw exceptions; fallible operations return a
// Status, or a Result<T> when they also produce a value (the RocksDB /
// Arrow idiom). A default-constructed Status is OK.

#include <string>
#include <utility>
#include <variant>

#include "common/check.h"

namespace semitri::common {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kIoError,
  kCorruption,
  kInternal,
  // A resource budget (admission quota, buffer cap) is exhausted; the
  // request was refused, not failed — retrying later may succeed.
  kResourceExhausted,
  // A dependency is temporarily refusing work (e.g. a shard that is
  // down or mid failover); callers should back off rather than retry
  // hot.
  kUnavailable,
};

// Human-readable name of a status code ("Ok", "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

// The class-level [[nodiscard]] makes *every* function returning a
// Status by value warn when the result is dropped (GCC/Clang
// -Wunused-result, promoted by SEMITRI_WERROR), even functions that
// forgot the per-declaration attribute. Discarding a Status is only
// legal through an explicit `(void)` cast next to a comment saying why;
// tools/semitri_lint's unchecked-status check enforces the same
// contract on paths the compiler cannot see (macro bodies,
// uninstantiated templates).
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status OK() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  [[nodiscard]] static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  [[nodiscard]] static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  [[nodiscard]] static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  [[nodiscard]] static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  [[nodiscard]] static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// A value-or-error union. Accessing value() on an error aborts with the
// carried status in all build types; check ok() first. [[nodiscard]]
// for the same reason as Status: dropping a Result loses an error.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : data_(std::move(value)) {}
  Result(Status status) : data_(std::move(status)) {
    SEMITRI_CHECK(!std::get<Status>(data_).ok())
        << "Result constructed from OK status carries no value";
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  const T& value() const& {
    SEMITRI_CHECK(ok()) << "value() on error Result: " << status().ToString();
    return std::get<T>(data_);
  }
  T& value() & {
    SEMITRI_CHECK(ok()) << "value() on error Result: " << status().ToString();
    return std::get<T>(data_);
  }
  T&& value() && {
    SEMITRI_CHECK(ok()) << "value() on error Result: " << status().ToString();
    return std::get<T>(std::move(data_));
  }

  [[nodiscard]] Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(data_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> data_;
};

}  // namespace semitri::common

// Propagates a non-OK Status from an expression.
#define SEMITRI_RETURN_IF_ERROR(expr)            \
  do {                                           \
    ::semitri::common::Status _st = (expr);      \
    if (!_st.ok()) return _st;                   \
  } while (0)

#endif  // SEMITRI_COMMON_STATUS_H_
