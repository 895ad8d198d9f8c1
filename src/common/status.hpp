// Error handling for the kvscale library.
//
// The store and cluster layers report recoverable failures through Status /
// Result<T> rather than exceptions, following the C++ Core Guidelines advice
// to keep error paths explicit in performance-sensitive code (E.27 style).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "common/check.hpp"

namespace kvscale {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kNotFound,        ///< key / partition / row does not exist
  kAlreadyExists,   ///< duplicate insertion where uniqueness is required
  kInvalidArgument, ///< caller passed an out-of-domain value
  kOutOfRange,      ///< index or slice bound outside the data
  kCorruption,      ///< decoded bytes failed validation
  kResourceExhausted, ///< queue/capacity limit hit
  kUnavailable,     ///< node is down or unreachable
  kInternal,        ///< invariant violation that is not the caller's fault
  kFailedPrecondition, ///< system state forbids the operation (retry never helps)
};

/// True when `code` names a StatusCode enumerator. A status read off the
/// wire arrives as a u64; anything else is a corrupt frame, never a code.
inline bool IsKnownStatusCode(uint64_t code) {
  return code <= static_cast<uint64_t>(StatusCode::kFailedPrecondition);
}

/// Human-readable name of a StatusCode ("Ok", "NotFound", ...).
std::string_view StatusCodeName(StatusCode code);

/// A success-or-error value; cheap to copy in the success case.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;
  /// Constructs an error status; `code` must not be kOk.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    KV_CHECK(code != StatusCode::kOk);
  }

  static Status Ok() { return {}; }
  static Status NotFound(std::string msg) {
    return {StatusCode::kNotFound, std::move(msg)};
  }
  static Status AlreadyExists(std::string msg) {
    return {StatusCode::kAlreadyExists, std::move(msg)};
  }
  static Status InvalidArgument(std::string msg) {
    return {StatusCode::kInvalidArgument, std::move(msg)};
  }
  static Status OutOfRange(std::string msg) {
    return {StatusCode::kOutOfRange, std::move(msg)};
  }
  static Status Corruption(std::string msg) {
    return {StatusCode::kCorruption, std::move(msg)};
  }
  static Status ResourceExhausted(std::string msg) {
    return {StatusCode::kResourceExhausted, std::move(msg)};
  }
  static Status Unavailable(std::string msg) {
    return {StatusCode::kUnavailable, std::move(msg)};
  }
  static Status Internal(std::string msg) {
    return {StatusCode::kInternal, std::move(msg)};
  }
  static Status FailedPrecondition(std::string msg) {
    return {StatusCode::kFailedPrecondition, std::move(msg)};
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "NotFound: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value or an error Status. Accessing the value of an error result is a
/// programming error and aborts via KV_CHECK.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    KV_CHECK(!status_.ok());
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    KV_CHECK(ok());
    return *value_;
  }
  T& value() & {
    KV_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    KV_CHECK(ok());
    return std::move(*value_);
  }

  /// Returns the contained value or `fallback` on error.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace kvscale

/// Propagates an error Status from the current function.
#define KV_RETURN_IF_ERROR(expr)          \
  do {                                    \
    ::kvscale::Status _st = (expr);       \
    if (!_st.ok()) return _st;            \
  } while (0)
