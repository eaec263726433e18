#ifndef TMAN_COMMON_STATUS_H_
#define TMAN_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace tman {

// Operation result used throughout the library instead of exceptions.
// A Status is either OK (the default) or carries an error code and message.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kNotFound,
    kCorruption,
    kInvalidArgument,
    kIOError,
    kNotSupported,
    kBusy,
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string_view msg) {
    return Status(Code::kNotFound, msg);
  }
  static Status Corruption(std::string_view msg) {
    return Status(Code::kCorruption, msg);
  }
  static Status InvalidArgument(std::string_view msg) {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status IOError(std::string_view msg) {
    return Status(Code::kIOError, msg);
  }
  static Status NotSupported(std::string_view msg) {
    return Status(Code::kNotSupported, msg);
  }
  static Status Busy(std::string_view msg) { return Status(Code::kBusy, msg); }
  // InvalidArgument that refuses a write because its keys overlap live data
  // (kv::DB::IngestExternalFile). IsOverlap() tells it apart from other
  // invalid arguments, so a caller can write the same rows another way.
  static Status Overlap(std::string_view msg) {
    Status s(Code::kInvalidArgument, msg);
    s.overlap_ = true;
    return s;
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsOverlap() const { return overlap_; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  // Human-readable form, e.g. "NotFound: key missing".
  std::string ToString() const;

 private:
  Status(Code code, std::string_view msg) : code_(code), msg_(msg) {}

  Code code_;
  std::string msg_;
  bool overlap_ = false;
};

}  // namespace tman

#endif  // TMAN_COMMON_STATUS_H_
