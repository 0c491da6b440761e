// The query protocol's error contract (docs/SERVER.md, "Error codes"):
// the code that detects a refused or failed query throws ServiceError
// with its wire code, answerRequest (protocol.h) copies code and bare
// message into the error frame, and a client decodes the frame back
// into the same ServiceError, as IngestError does for ingest.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "support/errors.h"

namespace ute {

enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kBadRequest = 1,   ///< unparseable payload or unknown opcode
  kBadVersion = 2,   ///< hello magic/version mismatch
  kBadTrace = 3,     ///< trace id out of range
  kBadWindow = 4,    ///< empty/out-of-run window, no frame at t
  kOverloaded = 5,   ///< request queue full — retry later
  kInternal = 6,
};

/// "bad-request", "bad-trace", ...: the name CLIs print before a message.
const char* errorCodeName(ErrorCode code);

/// A query refused or failed with a wire code. A UsageError, because
/// the refusals are preconditions the caller broke (an unknown trace,
/// an empty window); what() is "<code name>: <message>" for CLIs and
/// logs, message() the bare text the error frame carries.
class ServiceError : public UsageError {
 public:
  ServiceError(ErrorCode code, std::string message)
      : UsageError(std::string(errorCodeName(code)) + ": " + message),
        code_(code),
        message_(std::move(message)) {}
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

 private:
  ErrorCode code_;
  std::string message_;
};

}  // namespace ute
