// Minimal leveled logger. Logging is off by default at DEBUG level; the
// engine and benches raise verbosity explicitly. Safe to use from any
// thread: the level is an atomic, and each message is built in its own
// stream and written to stderr with one call.

#ifndef INSIGHTNOTES_COMMON_LOGGING_H_
#define INSIGHTNOTES_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace insightnotes {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Returns the process-wide minimum level that is actually emitted.
LogLevel GetLogLevel();

/// Sets the process-wide minimum emitted level.
void SetLogLevel(LogLevel level);

namespace internal_logging {

/// Accumulates one log line and emits it to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace insightnotes

#define INSIGHTNOTES_LOG(level)                                     \
  ::insightnotes::internal_logging::LogMessage(                     \
      ::insightnotes::LogLevel::k##level, __FILE__, __LINE__)

#endif  // INSIGHTNOTES_COMMON_LOGGING_H_
