// Minimal leveled logger. Defaults to WARNING so simulations stay quiet;
// tests and debugging sessions can raise verbosity per-run.

#ifndef SEEMORE_UTIL_LOGGING_H_
#define SEEMORE_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace seemore {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarning = 3,
  kError = 4,
  kFatal = 5,
};

namespace internal {

/// Accumulates one log line and emits it (to stderr) on destruction.
/// Fatal messages abort the process after emission.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Discards everything streamed into it.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

bool ShouldLog(LogLevel level);

}  // namespace internal

#define SEEMORE_LOG(level)                                               \
  if (!::seemore::internal::ShouldLog(::seemore::LogLevel::k##level)) {  \
  } else                                                                 \
    ::seemore::internal::LogMessage(::seemore::LogLevel::k##level,       \
                                    __FILE__, __LINE__)                  \
        .stream()

#define SEEMORE_CHECK(cond)                                          \
  if (cond) {                                                        \
  } else                                                             \
    ::seemore::internal::LogMessage(::seemore::LogLevel::kFatal,     \
                                    __FILE__, __LINE__)              \
        .stream()                                                    \
        << "Check failed: " #cond " "

}  // namespace seemore

#endif  // SEEMORE_UTIL_LOGGING_H_
