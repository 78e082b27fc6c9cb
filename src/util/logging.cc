#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace seemore {

namespace {
/// Messages below this level are discarded.
constexpr LogLevel kMinLevel = LogLevel::kWarning;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "T";
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}
}  // namespace

namespace internal {

bool ShouldLog(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(kMinLevel);
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelTag(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
  if (level_ == LogLevel::kFatal) {
    std::fflush(stderr);
    std::abort();
  }
}

}  // namespace internal
}  // namespace seemore
