// Minimal command-line flag parsing for the tools (no external deps).
// Supports --name=value and --name value forms, bools as --flag /
// --flag=false, typed accessors with defaults, and generated usage text.

#ifndef SEEMORE_UTIL_FLAGS_H_
#define SEEMORE_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace seemore {

class FlagSet {
 public:
  explicit FlagSet(std::string program_description)
      : description_(std::move(program_description)) {}

  /// Register flags (order defines usage listing).
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);
  /// A string flag that may be passed multiple times; occurrences join with
  /// ',' (so --x=a --x=b equals --x=a,b). Used by schedule flags.
  void AddRepeatedString(const std::string& name,
                         const std::string& default_value,
                         const std::string& help);
  void AddInt(const std::string& name, int64_t default_value,
              const std::string& help);
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help);
  void AddBool(const std::string& name, bool default_value,
               const std::string& help);

  /// Parse argv. Unknown flags or malformed values fail. `--help` sets
  /// help_requested() and succeeds.
  Status Parse(int argc, char** argv);

  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  bool WasSet(const std::string& name) const;

  bool help_requested() const { return help_requested_; }
  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string Usage() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Flag {
    Type type;
    std::string help;
    std::string default_value;
    std::string value;
    bool set = false;
    /// Repeated occurrences accumulate (','-joined) instead of overwriting.
    bool repeated = false;
  };

  Status SetValue(const std::string& name, const std::string& value);
  const Flag* Find(const std::string& name) const;

  std::string description_;
  std::vector<std::string> order_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

/// Split "a,b,c" into parts (empty input -> empty vector).
std::vector<std::string> SplitString(const std::string& input, char sep);

/// Strict base-10 integer: the whole text, no leading space, no trailing
/// characters, in int64 range; anything else is InvalidArgument.
Result<int64_t> ParseInt64(const std::string& text);

}  // namespace seemore

#endif  // SEEMORE_UTIL_FLAGS_H_
