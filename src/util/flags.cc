#include "util/flags.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace seemore {

void FlagSet::AddString(const std::string& name,
                        const std::string& default_value,
                        const std::string& help) {
  order_.push_back(name);
  flags_[name] = Flag{Type::kString, help, default_value, default_value};
}

void FlagSet::AddRepeatedString(const std::string& name,
                                const std::string& default_value,
                                const std::string& help) {
  AddString(name, default_value, help);
  flags_[name].repeated = true;
}

void FlagSet::AddInt(const std::string& name, int64_t default_value,
                     const std::string& help) {
  order_.push_back(name);
  const std::string text = std::to_string(default_value);
  flags_[name] = Flag{Type::kInt, help, text, text};
}

void FlagSet::AddDouble(const std::string& name, double default_value,
                        const std::string& help) {
  order_.push_back(name);
  const std::string text = std::to_string(default_value);
  flags_[name] = Flag{Type::kDouble, help, text, text};
}

void FlagSet::AddBool(const std::string& name, bool default_value,
                      const std::string& help) {
  order_.push_back(name);
  const std::string text = default_value ? "true" : "false";
  flags_[name] = Flag{Type::kBool, help, text, text};
}

const FlagSet::Flag* FlagSet::Find(const std::string& name) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

Status FlagSet::SetValue(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  Flag& flag = it->second;
  switch (flag.type) {
    case Type::kInt:
      if (!ParseInt64(value).ok()) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects an integer, got '" + value +
                                       "'");
      }
      break;
    case Type::kDouble: {
      char* end = nullptr;
      (void)std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a number, got '" + value +
                                       "'");
      }
      break;
    }
    case Type::kBool:
      if (value != "true" && value != "false" && value != "1" &&
          value != "0") {
        return Status::InvalidArgument("flag --" + name +
                                       " expects true/false, got '" + value +
                                       "'");
      }
      break;
    case Type::kString:
      break;
  }
  if (flag.repeated && flag.set) {
    // Accumulate; an empty occurrence adds nothing (and never clobbers).
    if (!value.empty()) {
      flag.value = flag.value.empty() ? value : flag.value + ',' + value;
    }
  } else {
    flag.value = value;
  }
  flag.set = true;
  return Status::Ok();
}

Status FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return Status::Ok();
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      SEEMORE_RETURN_IF_ERROR(SetValue(arg.substr(0, eq), arg.substr(eq + 1)));
      continue;
    }
    const Flag* flag = Find(arg);
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag --" + arg);
    }
    if (flag->type == Type::kBool) {
      SEEMORE_RETURN_IF_ERROR(SetValue(arg, "true"));
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag --" + arg + " needs a value");
    }
    SEEMORE_RETURN_IF_ERROR(SetValue(arg, argv[++i]));
  }
  return Status::Ok();
}

std::string FlagSet::GetString(const std::string& name) const {
  const Flag* flag = Find(name);
  return flag == nullptr ? "" : flag->value;
}

int64_t FlagSet::GetInt(const std::string& name) const {
  const Flag* flag = Find(name);
  return flag == nullptr ? 0 : std::strtoll(flag->value.c_str(), nullptr, 10);
}

double FlagSet::GetDouble(const std::string& name) const {
  const Flag* flag = Find(name);
  return flag == nullptr ? 0.0 : std::strtod(flag->value.c_str(), nullptr);
}

bool FlagSet::GetBool(const std::string& name) const {
  const Flag* flag = Find(name);
  return flag != nullptr && (flag->value == "true" || flag->value == "1");
}

bool FlagSet::WasSet(const std::string& name) const {
  const Flag* flag = Find(name);
  return flag != nullptr && flag->set;
}

std::string FlagSet::Usage() const {
  std::string out = description_ + "\n\nFlags:\n";
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(name);
    out += "  --" + name;
    out += " (default: " + flag.default_value + ")\n";
    out += "      " + flag.help + "\n";
  }
  return out;
}

std::vector<std::string> SplitString(const std::string& input, char sep) {
  std::vector<std::string> parts;
  if (input.empty()) return parts;
  size_t start = 0;
  while (true) {
    const size_t pos = input.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(input.substr(start));
      return parts;
    }
    parts.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

Result<int64_t> ParseInt64(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("expected an integer, got '" + text + "'");
  }
  return static_cast<int64_t>(value);
}

}  // namespace seemore
