// Tiny command-line flag parser for examples and benchmark drivers.
// Flags take the form `-name value` or `-name` (boolean). Everything not
// starting with '-' is a positional argument.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sage {

/// Parses argv into named flags and positional arguments.
class CommandLine {
 public:
  CommandLine(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.size() > 1 && arg[0] == '-') {
        std::string name = arg.substr(arg[1] == '-' ? 2 : 1);
        if (i + 1 < argc && argv[i + 1][0] != '-') {
          flags_[name] = argv[++i];
        } else {
          flags_[name] = "";
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  /// True if `-name` was present (with or without a value).
  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  /// String value of `-name`, or `def` when absent.
  std::string GetString(const std::string& name, std::string def = "") const {
    auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
  }

  /// Integer value of `-name`, or `def` when absent.
  int64_t GetInt(const std::string& name, int64_t def = 0) const {
    auto it = flags_.find(name);
    return it == flags_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
  }

  /// Double value of `-name`, or `def` when absent.
  double GetDouble(const std::string& name, double def = 0.0) const {
    auto it = flags_.find(name);
    return it == flags_.end() ? def : std::strtod(it->second.c_str(), nullptr);
  }

  /// Names of the parsed flags not listed in `known`, sorted, so a driver
  /// can reject a typo instead of silently running its defaults.
  std::vector<std::string> UnknownFlags(
      std::initializer_list<std::string_view> known) const {
    std::vector<std::string> unknown;
    for (const auto& [name, value] : flags_) {
      if (std::find(known.begin(), known.end(), name) == known.end()) {
        unknown.push_back(name);
      }
    }
    std::sort(unknown.begin(), unknown.end());
    return unknown;
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::unordered_map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace sage
