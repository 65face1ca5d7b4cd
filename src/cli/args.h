// Small command-line argument parser for the spectra CLI.
//
// Supports:  spectra <command> [positional...] [--flag] [--key=value]
// Unknown options are errors; typed accessors validate and convert.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace spectra::cli {

class Args {
 public:
  // Parse argv[1..]; throws util::ContractError on malformed input
  // (an option without '--', or '--key=' with an empty key).
  static Args parse(int argc, const char* const* argv);
  static Args parse(const std::vector<std::string>& tokens);

  const std::string& command() const { return command_; }
  const std::vector<std::string>& positionals() const { return positionals_; }

  bool has_flag(const std::string& name) const;
  std::optional<std::string> option(const std::string& name) const;

  // Typed accessors with defaults; throw on unconvertible values.
  std::string get(const std::string& name, const std::string& def) const;
  long get_int(const std::string& name, long def) const;
  double get_double(const std::string& name, double def) const;

  // Bounded integer option: validates lo <= N <= hi on the SIGNED value
  // before converting, so a negative like --clients=-1 cannot wrap to
  // ~2^64 through a size_t cast and sail past a later check.
  std::size_t get_bounded(const std::string& name, long def, long lo,
                          long hi) const;
  // Positive count option (--clients=N, --ops=N, ...): get_bounded from 1.
  std::size_t get_count(const std::string& name, long def, long cap) const;

  // Names of every option/flag present (for unknown-option checking).
  std::set<std::string> given() const;

 private:
  std::string command_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> options_;  // --key=value
  std::set<std::string> flags_;                 // --flag
};

}  // namespace spectra::cli
