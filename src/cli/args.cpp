#include "cli/args.h"

#include <cstdlib>

#include "util/assert.h"

namespace spectra::cli {

Args Args::parse(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  return parse(tokens);
}

Args Args::parse(const std::vector<std::string>& tokens) {
  Args args;
  for (const auto& t : tokens) {
    if (t.rfind("--", 0) == 0) {
      const auto eq = t.find('=');
      if (eq == std::string::npos) {
        SPECTRA_REQUIRE(t.size() > 2, "empty flag: " + t);
        args.flags_.insert(t.substr(2));
      } else {
        const std::string key = t.substr(2, eq - 2);
        SPECTRA_REQUIRE(!key.empty(), "empty option name: " + t);
        args.options_[key] = t.substr(eq + 1);
      }
    } else if (args.command_.empty()) {
      args.command_ = t;
    } else {
      args.positionals_.push_back(t);
    }
  }
  return args;
}

bool Args::has_flag(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::optional<std::string> Args::option(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get(const std::string& name, const std::string& def) const {
  return option(name).value_or(def);
}

long Args::get_int(const std::string& name, long def) const {
  const auto v = option(name);
  if (!v) return def;
  char* end = nullptr;
  const long out = std::strtol(v->c_str(), &end, 10);
  SPECTRA_REQUIRE(end != nullptr && *end == '\0' && !v->empty(),
                  "option --" + name + " expects an integer, got: " + *v);
  return out;
}

double Args::get_double(const std::string& name, double def) const {
  const auto v = option(name);
  if (!v) return def;
  char* end = nullptr;
  const double out = std::strtod(v->c_str(), &end);
  SPECTRA_REQUIRE(end != nullptr && *end == '\0' && !v->empty(),
                  "option --" + name + " expects a number, got: " + *v);
  return out;
}

std::size_t Args::get_bounded(const std::string& name, long def, long lo,
                              long hi) const {
  const long v = get_int(name, def);
  SPECTRA_REQUIRE(v >= lo && v <= hi,
                  "--" + name + " must be in [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "], got " + std::to_string(v));
  return static_cast<std::size_t>(v);
}

std::size_t Args::get_count(const std::string& name, long def,
                            long cap) const {
  return get_bounded(name, def, 1, cap);
}

std::set<std::string> Args::given() const {
  std::set<std::string> out = flags_;
  for (const auto& [k, v] : options_) {
    (void)v;
    out.insert(k);
  }
  return out;
}

}  // namespace spectra::cli
