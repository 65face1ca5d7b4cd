// Process-wide string interner for the decision hot path.
//
// File paths, data tags and server names recur endlessly through the
// per-decision pipeline (snapshot → demand prediction → solver search →
// utility evaluation). Interning maps each distinct string to a small
// integer id once, so steady-state lookups compare and hash integers
// instead of strings, and flat integer-keyed tables replace
// std::map<std::string, …> on the hot path.
//
// Ids are assigned in first-use order and the table is shared across
// threads, so ids are NOT stable across runs. They may only be used for
// equality, hashing, and membership — never for ordering-sensitive
// iteration or anything that reaches program output. Symbol keeps the
// interned string's view alongside the id precisely so that callers can
// sort and serialize by name, which IS run-stable.
#pragma once

#include <cstdint>
#include <deque>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace spectra::util {

using InternId = std::uint32_t;

// An interned string: integer id for equality/hashing, stable view into the
// interner's append-only storage for name order and output. Copying a
// Symbol is two words; comparing two is one integer compare.
class Symbol {
 public:
  // The empty string (always id 0).
  constexpr Symbol() = default;
  Symbol(std::string_view s);  // NOLINT(google-explicit-constructor)
  Symbol(const char* s) : Symbol(std::string_view(s)) {}
  Symbol(const std::string& s)  // NOLINT(google-explicit-constructor)
      : Symbol(std::string_view(s)) {}

  InternId id() const { return id_; }
  std::string_view view() const { return view_; }
  std::string str() const { return std::string(view_); }
  bool empty() const { return view_.empty(); }

  friend bool operator==(Symbol a, Symbol b) { return a.id_ == b.id_; }
  friend bool operator!=(Symbol a, Symbol b) { return a.id_ != b.id_; }
  // Name (lexicographic) order — id order would vary run to run.
  friend bool operator<(Symbol a, Symbol b) { return a.view_ < b.view_; }
  friend std::ostream& operator<<(std::ostream& os, Symbol s) {
    return os << s.view_;
  }

 private:
  friend class Interner;
  constexpr Symbol(std::string_view view, InternId id)
      : view_(view), id_(id) {}

  std::string_view view_;
  InternId id_ = 0;
};

// The shared table. Append-only: interned strings are never freed, and a
// returned Symbol's view stays valid for the life of the process.
class Interner {
 public:
  static Interner& instance();

  Symbol intern(std::string_view s);
  std::size_t size() const;

 private:
  Interner();

  mutable std::shared_mutex mu_;
  std::deque<std::string> storage_;  // deque: strings never move
  std::unordered_map<std::string_view, InternId> index_;
};

inline Symbol intern(std::string_view s) {
  return Interner::instance().intern(s);
}

}  // namespace spectra::util

template <>
struct std::hash<spectra::util::Symbol> {
  std::size_t operator()(spectra::util::Symbol s) const noexcept {
    // Fibonacci spread: sequential ids hash to well-distributed buckets.
    return static_cast<std::size_t>(s.id()) * 0x9E3779B97F4A7C15ull;
  }
};
