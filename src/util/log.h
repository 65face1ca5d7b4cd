// Minimal leveled logger.
//
// Spectra components narrate decisions and environment changes at kDebug /
// kInfo; the level is runtime-configurable (tests silence it, the CLI's
// --verbose raises it, and the SPECTRA_LOG environment variable overrides
// both: off|error|warn|info|debug). Output goes to a configurable stream so
// tests can capture it.
// The logger is a process-wide singleton shared by every thread of a batch
// fan-out: the level is atomic and the sink pointer plus each write are
// mutex-guarded, so concurrent log lines interleave whole, never torn.
#pragma once

#include <atomic>
#include <iosfwd>
#include <mutex>
#include <sstream>
#include <string>

namespace spectra::util {

enum class LogLevel { kOff = 0, kError, kWarn, kInfo, kDebug };

class Logger {
 public:
  // Global logger instance (process-wide level and sink).
  static Logger& instance();

  // Initial level comes from SPECTRA_LOG when set, else kWarn.
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }

  // Redirect output (default std::cerr). Pass nullptr to restore default.
  void set_sink(std::ostream* sink);

  bool enabled(LogLevel level) const {
    const LogLevel current = level_.load(std::memory_order_relaxed);
    return current >= level && level != LogLevel::kOff;
  }

  void write(LogLevel level, const std::string& component,
             const std::string& message);

  static LogLevel parse_level(const std::string& name);

 private:
  Logger();
  std::atomic<LogLevel> level_;
  std::mutex mu_;  // guards sink_ and the actual stream write
  std::ostream* sink_ = nullptr;
};

// Streaming helper behind the SPECTRA_LOG_* macros, which construct it only
// when the level is enabled: SPECTRA_LOG_INFO("solver") << "picked " << alt;
class LogLine {
 public:
  LogLine(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogLine() {
    if (Logger::instance().enabled(level_)) {
      Logger::instance().write(level_, component_, os_.str());
    }
  }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream os_;
};

}  // namespace spectra::util

// A disabled line builds no stream and evaluates none of its `<<`
// arguments. The empty-then/else form keeps the macro one statement, so an
// `else` after it still binds to the caller's own `if`.
#define SPECTRA_LOG_AT(level, component)                      \
  if (!::spectra::util::Logger::instance().enabled(level)) { \
  } else                                                      \
    ::spectra::util::LogLine((level), (component))

#define SPECTRA_LOG_ERROR(component) \
  SPECTRA_LOG_AT(::spectra::util::LogLevel::kError, (component))
#define SPECTRA_LOG_WARN(component) \
  SPECTRA_LOG_AT(::spectra::util::LogLevel::kWarn, (component))
#define SPECTRA_LOG_INFO(component) \
  SPECTRA_LOG_AT(::spectra::util::LogLevel::kInfo, (component))
#define SPECTRA_LOG_DEBUG(component) \
  SPECTRA_LOG_AT(::spectra::util::LogLevel::kDebug, (component))
