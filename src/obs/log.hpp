// Structured diagnostics with one global verbosity knob.
//
// Subsystems report noteworthy events (node crashes, health transitions,
// promotions, calibration results) through log() instead of ad-hoc stderr
// writes. The default level is kOff, so library code is silent unless a
// binary (or WSCHED_LOG=warn|info|debug) opts in; the level check is one
// relaxed atomic load, cheap enough for any path that isn't per-event-hot.
// Output goes to stderr as "[level subsystem] message" lines by default; a
// writer override lets tests capture lines or a harness route them into a
// trace sink.
#pragma once

#include <atomic>
#include <functional>
#include <string>

namespace wsched::obs {

enum class LogLevel : int { kOff = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

const char* to_string(LogLevel level);
/// Parses "off|warn|info|debug" (also "0".."3"); anything else throws
/// std::invalid_argument.
LogLevel parse_log_level(const std::string& text);

void set_log_level(LogLevel level);
LogLevel log_level();
inline bool log_enabled(LogLevel level);

/// Replaces the stderr writer (null restores the default). The writer is
/// called with the level, a short subsystem tag and the formatted message;
/// calls are serialized under an internal mutex.
using LogWriter =
    std::function<void(LogLevel, const char* subsystem, const std::string&)>;
void set_log_writer(LogWriter writer);

/// Emits one line when `level` is enabled. printf-style formatting.
void logf(LogLevel level, const char* subsystem, const char* format, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 3, 4)))
#endif
    ;

/// Reads WSCHED_LOG once and applies it; called by BenchCli. Explicit
/// set_log_level() calls afterwards still win. An unparsable value throws
/// std::invalid_argument naming the variable.
void init_log_from_env();

namespace detail {
extern std::atomic<int> g_level;
}

inline bool log_enabled(LogLevel level) {
  return detail::g_level.load(std::memory_order_relaxed) >=
         static_cast<int>(level);
}

}  // namespace wsched::obs
