#include "obs/log.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace wsched::obs {

namespace detail {
std::atomic<int> g_level{static_cast<int>(LogLevel::kOff)};
}

namespace {
std::mutex g_writer_mu;
LogWriter g_writer;  // guarded by g_writer_mu; empty = stderr default
}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kOff: return "off";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kInfo: return "info";
    case LogLevel::kDebug: return "debug";
  }
  return "?";
}

LogLevel parse_log_level(const std::string& text) {
  if (text == "warn" || text == "1") return LogLevel::kWarn;
  if (text == "info" || text == "2") return LogLevel::kInfo;
  if (text == "debug" || text == "3") return LogLevel::kDebug;
  if (text == "off" || text == "0") return LogLevel::kOff;
  throw std::invalid_argument("expected off|warn|info|debug, got '" + text +
                              "'");
}

void set_log_level(LogLevel level) {
  detail::g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() {
  return static_cast<LogLevel>(
      detail::g_level.load(std::memory_order_relaxed));
}

void set_log_writer(LogWriter writer) {
  std::lock_guard lock(g_writer_mu);
  g_writer = std::move(writer);
}

void logf(LogLevel level, const char* subsystem, const char* format, ...) {
  if (!log_enabled(level)) return;
  char buffer[512];
  std::va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);

  std::lock_guard lock(g_writer_mu);
  if (g_writer) {
    g_writer(level, subsystem, buffer);
  } else {
    std::fprintf(stderr, "[%s %s] %s\n", to_string(level), subsystem,
                 buffer);
  }
}

void init_log_from_env() {
  const char* env = std::getenv("WSCHED_LOG");
  if (env == nullptr) return;
  try {
    set_log_level(parse_log_level(env));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("WSCHED_LOG: ") + e.what());
  }
}

}  // namespace wsched::obs
