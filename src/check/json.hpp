// Minimal JSON reader for chaos-schedule files (see check/schedule.hpp).
//
// The repo writes JSON in several places (artifacts, traces, exemplars) but
// until now never read it back; replayable schedules need a parser. This is
// a small strict recursive-descent reader over the JSON subset the schedule
// files use — objects, arrays, strings, numbers, booleans, null — with no
// dependency beyond the standard library. Malformed input throws
// std::invalid_argument with a byte offset. Numbers are parsed as double,
// and each number also keeps its token, so integer members (a 64-bit
// seed beyond 2^53, say) read back exactly through integer<T>().
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace wsched::check {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// kString: the decoded text. kNumber: the token as written.
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered members (schedules are written canonically, and
  /// order-preserving round trips keep byte-identity testable).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is(Kind k) const { return kind == k; }

  /// The exact value of an integer token (no fraction or exponent) that
  /// fits in T; nullopt for any other value.
  template <class T>
  std::optional<T> integer() const {
    if (kind != Kind::kNumber) return std::nullopt;
    T value{};
    const char* end = string.data() + string.size();
    const auto [ptr, ec] = std::from_chars(string.data(), end, value);
    if (ec != std::errc() || ptr != end) return std::nullopt;
    return value;
  }

  /// Member lookup; null when absent or when this is not an object.
  const JsonValue* find(const std::string& key) const;

  // Typed accessors with defaults for optional members. A member present
  // with the wrong kind throws std::invalid_argument — a schedule with
  // "loss": "high" is corrupt, not defaulted.
  double get_number(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
};

/// Parses one JSON document (leading/trailing whitespace allowed; anything
/// after the value is an error). Throws std::invalid_argument.
JsonValue parse_json(const std::string& text);

}  // namespace wsched::check
