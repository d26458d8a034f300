// Command-line flags for the bench/example binaries.
//
// Flags take the form --name=value or --name value; bare --name sets a
// boolean. A flag may repeat (--filter a --filter b); get() returns the
// last occurrence, get_all() returns every value in order — this is what
// lets sweep filters compose. Only the first '=' splits name from
// value, so --filter=trace=UCB keeps "trace=UCB" intact.
//
// Values are parsed strictly: a number must use the whole token ("0.5abc"
// and "abc" are errors), and a boolean is one of 1/0/true/false/yes/no/
// on/off. A binary declares every flag it accepts as a Flag table entry;
// parse_flags() applies the table and raises an error for an unknown
// flag, a stray positional argument or a malformed value, so typos in
// experiment scripts are caught rather than silently ignored.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace wsched {

// Strict value parsers; each throws std::invalid_argument on a malformed
// token.
double parse_double(const std::string& text);
long long parse_int(const std::string& text);
std::uint64_t parse_uint(const std::string& text);
bool parse_bool(const std::string& text);

class CliArgs {
 public:
  /// Tokenizes argv; throws std::invalid_argument on malformed input.
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Every value a repeated flag was given, in command-line order; empty
  /// when the flag is absent.
  std::vector<std::string> get_all(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of all flags that were provided.
  std::vector<std::string> flag_names() const;

 private:
  std::map<std::string, std::vector<std::string>> flags_;
  std::vector<std::string> positional_;
};

/// One accepted flag: its name, what it does, and the setter that parses
/// one value into the field it controls (called once per occurrence, in
/// command-line order). When `enables` is set, giving the flag at all also
/// sets *enables — how any one knob of a subsystem switches it on.
struct Flag {
  std::string name;
  std::string doc;
  std::function<void(const std::string& value)> set;
  bool* enables = nullptr;
};

namespace detail {

template <class T>
void parse_into(T& target, const std::string& value) {
  if constexpr (requires { target.has_value(); }) {
    typename T::value_type parsed{};
    parse_into(parsed, value);
    target = parsed;
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    target.push_back(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    target = value;
  } else if constexpr (std::is_same_v<T, bool>) {
    target = parse_bool(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    target = parse_double(value);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    target = parse_uint(value);
  } else {
    static_assert(std::is_integral_v<T>, "unsupported flag type");
    const long long parsed = parse_int(value);
    target = static_cast<T>(parsed);
    if (static_cast<long long>(target) != parsed)
      throw std::invalid_argument("integer out of range");
  }
}

}  // namespace detail

/// A flag bound to `target`; the target's current value is the default.
/// Scalars take the last occurrence, a std::vector<std::string> collects
/// every occurrence, and a std::optional is engaged only when given.
template <class T>
Flag flag(std::string name, T& target, std::string doc) {
  return {std::move(name), std::move(doc),
          [&target](const std::string& value) {
            detail::parse_into(target, value);
          }};
}

/// Applies `table` to `args`: runs each entry's setter on every value it
/// was given, then sets the `enables` switch of every given entry. Throws
/// std::invalid_argument with a one-line message on an unknown flag (the
/// message lists the accepted names), a positional argument, or a value
/// its setter rejects (the message names the flag and the value).
void parse_flags(const CliArgs& args, const std::vector<Flag>& table);

/// Reads a boolean environment-variable override used by experiment
/// harnesses, e.g. WSCHED_QUICK=1 shrinks run sizes for CI. Returns
/// fallback when the variable is unset or unparsable.
bool env_flag(const char* name, bool fallback);

}  // namespace wsched
