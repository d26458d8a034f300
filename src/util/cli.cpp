#include "util/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace wsched {

namespace {

/// std::from_chars over the whole token: trailing characters, an empty
/// token or an out-of-range value are all malformed.
template <class T>
T parse_whole(const std::string& text, const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end)
    throw std::invalid_argument(std::string("expected ") + expected);
  return value;
}

}  // namespace

double parse_double(const std::string& text) {
  return parse_whole<double>(text, "a number");
}

long long parse_int(const std::string& text) {
  return parse_whole<long long>(text, "an integer");
}

std::uint64_t parse_uint(const std::string& text) {
  return parse_whole<std::uint64_t>(text, "an unsigned integer");
}

bool parse_bool(const std::string& text) {
  if (text == "1" || text == "true" || text == "yes" || text == "on")
    return true;
  if (text == "0" || text == "false" || text == "no" || text == "off")
    return false;
  throw std::invalid_argument("expected 1/0/true/false/yes/no/on/off");
}

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (arg.empty()) throw std::invalid_argument("bare -- is not a flag");
    // Only the first '=' separates name and value, so values may themselves
    // contain '=' (e.g. --filter=trace=UCB).
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      if (eq == 0) throw std::invalid_argument("flag with empty name: --" + arg);
      flags_[arg.substr(0, eq)].push_back(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg].push_back(argv[++i]);
    } else {
      flags_[arg].push_back("1");
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second.back();
}

std::vector<std::string> CliArgs::get_all(const std::string& name) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? std::vector<std::string>{} : it->second;
}

std::vector<std::string> CliArgs::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [name, value] : flags_) names.push_back(name);
  return names;
}

void parse_flags(const CliArgs& args, const std::vector<Flag>& table) {
  const auto find = [&table](const std::string& name) -> const Flag* {
    for (const Flag& entry : table)
      if (entry.name == name) return &entry;
    return nullptr;
  };
  for (const std::string& name : args.flag_names()) {
    if (find(name) != nullptr) continue;
    std::string accepted;
    for (const Flag& entry : table) accepted += " --" + entry.name;
    throw std::invalid_argument("unknown flag --" + name +
                                "; accepted flags:" + accepted);
  }
  if (!args.positional().empty())
    throw std::invalid_argument("unexpected argument '" +
                                args.positional().front() + "'");
  for (const Flag& entry : table) {
    for (const std::string& value : args.get_all(entry.name)) {
      try {
        entry.set(value);
      } catch (const std::exception& e) {
        throw std::invalid_argument("--" + entry.name + "=" + value + ": " +
                                    e.what());
      }
    }
  }
  for (const Flag& entry : table)
    if (entry.enables != nullptr && args.has(entry.name)) *entry.enables = true;
}

bool env_flag(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  try {
    return parse_bool(value);
  } catch (const std::invalid_argument&) {
    return fallback;
  }
}

}  // namespace wsched
