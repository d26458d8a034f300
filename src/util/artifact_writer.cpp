#include "util/artifact_writer.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <system_error>

namespace wsched {

namespace {

/// to_chars into a stack buffer sized for every double this format can
/// produce ("%.4f" of -DBL_MAX is 315 characters). Tries a small buffer
/// first; value_too_large retries in the large one, never truncates.
template <typename... Args>
void append_chars(std::string& out, double value, Args... args) {
  char small[40];
  auto result = std::to_chars(small, small + sizeof small, value, args...);
  if (result.ec == std::errc{}) {
    out.append(small, result.ptr);
    return;
  }
  char large[352];
  result = std::to_chars(large, large + sizeof large, value, args...);
  out.append(large, result.ptr);
}

}  // namespace

void append_int(std::string& out, std::int64_t value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

void append_uint(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

void append_hex(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, value, 16);
  out.append(buf, result.ptr);
}

void append_general(std::string& out, double value) {
  append_chars(out, value, std::chars_format::general, 10);
}

void append_fixed4(std::string& out, double value) {
  append_chars(out, value, std::chars_format::fixed, 4);
}

void append_number(std::string& out, double value) {
  // |value| < 1e15 also rejects inf and nan.
  if (std::abs(value) < 1e15 && value == std::trunc(value)) {
    append_int(out, static_cast<std::int64_t>(value));
  } else {
    append_general(out, value);
  }
}

void append_json_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    const auto code = static_cast<unsigned char>(ch);
    if (ch != '"' && ch != '\\' && code >= 0x20) continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escaped[6] = {'\\', 'u', '0', '0', kHex[code >> 4],
                                 kHex[code & 0xf]};
        out.append(escaped, sizeof escaped);
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

void append_csv_field(std::string& out, std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    out.append(field);
    return;
  }
  out.push_back('"');
  for (char ch : field) {
    if (ch == '"') out.push_back('"');
    out.push_back(ch);
  }
  out.push_back('"');
}

ArtifactWriter::~ArtifactWriter() {
  try {
    flush();
  } catch (...) {
    // Only a stream with exceptions() enabled throws here; it has already
    // set badbit, so the failure stays visible to the caller.
  }
}

void ArtifactWriter::flush() {
  if (buf_.empty()) return;
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void write_artifact_file(const std::string& path, const char* what,
                         const std::function<void(std::ostream&)>& write) {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    throw ArtifactWriteError(std::string("cannot open ") + what + " " + path);
  write(out);
  out.close();
  if (!out)
    throw ArtifactWriteError(std::string("failed writing ") + what + " " +
                             path);
}

}  // namespace wsched
