// Buffered writer and canonical formatting for every run artifact.
//
// Traces, decision logs, probe series, span exemplars and sweep result
// rows all serialize through ArtifactWriter: it appends into a bounded
// in-memory buffer (flushed to the target std::ostream once it passes
// kFlushBytes) and formats numbers with std::to_chars. The standard
// defines to_chars with an explicit precision as printf in the "C" locale,
// so the output is byte-identical to the snprintf formatting it replaces:
//
//   append_general   ≡ "%.10g"
//   append_fixed4    ≡ "%.4f"
//   append_number    ≡ integral values below 1e15 with no fraction,
//                      everything else "%.10g" (harness::format_number)
//
// The append_* functions are the single implementation of the canonical
// formatting and escaping; the string-returning helpers elsewhere
// (harness::format_number / json_escape, csv_escape) wrap them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

namespace wsched {

void append_int(std::string& out, std::int64_t value);
void append_uint(std::string& out, std::uint64_t value);
/// Lowercase hex, no prefix, no leading zeros (like `std::hex`).
void append_hex(std::string& out, std::uint64_t value);
/// printf "%.10g".
void append_general(std::string& out, double value);
/// printf "%.4f", untruncated for any magnitude.
void append_fixed4(std::string& out, double value);
/// Canonical artifact number: integral |value| < 1e15 prints as an
/// integer (so -0 prints "0"), everything else as "%.10g".
void append_number(std::string& out, double value);
/// JSON string body escaping (quotes, backslash, control characters);
/// copies `text` unchanged in one append when nothing needs escaping.
void append_json_escaped(std::string& out, std::string_view text);
/// One RFC-4180 CSV field: quoted (inner quotes doubled) only when it
/// holds a comma, quote, CR or LF.
void append_csv_field(std::string& out, std::string_view field);

/// Bounded-buffer artifact writer over a std::ostream. Every call appends
/// to the buffer and hands it to the stream once it reaches kFlushBytes,
/// so memory stays bounded however large the artifact. The destructor
/// flushes; a failed write shows in the stream's state (badbit), which
/// callers check after flush() or once the writer is gone.
class ArtifactWriter {
 public:
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  explicit ArtifactWriter(std::ostream& out) : out_(out) {}
  ~ArtifactWriter();
  ArtifactWriter(const ArtifactWriter&) = delete;
  ArtifactWriter& operator=(const ArtifactWriter&) = delete;

  ArtifactWriter& raw(std::string_view text) {
    buf_.append(text);
    return spill();
  }
  ArtifactWriter& raw(char ch) {
    buf_.push_back(ch);
    return spill();
  }
  ArtifactWriter& integer(std::int64_t value) {
    append_int(buf_, value);
    return spill();
  }
  ArtifactWriter& hex(std::uint64_t value) {
    append_hex(buf_, value);
    return spill();
  }
  ArtifactWriter& general(double value) {
    append_general(buf_, value);
    return spill();
  }
  ArtifactWriter& fixed4(double value) {
    append_fixed4(buf_, value);
    return spill();
  }
  ArtifactWriter& number(double value) {
    append_number(buf_, value);
    return spill();
  }
  ArtifactWriter& json_escaped(std::string_view text) {
    append_json_escaped(buf_, text);
    return spill();
  }
  ArtifactWriter& csv_field(std::string_view field) {
    append_csv_field(buf_, field);
    return spill();
  }

  /// Hands the buffered bytes to the stream (without flushing the stream).
  void flush();

 private:
  ArtifactWriter& spill() {
    if (buf_.size() >= kFlushBytes) flush();
    return *this;
  }

  std::ostream& out_;
  std::string buf_;
};

/// An artifact that could not be written: bad input (an unwritable path),
/// never a simulation failure, so sweeps do not quarantine it.
class ArtifactWriteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes one artifact file: opens `path`, runs `write` on the stream and
/// closes it. Throws ArtifactWriteError naming `what` and `path` when the
/// open fails or when any write, the final flush included, did not reach
/// the file (a full disk must not leave a silently truncated artifact).
void write_artifact_file(const std::string& path, const char* what,
                         const std::function<void(std::ostream&)>& write);

}  // namespace wsched
