// Minimal CSV writing/parsing for trace files and experiment dumps.
//
// Supports RFC-4180-style quoting for fields containing commas, quotes or
// newlines; that is all the repo needs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace wsched {

/// Escapes a single field per RFC 4180 (quotes only when necessary); a
/// string-returning wrapper over append_csv_field (util/artifact_writer.hpp).
std::string csv_escape(std::string_view field);

/// Parses one CSV line into fields (handles quoted fields with embedded
/// commas and doubled quotes). Does not handle embedded newlines across
/// lines; trace files never contain them.
std::vector<std::string> parse_csv_line(std::string_view line);

}  // namespace wsched
