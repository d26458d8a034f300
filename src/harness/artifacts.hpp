// Unified run artifacts for experiment sweeps.
//
// Every sweep produces an ordered list of ResultRows sharing one schema:
// the grid-point coordinates first, then whatever the evaluation measured
// (typically the MetricsSummary fields). The same rows serialize to CSV
// (for plotting scripts) and JSON (an array of objects, one per line, for
// anything structured). Serialization is deliberately dumb and canonical —
// identical rows always produce identical bytes — which is what lets the
// harness promise that a parallel sweep's artifacts are bit-identical to a
// serial run's.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace wsched::harness {

/// One named cell of a result row. `numeric` cells serialize unquoted in
/// JSON (non-finite values become null); text cells are escaped.
struct Field {
  std::string name;
  std::string text;
  bool numeric = false;
};

/// An ordered, named record of one grid point's results. Field order is
/// insertion order; set() on an existing name overwrites in place so the
/// schema stays stable across rows.
class ResultRow {
 public:
  ResultRow& set(std::string name, std::string value);
  ResultRow& set(std::string name, const char* value);
  ResultRow& set(std::string name, double value);
  ResultRow& set(std::string name, long long value);
  ResultRow& set(std::string name, unsigned long long value);
  ResultRow& set(std::string name, unsigned long value);  ///< LP64 uint64_t
  ResultRow& set(std::string name, int value);
  ResultRow& set_bool(std::string name, bool value);

  /// Appends every field of `other` (numeric flags preserved), overwriting
  /// same-named fields in place.
  ResultRow& merge(const ResultRow& other);

  bool has(const std::string& name) const;
  /// Throws std::out_of_range for unknown names.
  const std::string& text(const std::string& name) const;
  /// Numeric value of a cell (parses the canonical text); throws
  /// std::out_of_range for unknown names.
  double number(const std::string& name) const;

  const std::vector<Field>& fields() const { return fields_; }

 private:
  ResultRow& set_field(std::string name, std::string text, bool numeric);
  std::vector<Field> fields_;
};

/// Canonical number formatting used by every artifact: integral values
/// print with no fraction, everything else as %.10g. A string-returning
/// wrapper over wsched::append_number (util/artifact_writer.hpp).
std::string format_number(double value);

/// Writes rows as CSV: header from the first row's field names, then one
/// line per row. Throws std::invalid_argument if any row's schema differs
/// from the first's — a sweep must emit one stable schema.
void write_csv(std::ostream& out, const std::vector<ResultRow>& rows);

/// Writes rows as a JSON array of flat objects (one object per line).
/// Same schema requirement as write_csv.
void write_json(std::ostream& out, const std::vector<ResultRow>& rows);

std::string csv_string(const std::vector<ResultRow>& rows);
std::string json_string(const std::vector<ResultRow>& rows);

/// JSON string escaping (quotes, backslash, control characters); wraps
/// wsched::append_json_escaped.
std::string json_escape(const std::string& text);

}  // namespace wsched::harness
