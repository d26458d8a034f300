#include "harness/artifacts.hpp"

#include <sstream>
#include <stdexcept>

#include "util/artifact_writer.hpp"

namespace wsched::harness {

std::string format_number(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

ResultRow& ResultRow::set_field(std::string name, std::string text,
                                bool numeric) {
  for (Field& field : fields_) {
    if (field.name == name) {
      field.text = std::move(text);
      field.numeric = numeric;
      return *this;
    }
  }
  fields_.push_back({std::move(name), std::move(text), numeric});
  return *this;
}

ResultRow& ResultRow::set(std::string name, std::string value) {
  return set_field(std::move(name), std::move(value), false);
}

ResultRow& ResultRow::set(std::string name, const char* value) {
  return set_field(std::move(name), std::string(value), false);
}

ResultRow& ResultRow::set(std::string name, double value) {
  return set_field(std::move(name), format_number(value), true);
}

ResultRow& ResultRow::set(std::string name, long long value) {
  return set_field(std::move(name), std::to_string(value), true);
}

ResultRow& ResultRow::set(std::string name, unsigned long long value) {
  return set_field(std::move(name), std::to_string(value), true);
}

ResultRow& ResultRow::set(std::string name, unsigned long value) {
  return set_field(std::move(name), std::to_string(value), true);
}

ResultRow& ResultRow::set(std::string name, int value) {
  return set_field(std::move(name), std::to_string(value), true);
}

ResultRow& ResultRow::set_bool(std::string name, bool value) {
  return set_field(std::move(name), value ? "1" : "0", true);
}

ResultRow& ResultRow::merge(const ResultRow& other) {
  for (const Field& field : other.fields_)
    set_field(field.name, field.text, field.numeric);
  return *this;
}

bool ResultRow::has(const std::string& name) const {
  for (const Field& field : fields_)
    if (field.name == name) return true;
  return false;
}

const std::string& ResultRow::text(const std::string& name) const {
  for (const Field& field : fields_)
    if (field.name == name) return field.text;
  throw std::out_of_range("ResultRow: no field named '" + name + "'");
}

double ResultRow::number(const std::string& name) const {
  return std::stod(text(name));
}

namespace {

void check_schema(const std::vector<ResultRow>& rows) {
  if (rows.empty()) return;
  const auto& head = rows.front().fields();
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& fields = rows[r].fields();
    bool same = fields.size() == head.size();
    for (std::size_t i = 0; same && i < fields.size(); ++i)
      same = fields[i].name == head[i].name;
    if (!same)
      throw std::invalid_argument(
          "sweep rows disagree on schema at row " + std::to_string(r) +
          "; every evaluation must emit the same fields in the same order");
  }
}

}  // namespace

void write_csv(std::ostream& out, const std::vector<ResultRow>& rows) {
  check_schema(rows);
  if (rows.empty()) return;
  ArtifactWriter writer(out);
  const auto& head = rows.front().fields();
  for (std::size_t i = 0; i < head.size(); ++i) {
    if (i) writer.raw(',');
    writer.csv_field(head[i].name);
  }
  writer.raw('\n');
  for (const ResultRow& row : rows) {
    const auto& fields = row.fields();
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i) writer.raw(',');
      writer.csv_field(fields[i].text);
    }
    writer.raw('\n');
  }
}

std::string json_escape(const std::string& text) {
  std::string out;
  append_json_escaped(out, text);
  return out;
}

void write_json(std::ostream& out, const std::vector<ResultRow>& rows) {
  check_schema(rows);
  ArtifactWriter writer(out);
  writer.raw('[');
  for (std::size_t r = 0; r < rows.size(); ++r) {
    writer.raw(r == 0 ? "\n{" : ",\n{");
    const auto& fields = rows[r].fields();
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i) writer.raw(',');
      writer.raw('"').json_escaped(fields[i].name).raw("\":");
      const std::string& text = fields[i].text;
      if (!fields[i].numeric) {
        writer.raw('"').json_escaped(text).raw('"');
      } else if (text == "inf" || text == "-inf" || text == "nan" ||
                 text == "-nan") {
        // Non-finite values are not valid JSON numbers.
        writer.raw("null");
      } else {
        writer.raw(text);
      }
    }
    writer.raw('}');
  }
  writer.raw("\n]\n");
}

std::string csv_string(const std::vector<ResultRow>& rows) {
  std::ostringstream out;
  write_csv(out, rows);
  return out.str();
}

std::string json_string(const std::vector<ResultRow>& rows) {
  std::ostringstream out;
  write_json(out, rows);
  return out.str();
}

}  // namespace wsched::harness
