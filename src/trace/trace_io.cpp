#include "trace/trace_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/artifact_writer.hpp"
#include "util/csv.hpp"

namespace wsched::trace {
namespace {

constexpr const char* kHeader =
    "arrival_ns,class,size_bytes,service_demand_ns,cpu_fraction,mem_pages,"
    "url_id";

}  // namespace

void save_trace(std::ostream& out, const Trace& trace) {
  out << kHeader << '\n';
  for (const auto& rec : trace.records) {
    out << rec.arrival << ','
        << (rec.is_dynamic() ? "dynamic" : "static") << ','
        << rec.size_bytes << ',' << rec.service_demand << ','
        << rec.cpu_fraction << ',' << rec.mem_pages << ','
        << rec.url_id << '\n';
  }
}

void save_trace_file(const std::string& path, const Trace& trace) {
  write_artifact_file(path, "workload trace",
                      [&](std::ostream& out) { save_trace(out, trace); });
}

Trace load_trace(std::istream& in) {
  Trace trace;
  std::string line;
  if (!std::getline(in, line))
    throw std::runtime_error("empty trace file");
  if (line.find("arrival_ns") == std::string::npos)
    throw std::runtime_error("missing trace header");
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = parse_csv_line(line);
    // 6-field rows are accepted for files written before url_id existed.
    if (fields.size() != 6 && fields.size() != 7)
      throw std::runtime_error("trace line " + std::to_string(line_no) +
                               ": expected 6 or 7 fields");
    try {
      TraceRecord rec;
      rec.arrival = std::stoll(fields[0]);
      if (fields[1] == "dynamic") {
        rec.cls = RequestClass::kDynamic;
      } else if (fields[1] == "static") {
        rec.cls = RequestClass::kStatic;
      } else {
        throw std::runtime_error("bad class: " + fields[1]);
      }
      rec.size_bytes = static_cast<std::uint32_t>(std::stoul(fields[2]));
      rec.service_demand = std::stoll(fields[3]);
      rec.cpu_fraction = std::stod(fields[4]);
      rec.mem_pages = static_cast<std::uint32_t>(std::stoul(fields[5]));
      if (fields.size() == 7) rec.url_id = std::stoull(fields[6]);
      trace.records.push_back(rec);
    } catch (const std::exception& e) {
      throw std::runtime_error("trace line " + std::to_string(line_no) +
                               ": " + e.what());
    }
  }
  return trace;
}

Trace load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return load_trace(in);
}

}  // namespace wsched::trace
