// Span recorder for the traced run.
//
// The benchmark's own code opens a span around each call into a library
// layer (trace generation, Theorem-1 sizing, ClusterSim::run, invariant
// checks, fingerprinting, each obs write). A span records its name, host
// start and end, the span that was open when it began (its parent) and the
// experiment it belongs to (-1 outside any experiment). Spans stay in
// memory and are written as JSON when the benchmark exits.
//
// The benchmark is single-threaded, so children nest strictly inside their
// parent: a span's self time is its duration minus the sum of its direct
// children's durations.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;      ///< index into spans(), -1 for a root
    std::int32_t experiment;  ///< experiment index, -1 outside one
  };

  /// Per-name totals.
  struct SelfTime {
    std::int64_t self_ns = 0;
    std::uint64_t count = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_experiment(int id) { experiment_ = id; }

  /// Opens a span and makes it the current parent; -1 when disabled.
  int open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ns(), 0, current_, experiment_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time and call count per span name.
  std::map<std::string, SelfTime> self_times() const {
    std::vector<std::int64_t> self(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
      self[i] += duration;
      if (spans_[i].parent >= 0)
        self[static_cast<std::size_t>(spans_[i].parent)] -= duration;
    }
    std::map<std::string, SelfTime> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      SelfTime& t = totals[spans_[i].name];
      t.self_ns += self[i];
      ++t.count;
    }
    return totals;
  }

  /// {"spans": [...], "self_ms": {...}} with times in ns relative to the
  /// first span's start.
  void write_json(std::ostream& out) const {
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns - origin
          << ", \"end_ns\": " << s.end_ns - origin
          << ", \"parent\": " << s.parent
          << ", \"experiment\": " << s.experiment << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "],\n\"self_ms\": {";
    const auto totals = self_times();
    bool first = true;
    for (const auto& [name, t] : totals) {
      out << (first ? "\n" : ",\n") << "  \"" << name
          << "\": {\"self_ms\": " << static_cast<double>(t.self_ns) / 1e6
          << ", \"count\": " << t.count << "}";
      first = false;
    }
    out << "\n}}\n";
  }

 private:
  bool enabled_ = false;
  int current_ = -1;
  int experiment_ = -1;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
