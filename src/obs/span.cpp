#include "obs/span.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/artifact_writer.hpp"

namespace wsched::obs {

const char* to_string(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kAdmission: return "admission";
    case SpanPhase::kBackoff: return "backoff";
    case SpanPhase::kNet: return "net";
    case SpanPhase::kHop: return "hop";
    case SpanPhase::kCpuWait: return "cpu_wait";
    case SpanPhase::kCpu: return "cpu";
    case SpanPhase::kDiskWait: return "disk_wait";
    case SpanPhase::kDisk: return "disk";
  }
  return "?";
}

const char* to_string(SpanOutcome outcome) {
  switch (outcome) {
    case SpanOutcome::kInFlight: return "in_flight";
    case SpanOutcome::kCompleted: return "completed";
    case SpanOutcome::kShed: return "shed";
    case SpanOutcome::kTimeout: return "timeout";
    case SpanOutcome::kAbandoned: return "abandoned";
  }
  return "?";
}

SpanRecorder::Req& SpanRecorder::ensure(std::uint64_t job) {
  if (job >= reqs_.size()) reqs_.resize(job + 1);
  return reqs_[job];
}

SpanRecorder::Req* SpanRecorder::live(std::uint64_t job) {
  if (job >= reqs_.size()) return nullptr;
  Req& r = reqs_[job];
  // Unknown id, or already terminated (e.g. a completion racing a
  // client abandonment): every later hook is a no-op.
  if (r.arrival < 0 || r.end >= 0) return nullptr;
  return &r;
}

void SpanRecorder::charge(Req& r, Time t) {
  if (t > r.mark) {
    r.phase_ns[static_cast<std::size_t>(r.cur)] += t - r.mark;
    r.mark = t;
  }
}

void SpanRecorder::set_phase(Req& r, SpanPhase phase, Time t) {
  charge(r, t);
  r.cur = phase;
}

std::uint32_t SpanRecorder::open_span(Req& r, const char* name, Time t,
                                      int pid, std::uint32_t parent) {
  if (!keep_trees_) return kNoSpan;
  const std::uint32_t idx = static_cast<std::uint32_t>(pool_.size());
  SpanNode node;
  node.name = name;
  node.start = t;
  node.end = -1;
  node.parent = parent;
  node.next = kNoSpan;
  node.pid = pid;
  pool_.push_back(node);
  if (r.tail == kNoSpan) {
    r.head = idx;
  } else {
    pool_[r.tail].next = idx;
  }
  r.tail = idx;
  return idx;
}

std::uint32_t SpanRecorder::open_child(Req& r, const char* name, Time t,
                                       std::uint32_t parent) {
  if (!keep_trees_) return kNoSpan;
  return open_span(r, name, t, pool_[parent].pid, parent);
}

void SpanRecorder::close_span(std::uint32_t span, Time t) {
  if (span == kNoSpan) return;
  SpanNode& node = pool_[span];
  node.end = std::max(t, node.start);
}

void SpanRecorder::close_open_legs(Req& r, Time t) {
  close_span(r.slice, t);
  close_span(r.visit, t);
  close_span(r.leg, t);
  r.slice = r.visit = r.leg = kNoSpan;
}

void SpanRecorder::on_arrival(std::uint64_t job, Time t, bool dynamic,
                              Time demand, int pid) {
  Req& r = ensure(job);
  if (r.arrival >= 0) return;  // duplicate arrival: impossible, but safe
  r.arrival = t;
  r.mark = t;
  r.cur = SpanPhase::kAdmission;
  r.dynamic = dynamic;
  r.demand = demand;
  r.root = open_span(r, "request", t, pid, kNoSpan);
}

void SpanRecorder::on_class(std::uint64_t job, bool dynamic, Time demand) {
  if (job >= reqs_.size()) return;
  Req& r = reqs_[job];
  if (r.arrival < 0) return;
  r.dynamic = dynamic;
  r.demand = demand;
}

void SpanRecorder::begin_net(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr) return;
  close_open_legs(*r, t);
  set_phase(*r, SpanPhase::kNet, t);
  r->leg = open_child(*r, "rpc", t, r->root);
}

void SpanRecorder::begin_hop(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr) return;
  close_open_legs(*r, t);
  set_phase(*r, SpanPhase::kHop, t);
  r->leg = open_child(*r, "hop", t, r->root);
}

void SpanRecorder::begin_backoff(std::uint64_t job, Time t, bool admission) {
  Req* r = live(job);
  if (r == nullptr) return;
  close_open_legs(*r, t);
  set_phase(*r, admission ? SpanPhase::kAdmission : SpanPhase::kBackoff, t);
  r->leg = open_child(*r, "backoff", t, r->root);
}

void SpanRecorder::begin_visit(std::uint64_t job, Time t, int pid) {
  Req* r = live(job);
  if (r == nullptr) return;
  close_open_legs(*r, t);
  set_phase(*r, SpanPhase::kCpuWait, t);
  r->visit = open_span(*r, "visit", t, pid, r->root);
  ++r->attempts;
}

void SpanRecorder::cpu_run(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr || !in_visit(*r)) return;
  close_span(r->slice, t);
  set_phase(*r, SpanPhase::kCpu, t);
  r->slice = open_child(*r, "cpu", t, r->visit);
}

void SpanRecorder::cpu_wait(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr || !in_visit(*r)) return;
  close_span(r->slice, t);
  r->slice = kNoSpan;
  set_phase(*r, SpanPhase::kCpuWait, t);
}

void SpanRecorder::disk_run(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr || !in_visit(*r)) return;
  close_span(r->slice, t);
  set_phase(*r, SpanPhase::kDisk, t);
  r->slice = open_child(*r, "disk", t, r->visit);
}

void SpanRecorder::disk_wait(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr || !in_visit(*r)) return;
  close_span(r->slice, t);
  r->slice = kNoSpan;
  set_phase(*r, SpanPhase::kDiskWait, t);
}

void SpanRecorder::note(std::uint64_t job, const char* name, Time t,
                        std::int64_t value) {
  if (!keep_trees_) return;
  Req* r = live(job);
  if (r == nullptr) return;
  std::uint32_t parent = r->leg != kNoSpan    ? r->leg
                         : r->visit != kNoSpan ? r->visit
                                               : r->root;
  const std::uint32_t idx = open_child(*r, name, t, parent);
  pool_[idx].end = t;
  pool_[idx].value = value;
}

void SpanRecorder::terminal(std::uint64_t job, SpanOutcome outcome, Time t) {
  Req* r = live(job);
  if (r == nullptr) return;
  charge(*r, t);
  // The mark can sit past `t` when a request dies inside a context
  // switch (the CPU phase was marked at the future slice start); the
  // terminal time clamps up to it so closure and span containment hold.
  const Time end = r->mark;
  r->end = end;
  r->outcome = outcome;
  close_open_legs(*r, end);
  close_span(r->root, end);
}

SpanSummary SpanRecorder::summarize() const {
  SpanSummary summary;
  summary.enabled = true;
  for (const Req& r : reqs_) {
    if (r.arrival < 0 || r.end < 0) continue;
    SpanClassSummary& cls = summary.cls[r.dynamic ? 1 : 0];
    ++cls.count;
    cls.sojourn_s += to_seconds(r.end - r.arrival);
    Time sum = 0;
    for (std::size_t i = 0; i < kSpanPhaseCount; ++i) {
      cls.phase_s[i] += to_seconds(r.phase_ns[i]);
      sum += r.phase_ns[i];
    }
    if (sum != r.end - r.arrival) ++summary.closure_violations;
  }
  return summary;
}

namespace {

/// Exemplar candidate: ranked by (stretch desc, job asc) within a class.
struct Candidate {
  std::uint64_t job = 0;
  double stretch = 0.0;
};

}  // namespace

void SpanRecorder::require_trees() const {
  if (!keep_trees_)
    throw std::logic_error(
        "span exemplars need a recorder that keeps span trees");
}

void SpanRecorder::write_exemplars(std::ostream& stream, int k) const {
  require_trees();
  const int want = std::max(k, 0);
  // Rank terminated requests per class by stretch = sojourn / demand
  // (the unloaded demand recorded at arrival, refreshed at completion;
  // zero-demand requests rank by raw sojourn). Ties break toward the
  // lower job id, so the selection is deterministic.
  std::vector<Candidate> by_class[2];
  for (std::size_t job = 0; job < reqs_.size(); ++job) {
    const Req& r = reqs_[job];
    if (r.arrival < 0 || r.end < 0) continue;
    const double sojourn = to_seconds(r.end - r.arrival);
    const double basis = r.demand > 0 ? to_seconds(r.demand) : 1.0;
    by_class[r.dynamic ? 1 : 0].push_back(
        {static_cast<std::uint64_t>(job), sojourn / basis});
  }
  for (auto& candidates : by_class) {
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.stretch != b.stretch) return a.stretch > b.stretch;
                return a.job < b.job;
              });
    if (candidates.size() > static_cast<std::size_t>(want))
      candidates.resize(static_cast<std::size_t>(want));
  }

  ArtifactWriter out(stream);
  out.raw("{\n  \"k\": ").integer(want).raw(",\n  \"exemplars\": [");
  bool first_exemplar = true;
  for (const auto& candidates : by_class) {
    for (const Candidate& candidate : candidates) {
      const Req& r = reqs_[candidate.job];
      if (!first_exemplar) out.raw(',');
      first_exemplar = false;
      out.raw("\n    {\"job\": ")
          .integer(static_cast<std::int64_t>(candidate.job))
          .raw(", \"class\": \"")
          .raw(r.dynamic ? "dynamic" : "static")
          .raw("\", \"outcome\": \"")
          .raw(to_string(r.outcome))
          .raw("\", \"attempts\": ")
          .integer(r.attempts)
          .raw(",\n     \"arrival_ns\": ")
          .integer(r.arrival)
          .raw(", \"end_ns\": ")
          .integer(r.end)
          .raw(", \"demand_ns\": ")
          .integer(r.demand)
          .raw(", \"stretch\": ")
          .general(candidate.stretch)
          .raw(",\n     \"phases_ns\": {");
      for (std::size_t i = 0; i < kSpanPhaseCount; ++i) {
        if (i != 0) out.raw(", ");
        out.raw('"')
            .raw(to_string(static_cast<SpanPhase>(i)))
            .raw("\": ")
            .integer(r.phase_ns[i]);
      }
      out.raw("},\n     \"spans\": [");
      // Renumber this request's chain into local 0-based ids so each
      // exemplar is self-contained. Creation order means a parent always
      // precedes its children, so parent ids are already assigned.
      std::uint32_t local = 0;
      for (std::uint32_t idx = r.head; idx != kNoSpan;
           idx = pool_[idx].next, ++local) {
        const SpanNode& node = pool_[idx];
        if (local != 0) out.raw(',');
        out.raw("\n      {\"id\": ").integer(local).raw(", \"parent\": ");
        if (node.parent == kNoSpan) {
          out.raw("-1");
        } else {
          // Walk back through the chain to find the parent's local id.
          std::uint32_t parent_local = 0;
          for (std::uint32_t scan = r.head; scan != node.parent;
               scan = pool_[scan].next)
            ++parent_local;
          out.integer(parent_local);
        }
        out.raw(", \"name\": \"")
            .raw(node.name != nullptr ? node.name : "")
            .raw("\", \"pid\": ")
            .integer(node.pid)
            .raw(", \"start_ns\": ")
            .integer(node.start)
            .raw(", \"end_ns\": ")
            .integer(node.end)
            .raw(", \"value\": ")
            .integer(node.value)
            .raw('}');
      }
      out.raw("\n     ]}");
    }
  }
  out.raw("\n  ]\n}\n");
}

std::string SpanRecorder::exemplars_str(int k) const {
  std::ostringstream out;
  write_exemplars(out, k);
  return out.str();
}

void SpanRecorder::write_exemplars_file(const std::string& path,
                                        int k) const {
  require_trees();  // before the file is opened: never an empty dump
  write_artifact_file(path, "span output",
                      [&](std::ostream& out) { write_exemplars(out, k); });
}

}  // namespace wsched::obs
