#include "check/schedule.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "check/json.hpp"
#include "util/artifact_writer.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace wsched::check {

namespace {

constexpr int kFormatVersion = 1;
constexpr const char* kFormatTag = "wsched-chaos-schedule";

/// Per-node arrival-rate band of generated schedules (lambda = p *
/// uniform(lo, hi)).
constexpr double kLambdaPerNodeLo = 35.0;
constexpr double kLambdaPerNodeHi = 85.0;
/// Probability that a schedule takes the autoscale branch instead of the
/// fault branch (the two are exclusive by construction).
constexpr double kAutoscaleProb = 0.25;

trace::WorkloadProfile profile_by_name(const std::string& name) {
  if (name == "ksu") return trace::ksu_profile();
  if (name == "ucb") return trace::ucb_profile();
  if (name == "dec") return trace::dec_profile();
  if (name == "adl") return trace::adl_profile();
  throw std::invalid_argument("chaos schedule: unknown profile '" + name +
                              "'");
}

const char* kProfiles[] = {"ksu", "ucb", "dec", "adl"};

// The schedule file format is these three tables: to_json writes each
// member in table order, schedule_from_json reads these keys and rejects
// any other, and a missing key keeps the struct default.
template <class T, class... V>
struct Field {
  using Record = T;
  const char* key;
  std::variant<V T::*...> member;
};

using C = CrashEpisode;
const Field<C, double, int> kCrashFields[] = {
    {"at_s", &C::at_s}, {"node", &C::node}, {"recover_s", &C::recover_s}};

using W = PartitionWindow;
const Field<W, double, int> kPartitionFields[] = {
    {"from_s", &W::from_s}, {"until_s", &W::until_s}, {"cut", &W::cut}};

using S = ChaosSchedule;
const Field<S, std::uint64_t, int, double, bool, std::string,
            std::vector<CrashEpisode>, std::vector<PartitionWindow>>
    kScheduleFields[] = {
        {"seed", &S::seed},
        // workload
        {"horizon_s", &S::horizon_s}, {"warmup_s", &S::warmup_s},
        {"p", &S::p}, {"m", &S::m}, {"lambda", &S::lambda},
        {"profile", &S::profile}, {"bursty", &S::bursty},
        {"diurnal", &S::diurnal}, {"diurnal_period_s", &S::diurnal_period_s},
        {"diurnal_amplitude", &S::diurnal_amplitude},
        {"flip_at_s", &S::flip_at_s}, {"flip_profile", &S::flip_profile},
        // fault layer
        {"fault", &S::fault}, {"crashes", &S::crashes},
        {"crash_mttf_s", &S::crash_mttf_s}, {"crash_mttr_s", &S::crash_mttr_s},
        {"degrade_mttf_s", &S::degrade_mttf_s},
        {"degrade_mttr_s", &S::degrade_mttr_s},
        {"degrade_cpu_factor", &S::degrade_cpu_factor},
        {"degrade_disk_factor", &S::degrade_disk_factor},
        {"stall_period_s", &S::stall_period_s},
        {"stall_len_s", &S::stall_len_s},
        // interconnect
        {"net", &S::net}, {"net_loss", &S::net_loss},
        {"net_latency_jitter_s", &S::net_latency_jitter_s},
        {"net_reorder", &S::net_reorder}, {"quorum", &S::quorum},
        {"stale_max_age_s", &S::stale_max_age_s},
        {"load_report_interval_s", &S::load_report_interval_s},
        {"partitions", &S::partitions},
        // overload control
        {"deadline_static_s", &S::deadline_static_s},
        {"deadline_dynamic_s", &S::deadline_dynamic_s},
        {"shed_policy", &S::shed_policy},
        {"overload_retries", &S::overload_retries},
        {"breakers", &S::breakers}, {"degraded_mode", &S::degraded_mode},
        // control plane
        {"ctrl", &S::ctrl}, {"ctrl_interval_s", &S::ctrl_interval_s},
        {"theta_slew", &S::theta_slew}, {"autoscale", &S::autoscale},
        {"min_powered", &S::min_powered},
        {"retarget_masters", &S::retarget_masters},
        // gray-failure defenses and the span probe
        {"slow_health", &S::slow_health},
        {"slow_health_exclude", &S::slow_health_exclude},
        {"hedge", &S::hedge}, {"hedge_delay_s", &S::hedge_delay_s},
        {"spans", &S::spans},
};

const auto& fields_of(const CrashEpisode&) { return kCrashFields; }
const auto& fields_of(const PartitionWindow&) { return kPartitionFields; }

// One writer and one reader per field type. A reader throws
// std::invalid_argument saying what the value must be.
template <class Item>
void write_value(std::string& out, const std::vector<Item>& items);
template <class Item>
void read_value(const JsonValue& v, std::vector<Item>& items);
void write_value(std::string& out, std::uint64_t v) { append_uint(out, v); }
void write_value(std::string& out, int v) { append_int(out, v); }
void write_value(std::string& out, double v) { append_number(out, v); }
void write_value(std::string& out, bool v) { out += v ? "true" : "false"; }
void write_value(std::string& out, const std::string& v) {
  out += '"';
  append_json_escaped(out, v);
  out += '"';
}

/// `"key": value` for every field, `separator` between them.
template <class F, std::size_t N>
void append_members(std::string& out, const typename F::Record& record,
                    const F (&fields)[N], const char* separator) {
  for (const F& field : fields) {
    if (&field != fields) out += separator;
    out += '"';
    out += field.key;
    out += "\": ";
    std::visit([&](auto member) { write_value(out, record.*member); },
               field.member);
  }
}

/// Nested records are written inline as [{...}, {...}].
template <class Item>
void write_value(std::string& out, const std::vector<Item>& items) {
  out += '[';
  for (const Item& item : items) {
    out += &item == items.data() ? "{" : ", {";
    append_members(out, item, fields_of(item), ", ");
    out += '}';
  }
  out += ']';
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("must be ") + what);
}
template <class T>
void read_value(const JsonValue& v, T& target) {
  const std::optional<T> parsed = v.integer<T>();
  require(parsed.has_value(), "an integer");
  target = *parsed;
}
void read_value(const JsonValue& v, double& target) {
  require(v.is(JsonValue::Kind::kNumber), "a number");
  target = v.number;
}
void read_value(const JsonValue& v, bool& target) {
  require(v.is(JsonValue::Kind::kBool), "a bool");
  target = v.boolean;
}
void read_value(const JsonValue& v, std::string& target) {
  require(v.is(JsonValue::Kind::kString), "a string");
  target = v.string;
}

/// Reads a record from a JSON object; an error names the member's key.
template <class F, std::size_t N>
typename F::Record read_members(const JsonValue& object,
                                const F (&fields)[N]) {
  require(object.is(JsonValue::Kind::kObject), "an object");
  typename F::Record record;
  for (const auto& [key, value] : object.object) {
    if (std::is_same_v<typename F::Record, ChaosSchedule> &&
        (key == "format" || key == "version"))
      continue;
    const F* field = std::find_if(
        fields, fields + N, [&key](const F& f) { return key == f.key; });
    if (field == fields + N)
      throw std::invalid_argument("\"" + key + "\" is not a schedule member");
    try {
      std::visit([&](auto member) { read_value(value, record.*member); },
                 field->member);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("\"" + key + "\" " + e.what());
    }
  }
  return record;
}

template <class Item>
void read_value(const JsonValue& v, std::vector<Item>& items) {
  require(v.is(JsonValue::Kind::kArray), "an array");
  for (const JsonValue& item : v.array)
    items.push_back(read_members(item, fields_of(Item{})));
}

}  // namespace

ChaosSchedule generate_schedule(std::uint64_t seed,
                                const ChaosGenConfig& config) {
  // A dedicated stream id keeps schedule sampling independent from every
  // in-run consumer of the same seed.
  Rng rng(seed, 0xC4A05C4EDULL);
  ChaosSchedule s;
  s.seed = seed;

  // --- workload ---
  s.horizon_s = rng.uniform(config.horizon_lo_s, config.horizon_hi_s);
  s.warmup_s = 1.0;
  s.p = 6 + 2 * static_cast<int>(rng.uniform_int(3));  // 6 | 8 | 10
  s.m = 2 + ((s.p >= 10 && rng.bernoulli(0.3)) ? 1 : 0);
  s.lambda = static_cast<double>(s.p) *
             rng.uniform(kLambdaPerNodeLo, kLambdaPerNodeHi);
  s.profile = kProfiles[rng.uniform_int(4)];
  s.bursty = rng.bernoulli(0.3);
  if (rng.bernoulli(0.2)) {
    s.flip_at_s = s.horizon_s * rng.uniform(0.35, 0.65);
    s.flip_profile = kProfiles[rng.uniform_int(4)];
  }

  const bool autoscale_branch = rng.bernoulli(kAutoscaleProb);
  if (!autoscale_branch) {
    // --- fault branch: crash/degrade/partition chaos ---
    s.fault = true;
    if (rng.bernoulli(0.5)) {
      s.crash_mttf_s = rng.uniform(6.0, 30.0);
      s.crash_mttr_s = rng.uniform(1.0, 4.0);
    }
    const int scripted = static_cast<int>(rng.uniform_int(3));  // 0..2
    for (int i = 0; i < scripted; ++i) {
      CrashEpisode c;
      c.at_s = rng.uniform(s.warmup_s, 0.8 * s.horizon_s);
      // Bias crashes toward masters: promotions are where the membership
      // invariants live.
      c.node = rng.bernoulli(0.5)
                   ? static_cast<int>(rng.uniform_int(
                         static_cast<std::uint64_t>(s.m)))
                   : static_cast<int>(rng.uniform_int(
                         static_cast<std::uint64_t>(s.p)));
      c.recover_s =
          rng.bernoulli(0.75) ? c.at_s + rng.uniform(1.0, 4.0) : 0.0;
      s.crashes.push_back(c);
    }
    if (rng.bernoulli(0.4)) {
      s.degrade_mttf_s = rng.uniform(4.0, 15.0);
      s.degrade_mttr_s = rng.uniform(1.0, 3.0);
      s.degrade_cpu_factor = rng.uniform(0.15, 0.5);
      s.degrade_disk_factor = rng.uniform(0.3, 0.8);
      if (rng.bernoulli(0.5)) {
        s.stall_period_s = rng.uniform(0.5, 2.0);
        s.stall_len_s = rng.uniform(0.01, 0.08);
      }
    }
    s.net = rng.bernoulli(0.7);
    if (s.net) {
      if (rng.bernoulli(0.7)) s.net_loss = rng.uniform(0.0, 0.08);
      s.net_latency_jitter_s = rng.uniform(0.0, 0.002);
      if (rng.bernoulli(0.3)) s.net_reorder = rng.uniform(0.0, 0.2);
      if (rng.bernoulli(0.4)) s.stale_max_age_s = rng.uniform(0.5, 2.0);
      if (rng.bernoulli(0.3))
        s.load_report_interval_s = rng.uniform(0.1, 0.5);
      if (rng.bernoulli(0.6)) {
        const int windows = 1 + static_cast<int>(rng.uniform_int(2));
        for (int i = 0; i < windows; ++i) {
          PartitionWindow w;
          w.from_s = rng.uniform(s.warmup_s,
                                 std::max(s.warmup_s + 0.5,
                                          s.horizon_s - 2.0));
          w.until_s = w.from_s + rng.uniform(0.5, 2.5);
          // Small minority side (usually containing master 0) most of the
          // time; an arbitrary split otherwise.
          w.cut = rng.bernoulli(0.6)
                      ? 1 + static_cast<int>(rng.uniform_int(2))
                      : 1 + static_cast<int>(rng.uniform_int(
                                static_cast<std::uint64_t>(s.p - 1)));
          s.partitions.push_back(w);
        }
        // Partition-during-promotion: slide the first window onto the
        // first scripted crash so the membership round that replaces the
        // dead master runs while the cluster is split.
        if (!s.crashes.empty() && rng.bernoulli(0.5)) {
          const double dur =
              s.partitions[0].until_s - s.partitions[0].from_s;
          s.partitions[0].from_s = s.crashes[0].at_s + rng.uniform(0.0, 0.3);
          s.partitions[0].until_s = s.partitions[0].from_s + dur;
        }
      }
    }
    s.ctrl = rng.bernoulli(0.35);
    if (s.ctrl) {
      s.ctrl_interval_s = rng.uniform(0.3, 1.0);
      s.theta_slew = rng.uniform(0.02, 0.10);
    }
  } else {
    // --- autoscale branch: power churn chaos (fault layer must stay off;
    // ClusterSim rejects the combination outright) ---
    s.ctrl = true;
    s.autoscale = true;
    s.ctrl_interval_s = rng.uniform(0.3, 1.0);
    s.theta_slew = rng.uniform(0.02, 0.10);
    s.min_powered = 2;
    s.retarget_masters = rng.bernoulli(0.3);
    s.diurnal = rng.bernoulli(0.7);  // day/night swing drives scale actions
    s.net = rng.bernoulli(0.5);
    if (s.net) {
      if (rng.bernoulli(0.7)) s.net_loss = rng.uniform(0.0, 0.05);
      s.net_latency_jitter_s = rng.uniform(0.0, 0.002);
    }
  }
  if (!s.diurnal && rng.bernoulli(0.2)) s.diurnal = true;
  if (s.diurnal) {
    s.diurnal_period_s = rng.uniform(4.0, 10.0);
    s.diurnal_amplitude = rng.uniform(0.3, 0.7);
  }

  // --- overload control (either branch) ---
  if (rng.bernoulli(0.5)) {
    if (rng.bernoulli(0.7)) s.deadline_static_s = rng.uniform(0.5, 1.5);
    if (rng.bernoulli(0.7)) s.deadline_dynamic_s = rng.uniform(1.0, 3.0);
    static const char* kPolicies[] = {"none", "queue", "util", "stretch"};
    s.shed_policy = kPolicies[rng.uniform_int(4)];
    s.overload_retries = static_cast<int>(rng.uniform_int(4));
    s.breakers = rng.bernoulli(0.4);
    s.degraded_mode = rng.bernoulli(0.3);
  }

  // --- gray-failure defenses (either branch) ---
  s.slow_health = rng.bernoulli(0.35);
  if (s.slow_health) s.slow_health_exclude = rng.bernoulli(0.5);
  s.hedge = rng.bernoulli(0.4);
  if (s.hedge && rng.bernoulli(0.3))
    s.hedge_delay_s = rng.uniform(0.02, 0.10);

  // --- span probe ---
  s.spans = rng.bernoulli(0.5);
  return s;
}

std::string validate(const ChaosSchedule& s) {
  if (s.p < 2 || s.m < 1 || s.m >= s.p) return "need 2 <= m+1 <= p";
  if (s.warmup_s < 0.0) return "warmup must be >= 0";
  if (s.horizon_s <= s.warmup_s) return "horizon must exceed warmup";
  for (const std::string& name : {s.profile, s.flip_profile})
    if (std::find(std::begin(kProfiles), std::end(kProfiles), name) ==
        std::end(kProfiles))
      return "unknown profile '" + name + "'";
  if (s.lambda <= 0.0) return "lambda must be > 0";
  if (s.autoscale && s.fault)
    return "autoscale and the fault layer are mutually exclusive";
  if (!s.partitions.empty() && (!s.net || !s.fault))
    return "partitions require the net model and the fault layer";
  if (!s.crashes.empty() && !s.fault) return "crashes require the fault layer";
  for (const CrashEpisode& c : s.crashes) {
    if (c.node < 0 || c.node >= s.p) return "crash node out of range";
    if (c.at_s <= 0.0) return "crash time must be > 0";
    if (c.recover_s > 0.0 && c.recover_s <= c.at_s)
      return "crash recovery must follow the crash";
  }
  for (const PartitionWindow& w : s.partitions) {
    if (w.cut < 1 || w.cut >= s.p) return "partition cut out of range";
    if (w.until_s <= w.from_s) return "partition window must be non-empty";
  }
  if (s.net_loss < 0.0 || s.net_loss >= 1.0) return "loss must be in [0, 1)";
  if (s.shed_policy != "none" && s.shed_policy != "queue" &&
      s.shed_policy != "util" && s.shed_policy != "stretch")
    return "unknown shed policy";
  if (s.ctrl && s.min_powered < 1) return "min_powered must be >= 1";
  return "";
}

core::ExperimentSpec to_spec(const ChaosSchedule& s) {
  const std::string problem = validate(s);
  if (!problem.empty())
    throw std::invalid_argument("chaos schedule: " + problem);

  core::ExperimentSpec spec;
  spec.profile = profile_by_name(s.profile);
  spec.p = s.p;
  spec.m = s.m;
  spec.lambda = s.lambda;
  spec.r = 1.0 / 40.0;
  spec.duration_s = s.horizon_s;
  spec.warmup_s = s.warmup_s;
  spec.kind = core::SchedulerKind::kMs;
  // Salt the run seed so the workload stream is independent of the
  // generator's own sampling stream.
  std::uint64_t state = s.seed;
  spec.seed = splitmix64(state);
  spec.bursty = s.bursty;
  spec.diurnal = s.diurnal;
  spec.diurnal_period_s = s.diurnal_period_s;
  spec.diurnal_amplitude = s.diurnal_amplitude;
  if (s.flip_at_s > 0.0 && s.flip_at_s < s.horizon_s) {
    spec.flip_at_s = s.flip_at_s;
    spec.flip_profile = profile_by_name(s.flip_profile);
  }

  if (s.fault) {
    spec.fault.enabled = true;
    spec.fault.mttf_s = s.crash_mttf_s;
    spec.fault.mttr_s = s.crash_mttr_s;
    for (const CrashEpisode& c : s.crashes) {
      spec.fault.script.push_back({from_seconds(c.at_s), c.node,
                                   fault::FaultKind::kCrash, 1.0, 1.0});
      if (c.recover_s > c.at_s)
        spec.fault.script.push_back({from_seconds(c.recover_s), c.node,
                                     fault::FaultKind::kRecover, 1.0, 1.0});
    }
    spec.fault.degrade_mttf_s = s.degrade_mttf_s;
    spec.fault.degrade_mttr_s = s.degrade_mttr_s;
    spec.fault.degrade_cpu_factor = s.degrade_cpu_factor;
    spec.fault.degrade_disk_factor = s.degrade_disk_factor;
    spec.fault.stall_period_s = s.stall_period_s;
    spec.fault.stall_len_s = s.stall_len_s;
  }

  if (s.net) {
    spec.net.enabled = true;
    spec.net.loss = s.net_loss;
    spec.net.latency_jitter_s = s.net_latency_jitter_s;
    spec.net.reorder = s.net_reorder;
    spec.net.quorum = s.quorum;
    spec.net.stale_max_age_s = s.stale_max_age_s;
    spec.net.load_report_interval_s = s.load_report_interval_s;
    for (const PartitionWindow& w : s.partitions) {
      net::PartitionSpec part;
      part.from = from_seconds(w.from_s);
      part.until = from_seconds(w.until_s);
      part.groups.resize(2);
      for (int n = 0; n < s.p; ++n)
        part.groups[n < w.cut ? 0 : 1].push_back(n);
      spec.net.partitions.push_back(std::move(part));
    }
  }

  spec.overload.deadline.static_s = s.deadline_static_s;
  spec.overload.deadline.dynamic_s = s.deadline_dynamic_s;
  spec.overload.admission.policy =
      overload::parse_admission_policy(s.shed_policy);
  spec.overload.admission.max_queue = 24.0;
  spec.overload.admission.max_utilization = 0.85;
  spec.overload.admission.stretch_target = 5.0;
  spec.overload.max_retries = s.overload_retries;
  spec.overload.breaker.enabled = s.breakers;
  spec.overload.breaker.queue_trip = 64.0;
  spec.overload.saturation.enabled = s.degraded_mode;
  spec.overload.saturation.enter_queue = 12.0;
  spec.overload.saturation.exit_queue = 4.0;

  if (s.ctrl) {
    spec.ctrl.enabled = true;
    spec.ctrl.interval_s = s.ctrl_interval_s;
    spec.ctrl.theta_slew = s.theta_slew;
    spec.ctrl.autoscale = s.autoscale;
    spec.ctrl.min_powered = s.min_powered;
    spec.ctrl.retarget_masters = s.retarget_masters;
  }

  if (s.slow_health) {
    spec.slow_health.enabled = true;
    spec.slow_health.exclude = s.slow_health_exclude;
  }
  if (s.hedge) {
    spec.hedge.enabled = true;
    spec.hedge.delay_s = s.hedge_delay_s;
  }
  spec.obs.spans = s.spans;

  // Runaway guard: a hostile composition may saturate, but it must
  // quarantine (EngineGuardError -> "engine-guard" violation), not spin.
  spec.max_events = 80'000'000;
  return spec;
}

std::string to_json(const ChaosSchedule& s) {
  std::string out = "{\n  \"format\": \"";
  out += kFormatTag;
  out += "\",\n  \"version\": ";
  append_int(out, kFormatVersion);
  out += ",\n  ";
  append_members(out, s, kScheduleFields, ",\n  ");
  out += "\n}\n";
  return out;
}

ChaosSchedule schedule_from_json(const std::string& text) {
  const JsonValue doc = parse_json(text);
  if (!doc.is(JsonValue::Kind::kObject))
    throw std::invalid_argument("chaos schedule: not a JSON object");
  if (doc.get_string("format", "") != kFormatTag)
    throw std::invalid_argument(
        "chaos schedule: missing or wrong \"format\" tag");
  if (doc.get_number("version", 0) != kFormatVersion)
    throw std::invalid_argument("chaos schedule: unsupported version");
  try {
    return read_members(doc, kScheduleFields);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("chaos schedule: ") + e.what());
  }
}

}  // namespace wsched::check
