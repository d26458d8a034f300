// Chaos runner: replay one schedule and judge it.
//
// run_schedule() lowers a ChaosSchedule to an ExperimentSpec, replays it
// through run_experiment (deterministic in the spec), runs the full
// InvariantRegistry over the outcome, and returns the structured verdict
// plus the canonical metrics row and its FNV-1a hash — the byte-identity
// key the determinism tests and the shrinker compare. A run that trips the
// engine's runaway guard is reported as an "engine-guard" violation (a
// schedule that cannot finish is itself a finding); any other exception is
// surfaced in `error`.
#pragma once

#include <cstdint>
#include <string>

#include "check/invariants.hpp"
#include "check/schedule.hpp"
#include "harness/artifacts.hpp"

namespace wsched::check {

struct ChaosOutcome {
  InvariantReport report;
  /// Canonical full-schema metrics row (base + net + ctrl + gray + span
  /// columns, preceded by the schedule seed) — the replay artifact.
  harness::ResultRow row;
  /// FNV-1a over the row's canonical CSV serialization.
  std::uint64_t artifact_hash = 0;
  bool engine_guard = false;  ///< run aborted on the runaway guard
  std::string error;          ///< non-guard failure (exception text)
  bool invalid = false;  ///< `error` is bad input (std::invalid_argument)

  bool ok() const { return error.empty() && report.ok(); }
  /// True when the outcome carries at least one invariant violation (the
  /// engine-guard counts; a hard `error` does not — it is a runner
  /// failure, not a property of the schedule).
  bool violated() const { return !report.ok(); }
};

/// FNV-1a 64-bit over a byte string (the artifact-hash primitive).
std::uint64_t fnv1a(const std::string& bytes);

/// Replays `schedule` and checks every applicable invariant. Deterministic:
/// the same schedule always yields the same outcome, row and hash.
ChaosOutcome run_schedule(const ChaosSchedule& schedule);

}  // namespace wsched::check
