// The shared command line of every bench/example binary.
//
// One flag table (shared_flags() in bench_cli.cpp) declares each shared
// knob once: its name, its doc string and the config field it sets. The
// field's struct default is the flag's default. Each binary passes its
// own flags (--lambda, --seed, --chaos-*, ...) as entries of the same
// form, so every flag a binary accepts is parsed in one place, strictly
// (see util/cli.hpp): a malformed value, an unknown flag or a positional
// argument prints one line to stderr and exits with status 2.
//
// The subsystem knobs come in groups (overload, net, ctrl, gray fail-slow
// churn, slow-health watchdog, hedging). Giving any flag of a group
// switches that subsystem on for every evaluated point; with none given,
// each point keeps the subsystem as its bench configured it.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "ctrl/controller.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "harness/sweep.hpp"
#include "net/network.hpp"
#include "obs/observer.hpp"
#include "util/cli.hpp"

namespace wsched::harness {

struct BenchCli {
  /// Parses argv against the shared flags plus `bench_flags`, exiting
  /// with status 2 on bad input. `default_jobs` is the --jobs default
  /// (0 = all cores).
  BenchCli(int argc, const char* const* argv,
           std::vector<Flag> bench_flags = {}, int default_jobs = 0);

  SweepOptions options;
  std::string out;
  bool list = false;
  bool quick = false;
  /// Observability request; run_bench applies it to every evaluated point
  /// (with per-point path suffixes so concurrent points never share a
  /// file).
  obs::ObsConfig obs;
  /// Each subsystem request below is applied to every evaluated point when
  /// its switch is on: `overload_set`, or the config's own `enabled`.
  overload::OverloadConfig overload;
  bool overload_set = false;
  net::NetworkParams net;
  ctrl::CtrlConfig ctrl;
  /// Fail-slow churn: run_bench merges the degrade fields into each
  /// point's FaultConfig (and enables the fault layer) without clobbering
  /// scripted crashes.
  fault::FaultConfig gray;
  fault::SlowHealthConfig slow_health;
  core::HedgeConfig hedge;
};

/// Artifact path stem for one sweep under --out (empty when --out unset).
std::string artifact_stem(const SweepSpec& spec, const BenchCli& cli);

/// `base` specialized to one grid point: when `multi`, every file path is
/// suffixed "-p<index>" before its extension (and a default probe path is
/// pinned) so points running in parallel write distinct files.
obs::ObsConfig obs_for_point(const obs::ObsConfig& base, std::size_t index,
                             bool multi);

/// The shared bench protocol: under --list prints the filtered point ids
/// and returns nullopt (the caller should exit); otherwise runs the sweep
/// with the CLI's jobs/filters — with any --trace/--probe/--decision-log
/// observability injected into each point's spec — writes <out>.csv /
/// <out>.json when --out is set, and returns the run for the bench's own
/// table rendering.
std::optional<SweepRun> run_bench(const SweepSpec& spec, const BenchCli& cli,
                                  const EvalFn& eval);

}  // namespace wsched::harness
