#include "trace/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>

namespace wsched::trace {
namespace {

constexpr double kPageBytes = 8192.0;
/// Bursty (MMPP) arrivals: the flash-phase rate multiplier and the
/// long-run fraction of time spent in the flash phase.
constexpr double kFlashMultiplier = 3.0;
constexpr double kFlashFraction = 0.2;

std::uint32_t clamp_pages(double pages) {
  return static_cast<std::uint32_t>(
      std::clamp(pages, 1.0, 8192.0));
}

/// Standard normal CDF.
double phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Exact expectation of the substituted SPECweb file size when the intended
/// size is lognormal with the given mean and sigma (clamped to [64, 1e6]
/// like the generator does). The substitution is a step function of the
/// intended size whose cells are the midpoints between consecutive file
/// sizes, so the expectation is a finite sum of lognormal CDF differences.
double expected_substituted_bytes(double mean_bytes, double sigma) {
  const SpecWebFileSet files;
  std::array<double, SpecWebFileSet::kFileCount> sizes{};
  for (int i = 0; i < files.count(); ++i)
    sizes[static_cast<std::size_t>(i)] = files.file(i).size_bytes;
  std::sort(sizes.begin(), sizes.end());

  const double mu = std::log(mean_bytes) - 0.5 * sigma * sigma;
  const auto cdf = [&](double x) {
    // Probability the *clamped* intended size is <= x.
    if (x < 64.0) return 0.0;
    if (x >= 1.0e6) return 1.0;
    return phi((std::log(x) - mu) / sigma);
  };

  double expectation = 0.0;
  double prev_boundary = 0.0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double next_boundary =
        i + 1 < sizes.size() ? 0.5 * (sizes[i] + sizes[i + 1]) : 1.0e18;
    const double mass = cdf(next_boundary) - cdf(prev_boundary);
    expectation += sizes[i] * mass;
    prev_boundary = next_boundary;
  }
  return expectation;
}

}  // namespace

double specweb_mean_bytes() {
  const SpecWebFileSet files;
  const auto mix = SpecWebFileSet::class_mix();
  double mean = 0.0;
  for (int c = 0; c < SpecWebFileSet::kClasses; ++c) {
    double class_mean = 0.0;
    for (int i = 0; i < SpecWebFileSet::kFilesPerClass; ++i)
      class_mean += files.file(c * SpecWebFileSet::kFilesPerClass + i)
                        .size_bytes;
    class_mean /= SpecWebFileSet::kFilesPerClass;
    mean += mix[c] * class_mean;
  }
  return mean;
}

Trace generate(const GeneratorConfig& config) {
  if (config.lambda <= 0) throw std::invalid_argument("lambda must be > 0");
  if (config.duration_s <= 0)
    throw std::invalid_argument("duration must be > 0");
  if (config.r <= 0 || config.mu_h <= 0)
    throw std::invalid_argument("service rates must be > 0");
  if (config.diurnal &&
      (config.diurnal_amplitude < 0.0 || config.diurnal_amplitude > 1.0 ||
       config.diurnal_period_s <= 0.0))
    throw std::invalid_argument(
        "diurnal amplitude must be in [0, 1] and period > 0");

  // Independent streams: arrivals, class choice, static sizing, dynamic
  // sizing, demands — so changing one aspect of the generator never
  // perturbs the draws of the others.
  Rng arrivals(config.seed, 0x41);
  Rng classes(config.seed, 0x42);
  Rng static_draw(config.seed, 0x43);
  Rng dynamic_draw(config.seed, 0x44);
  Rng demand_draw(config.seed, 0x45);

  // Zipf popularity over distinct dynamic content items.
  std::optional<ZipfSampler> zipf;
  if (config.cgi_distinct_urls > 0)
    zipf.emplace(config.cgi_distinct_urls, config.cgi_zipf_s);
  std::uint64_t unique_url = 1'000'000'000ULL;

  const SpecWebFileSet files;
  // Normalizer for size-coupled static demand: the expected size actually
  // served for THIS profile (intended lognormal pushed through the closest-
  // file substitution), so that E[static demand] == 1/mu_h holds exactly.
  const double expected_bytes =
      expected_substituted_bytes(config.profile.html_mean_bytes, 1.2);
  const double static_mean_demand = 1.0 / config.mu_h;
  const double dynamic_mean_demand = 1.0 / (config.r * config.mu_h);

  // MMPP phase bookkeeping: the calm-phase rate is chosen so the long-run
  // average equals lambda given the multiplier and flash time fraction.
  // Diurnal thinning envelope: gaps are drawn at rate * (1 + A) and each
  // arrival is kept with probability lambda(t) / envelope, which leaves
  // the arrival stream untouched (no extra draws) when diurnal is off.
  const double diurnal_env =
      config.diurnal ? 1.0 + config.diurnal_amplitude : 1.0;
  const double calm_rate =
      (config.bursty
           ? config.lambda / (1.0 - kFlashFraction +
                              kFlashFraction * kFlashMultiplier)
           : config.lambda) *
      diurnal_env;
  const double flash_rate = calm_rate * kFlashMultiplier;
  // Mean phase residence times (seconds); flash phases are short.
  const double flash_hold = 0.5;
  const double calm_hold =
      config.bursty ? flash_hold * (1.0 - kFlashFraction) / kFlashFraction
                    : 1e30;
  bool in_flash = false;
  double phase_left = config.bursty ? arrivals.exponential(calm_hold) : 1e30;

  Trace trace;
  trace.records.reserve(
      static_cast<std::size_t>(config.lambda * config.duration_s * 1.1) + 16);

  double now_s = 0.0;
  while (true) {
    double rate = in_flash ? flash_rate : calm_rate;
    double gap = arrivals.exponential(1.0 / rate);
    if (config.bursty) {
      // Advance through phase switches; arrival rate changes mid-gap are
      // approximated by re-drawing the remainder at the new rate.
      while (gap > phase_left) {
        now_s += phase_left;
        gap = 0.0;
        in_flash = !in_flash;
        phase_left =
            arrivals.exponential(in_flash ? flash_hold : calm_hold);
        rate = in_flash ? flash_rate : calm_rate;
        gap = arrivals.exponential(1.0 / rate);
      }
      phase_left -= gap;
    }
    now_s += gap;
    if (now_s >= config.duration_s) break;
    if (config.diurnal) {
      const double mod =
          1.0 + config.diurnal_amplitude *
                    std::sin(2.0 * 3.14159265358979323846 * now_s /
                             config.diurnal_period_s);
      if (!arrivals.bernoulli(mod / diurnal_env)) continue;
    }

    TraceRecord rec;
    rec.arrival = from_seconds(now_s);
    const bool dynamic = classes.bernoulli(config.profile.cgi_fraction);
    if (dynamic) {
      rec.cls = RequestClass::kDynamic;
      rec.size_bytes = static_cast<std::uint32_t>(std::max(
          64.0, dynamic_draw.lognormal_mean(config.profile.cgi_mean_bytes,
                                            config.profile.cgi_size_sigma)));
      // Exponential service (the queueing model's assumption), mean
      // 1/(r*mu_h) — this is what WebSTONE spin / WebGlimpse / ADL loads
      // were tuned to in the paper.
      rec.service_demand =
          from_seconds(demand_draw.exponential(dynamic_mean_demand));
      double w_mean = config.profile.cgi_cpu_fraction;
      if (!config.profile.cgi_types.empty()) {
        double u = dynamic_draw.uniform();
        double total = 0.0;
        for (const auto& type : config.profile.cgi_types)
          total += type.weight;
        u *= total;
        w_mean = config.profile.cgi_types.back().cpu_fraction;
        for (const auto& type : config.profile.cgi_types) {
          if (u < type.weight) {
            w_mean = type.cpu_fraction;
            break;
          }
          u -= type.weight;
        }
      }
      rec.cpu_fraction = std::clamp(
          dynamic_draw.normal(w_mean, config.profile.cgi_cpu_spread),
          0.05, 0.95);
      rec.mem_pages = clamp_pages(dynamic_draw.lognormal_mean(
          config.profile.cgi_mem_pages_mean,
          config.profile.cgi_mem_pages_sigma));
      rec.url_id = zipf ? 1 + zipf->sample(dynamic_draw) : unique_url++;
    } else {
      rec.cls = RequestClass::kStatic;
      // Intended size from the profile's HTML distribution, substituted by
      // the closest SPECweb96 file (the paper's replay rule).
      const double intended = static_draw.lognormal_mean(
          config.profile.html_mean_bytes, 1.2);
      const int file_idx = files.closest_file(static_cast<std::uint32_t>(
          std::clamp(intended, 64.0, 1.0e6)));
      rec.size_bytes = files.file(file_idx).size_bytes;
      if (config.size_coupled_static) {
        // Demand tracks the substituted size with a protocol-processing
        // floor; normalized so E[demand] == 1/mu_h for this profile.
        rec.service_demand = from_seconds(
            static_mean_demand *
            (0.3 + 0.7 * rec.size_bytes / expected_bytes));
      } else {
        rec.service_demand =
            from_seconds(demand_draw.exponential(static_mean_demand));
      }
      rec.cpu_fraction = config.profile.static_cpu_fraction;
      rec.mem_pages = clamp_pages(rec.size_bytes / kPageBytes + 1.0);
      // Static content identity is the served file.
      rec.url_id = static_cast<std::uint64_t>(file_idx) + 1;
    }
    if (rec.service_demand <= 0) rec.service_demand = 1;  // never free
    trace.records.push_back(rec);
  }
  return trace;
}

void rescale_to_rate(Trace& trace, double lambda) {
  if (lambda <= 0) throw std::invalid_argument("lambda must be > 0");
  if (trace.records.size() < 2) return;
  const Time first = trace.records.front().arrival;
  const Time old_span = trace.span();
  if (old_span <= 0) return;
  const double new_span_s =
      static_cast<double>(trace.records.size() - 1) / lambda;
  const double scale = from_seconds(new_span_s) /
                       static_cast<double>(old_span);
  for (auto& rec : trace.records) {
    rec.arrival = first + static_cast<Time>(
                              static_cast<double>(rec.arrival - first) *
                              scale);
  }
}

}  // namespace wsched::trace
