#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/rng.hpp"

namespace wsched {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

PercentileSampler::PercentileSampler(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity ? capacity : 1), rng_state_(seed) {
  sample_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void PercentileSampler::add(double x) {
  ++seen_;
  if (sample_.size() < capacity_) {
    sample_.push_back(x);
    dirty_ = true;
    return;
  }
  // Algorithm R: replace a random slot with probability capacity/seen.
  const std::uint64_t r = splitmix64(rng_state_);
  const std::uint64_t slot = r % seen_;
  if (slot < capacity_) {
    sample_[static_cast<std::size_t>(slot)] = x;
    dirty_ = true;
  }
}

double PercentileSampler::percentile(double q) const {
  if (sample_.empty()) return 0.0;
  if (dirty_) {
    scratch_ = sample_;
    dirty_ = false;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(scratch_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, scratch_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Rank `lo` by nth_element and rank lo + 1 as the minimum of the part
  // above it: exactly the values the sorted sample holds at those ranks,
  // so the result is bit-identical to sort-then-interpolate. nth_element
  // accepts any permutation, so repeated calls reuse the partially
  // partitioned scratch copy.
  const auto lo_it = scratch_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(scratch_.begin(), lo_it, scratch_.end());
  const double lo_value = *lo_it;
  const double hi_value =
      hi == lo ? lo_value : *std::min_element(lo_it + 1, scratch_.end());
  return lo_value * (1.0 - frac) + hi_value * frac;
}

TrailingQuantile::TrailingQuantile(double q, std::size_t window,
                                   std::size_t refresh)
    : q_(std::clamp(q, 0.0, 1.0)),
      window_(window ? window : 1),
      refresh_(refresh ? refresh : 1) {
  ring_.reserve(window_);
}

void TrailingQuantile::add(double x) {
  if (ring_.size() < window_) {
    ring_.push_back(x);
  } else {
    ring_[seen_ % window_] = x;
  }
  ++seen_;
  if (++since_refresh_ >= refresh_ || seen_ <= min_samples_) {
    since_refresh_ = 0;
    recompute();
  }
}

void TrailingQuantile::recompute() {
  if (ring_.empty()) {
    value_ = 0.0;
    return;
  }
  scratch_ = ring_;
  const double pos = q_ * static_cast<double>(scratch_.size() - 1);
  const auto rank = static_cast<std::size_t>(pos + 0.5);
  auto nth = scratch_.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(scratch_.begin(), nth, scratch_.end());
  value_ = *nth;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins ? bins : 1, 0) {}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::size_t>((x - lo_) / width);
  if (idx >= counts_.size()) idx = counts_.size() - 1;  // fp edge
  ++counts_[idx];
}

double Histogram::bin_low(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bin_high(std::size_t i) const { return bin_low(i + 1); }

std::string Histogram::ascii(std::size_t width) const {
  std::size_t peak = 1;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(width));
    out << "[" << bin_low(i) << ", " << bin_high(i) << ") "
        << std::string(std::max<std::size_t>(bar, 1), '#') << " "
        << counts_[i] << "\n";
  }
  return out.str();
}

}  // namespace wsched
