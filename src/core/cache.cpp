#include "core/cache.hpp"

#include <memory>
#include <vector>

#include "core/run.hpp"

namespace wsched::core {

CgiCache::CgiCache(std::size_t capacity, Time ttl)
    : capacity_(capacity), ttl_(ttl) {}

bool CgiCache::lookup(std::uint64_t url, Time now) {
  if (capacity_ == 0 || url == 0) return false;
  ++lookups_;
  const auto it = map_.find(url);
  if (it == map_.end()) return false;
  if (now - it->second->stored_at > ttl_) {
    lru_.erase(it->second);
    map_.erase(it);
    return false;
  }
  // Refresh recency.
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return true;
}

void CgiCache::insert(std::uint64_t url, Time now) {
  if (capacity_ == 0 || url == 0) return;
  const auto it = map_.find(url);
  if (it != map_.end()) {
    it->second->stored_at = now;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back().url);
    lru_.pop_back();
  }
  lru_.push_front(Entry{url, now});
  map_[url] = lru_.begin();
}

namespace {

/// The cache layer: one CgiCache per potential receiver. A fresh hit at
/// the receiving master demotes the request to a local static fetch of the
/// stored response; every dynamic completion refreshes the receiver's
/// cache.
class CacheLayer final : public Layer {
 public:
  explicit CacheLayer(ClusterRun& run)
      : run_(run),
        caches_(static_cast<std::size_t>(run.config().p),
                CgiCache(run.config().cgi_cache_entries,
                         run.config().cgi_cache_ttl)) {}

  void on_dispatch(sim::Job& job, Dispatch& dispatch) override {
    if (!job.request.is_dynamic()) return;
    Decision& decision = dispatch.decision;
    const Time now = run_.engine().now();
    if (!caches_[static_cast<std::size_t>(decision.receiver)].lookup(
            job.request.url_id, now))
      return;
    // The receiving master serves the fresh cached response as a plain
    // file fetch, bypassing CGI execution entirely.
    dispatch.cache_hit = true;
    decision.node = decision.receiver;
    decision.remote = false;
    decision.rsrc_w = -1.0;
    const std::uint64_t size_bytes = job.request.size_bytes;
    job.request.cls = trace::RequestClass::kStatic;
    // Serve cost of the stored response: same size-coupled model the
    // generator uses for files (15027 bytes is the SPECweb96 mix mean).
    job.request.service_demand = from_seconds(
        (0.3 + 0.7 * size_bytes / 15027.0) / run_.config().cache_hit_mu);
    job.request.cpu_fraction = 0.4;
    job.request.mem_pages = size_bytes / run_.config().os.page_bytes + 1;
    if (obs::SpanRecorder* spans = run_.spans()) {
      spans->on_class(job.id, false, job.request.service_demand);
      spans->note(job.id, "cache-hit", now);
    }
  }

  void on_completed(const sim::Job& job, int, Time at) override {
    if (job.request.is_dynamic())
      caches_[static_cast<std::size_t>(job.receiver)].insert(
          job.request.url_id, at);
  }

  void publish(RunResult& result) const override {
    for (const CgiCache& cache : caches_) {
      result.cache_hits += cache.hits();
      result.cache_lookups += cache.lookups();
    }
    if (result.cache_lookups > 0)
      result.cache_hit_ratio = static_cast<double>(result.cache_hits) /
                               static_cast<double>(result.cache_lookups);
  }

 private:
  ClusterRun& run_;
  std::vector<CgiCache> caches_;
};

}  // namespace

std::unique_ptr<Layer> make_cache_layer(ClusterRun& run) {
  return std::make_unique<CacheLayer>(run);
}

}  // namespace wsched::core
