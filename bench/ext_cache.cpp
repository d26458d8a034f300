// Extension bench: Swala-style CGI result caching (§6 of the paper points
// to this as a straightforward extension of the scheme).
//
// Dynamic-request popularity is Zipf over distinct content items, so a
// modest per-master LRU absorbs a large share of CGI executions. The sweep
// varies cache capacity and TTL on a CGI-heavy workload and reports the
// hit ratio and the resulting stretch next to the uncached M/S run. The
// cache axis is a comparison axis (reseed=false): every configuration
// replays the identical trace.
//
// Shared harness CLI: --jobs/--filter/--out/--list (see harness/bench_cli).
#include <cstdio>
#include <optional>

#include "harness/bench_cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wsched;
  harness::SweepSpec sweep;
  sweep.base.lambda = 800;
  sweep.base.cgi_distinct_urls = 2000;
  sweep.base.cgi_zipf_s = 0.9;
  std::optional<double> duration;
  const harness::BenchCli cli(
      argc, argv,
      {flag("lambda", sweep.base.lambda, "arrival rate (req/s)"),
       flag("duration", duration, "simulated seconds (default 12, quick 6)"),
       flag("urls", sweep.base.cgi_distinct_urls, "distinct CGI content items"),
       flag("zipf", sweep.base.cgi_zipf_s, "Zipf exponent of CGI popularity")});

  sweep.base.profile = trace::ksu_profile();
  sweep.base.p = 16;
  sweep.base.r = 1.0 / 40.0;
  sweep.base.duration_s = duration.value_or(cli.quick ? 6.0 : 12.0);
  sweep.base.warmup_s = sweep.base.duration_s * 0.2;
  sweep.base.seed = 1999;
  sweep.base.kind = core::SchedulerKind::kMs;

  // One combined (entries, TTL) axis rather than a cross product: the
  // uncached baseline needs no TTL variants.
  harness::Axis cache{"cache", {}, false};
  for (const std::size_t entries : {std::size_t{0}, std::size_t{64},
                                    std::size_t{256}, std::size_t{1024}}) {
    for (const double ttl_s : {5.0, 30.0}) {
      if (entries == 0 && ttl_s != 5.0) continue;  // one uncached value
      harness::AxisValue value;
      value.label = entries == 0 ? "off"
                                 : std::to_string(entries) + "x" +
                                       fixed(ttl_s, 0) + "s";
      value.coords = {
          {"entries", std::to_string(entries)},
          {"ttl_s", entries == 0 ? "-" : fixed(ttl_s, 0)},
      };
      value.apply = [entries, ttl_s](core::ExperimentSpec& s) {
        s.cgi_cache_entries = entries;
        s.cgi_cache_ttl_s = ttl_s;
      };
      cache.values.push_back(std::move(value));
    }
  }
  sweep.axes = {cache};

  const auto run = harness::run_bench(sweep, cli, harness::experiment_row);
  if (!run) return 0;

  std::printf("CGI caching extension: KSU profile, lambda=%.0f, 16 nodes "
              "(m=%s), %llu distinct CGI urls, Zipf s=%.2f\n\n",
              sweep.base.lambda,
              run->rows.empty() ? "?" : run->rows.front().text("m").c_str(),
              static_cast<unsigned long long>(sweep.base.cgi_distinct_urls),
              sweep.base.cgi_zipf_s);

  Table table({"cache entries/master", "TTL (s)", "hit ratio", "stretch",
               "stretch static", "stretch dynamic"});
  for (const harness::ResultRow& row : run->rows) {
    table.row()
        .cell(row.text("entries"))
        .cell(row.text("ttl_s"))
        .cell_percent(row.number("cache_hit_ratio"))
        .cell(row.number("stretch"), 3)
        .cell(row.number("stretch_static"), 3)
        .cell(row.number("stretch_dynamic"), 3);
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nCache hits are served at the receiving master as file fetches of\n"
      "the stored response; misses execute CGI normally and populate the\n"
      "master's LRU. Stretch should fall monotonically with capacity.\n");
  return 0;
}
