// dashboard_explore: analysts exploring one published week. Closed-loop
// session threads each run a seeded script of QueryMix requests (hovers
// Zipf-like over every offer, filtered selects, MDX pivots and roll-ups) and
// pan/zoom frames over the generation's LOD pyramid on their own tile strip.
// The distinct requests outnumber the result cache, so the hit ratio stays
// partial. Nothing is ingested: sim and util stay idle.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "harness.h"
#include "render/raster_canvas.h"
#include "render/tile.h"
#include "serve/engine.h"
#include "util/strings.h"
#include "viz/lod_view.h"

namespace flexbench {

namespace {

constexpr int kProsumers = 2000;
constexpr int kMaxSessions = 4;
/// A set-up takes about 0.2 s, so several are cheap and steady its median.
constexpr int kSetups = 9;
/// A session is closed and reopened after this many requests.
constexpr int kRequestsPerSession = 40;
/// Viewport: 64 buckets of 8 px, i.e. four 16-bucket tiles, over a strip
/// whose tile budget (32) is below the ~80 tiles of levels 0-3, so panning
/// and zooming both reuse and evict tiles.
constexpr int kViewBuckets = 64;
constexpr int kMaxLevel = 3;

render::TileConfig StripConfig() {
  render::TileConfig config;
  config.buckets_per_tile = 16;
  config.px_per_bucket = 8;
  config.height_px = 96;
  config.max_tiles = 32;
  return config;
}

/// Per-thread state and measurements of one closed-loop session script.
struct SessionThread {
  serve::ServeSession session;
  std::unique_ptr<render::TiledStrip> strip;
  std::unique_ptr<viz::LodStripPainter> painter;
  serve::SnapshotRef pin;
  Samples queries;
  Samples frames;
  std::map<serve::RequestKind, Samples> by_kind;
  std::vector<std::pair<int, int64_t>> visited_tiles;
  /// Completed requests per one-second window of the timed phase.
  std::vector<int64_t> per_window;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// The session script, until `deadline`: each request is drawn uniformly
/// from the QueryMix cycle's 7 queries plus one pan/zoom frame, so queries
/// keep the 4:1:1:1 hover/select/pivot/roll-up mix and every eighth request
/// is a frame. One frame per cycle of the query mix is an assumption with no
/// traffic data behind it; the details line reports the share of request
/// time each kind takes.
void RunScript(serve::ServeEngine& engine, SessionThread& me, const QueryMix& mix,
               uint64_t seed, int64_t thread_id, Clock::time_point start,
               Clock::time_point deadline, Tracer& tracer) {
  Rng rng(seed);
  const render::TileConfig config = StripConfig();
  render::RasterCanvas canvas(kViewBuckets * config.px_per_bucket, config.height_px);
  const dw::LodPyramid& lod = me.pin->lod;
  const int max_level = std::min(kMaxLevel, lod.num_levels() - 1);
  int level = max_level;
  int64_t begin = 0;
  int64_t served = 0;
  auto completed = [&me, start] {
    const size_t window = static_cast<size_t>(SecondsSince(start));
    if (me.per_window.size() <= window) me.per_window.resize(window + 1, 0);
    ++me.per_window[window];
  };
  for (int64_t n = 0; Clock::now() < deadline; ++n) {
    const int64_t request_id = (thread_id << 40) | n;
    if (served == kRequestsPerSession) {
      served = 0;
      me.session.Close();
      Result<serve::ServeSession> reopened = [&] {
        Span span(tracer, "serve.open_session", request_id);
        return engine.OpenSession();
      }();
      ++me.attempted;
      if (!reopened.ok()) {
        ++me.failed;
        continue;
      }
      me.session = *std::move(reopened);
    }
    ++served;
    const int slot = static_cast<int>(rng.UniformInt(0, QueryMix::kCycle));
    if (slot < QueryMix::kCycle) {
      const serve::ServeRequest request = mix.Make(slot, rng);
      const Clock::time_point query_start = Clock::now();
      Result<std::string> answer = [&] {
        Span span(tracer, QueryKindName(request.kind), request_id);
        return me.session.Query(request);
      }();
      const double seconds = SecondsSince(query_start);
      ++me.attempted;
      if (!answer.ok()) {
        ++me.failed;
        continue;
      }
      me.queries.Add(seconds);
      me.by_kind[request.kind].Add(seconds);
      completed();
      continue;
    }

    // Pan by half a tile, or zoom one level keeping the viewport's centre.
    const double move = rng.NextDouble();
    if (move < 0.15 && level > 0) {
      --level;
      begin = begin * 2 + kViewBuckets / 2;
    } else if (move < 0.30 && level < max_level) {
      ++level;
      begin = (begin - kViewBuckets / 2) / 2;
    } else {
      begin += move < 0.65 ? config.buckets_per_tile / 2 : -config.buckets_per_tile / 2;
    }
    const int64_t level_buckets = static_cast<int64_t>(lod.level(level).buckets.size());
    begin = std::clamp<int64_t>(begin, 0, std::max<int64_t>(0, level_buckets - kViewBuckets));
    const Clock::time_point frame_start = Clock::now();
    {
      Span span(tracer, "render.compose", request_id);
      me.strip->Compose(canvas, 0, 0, level, begin, begin + kViewBuckets);
    }
    {
      Span span(tracer, "render.fill_pending", request_id);
      me.strip->FillPending(2);
    }
    me.frames.Add(SecondsSince(frame_start));
    ++me.attempted;
    completed();
    me.visited_tiles.emplace_back(level, begin / config.buckets_per_tile);
  }
}

struct SetupOutcome {
  std::unique_ptr<serve::ServeEngine> engine;
  std::shared_ptr<const dw::Database> db;
  std::vector<std::unique_ptr<SessionThread>> threads;
  double seconds = 0.0;
};

/// Loads the week into a warehouse, publishes it as the first generation,
/// and opens the sessions.
SetupOutcome Setup(const Week& week, int sessions, Tracer& tracer, RunResult& result) {
  SetupOutcome out;
  const Clock::time_point start = Clock::now();
  Status built;
  {
    Span span(tracer, "dw.load");
    built = BuildWarehouse(week, week.workload.offers, &out.db);
  }
  result.Attempted();
  if (!built.ok()) {
    std::fprintf(stderr, "warehouse build: %s\n", built.ToString().c_str());
    result.Failed();
    return out;
  }
  out.engine = std::make_unique<serve::ServeEngine>(serve::ServeEngine::Options{});
  {
    Span span(tracer, "serve.publish");
    out.engine->Publish(out.db);
  }
  for (int t = 0; t < sessions; ++t) {
    auto thread = std::make_unique<SessionThread>();
    Result<serve::ServeSession> session = [&] {
      Span span(tracer, "serve.open_session");
      return out.engine->OpenSession();
    }();
    result.Attempted();
    if (!session.ok()) {
      result.Failed();
      continue;
    }
    thread->session = *std::move(session);
    out.threads.push_back(std::move(thread));
  }
  out.seconds = SecondsSince(start);
  return out;
}

/// What one timed phase measured.
struct Phase {
  double wall_s = 0.0;
  int64_t requests = 0;
  /// Median over the phase's whole one-second windows of the requests
  /// completed in each, so a burst of noise in a few windows is ignored.
  double requests_per_s = 0.0;
  Samples queries;
  Samples frames;
  std::map<serve::RequestKind, Samples> by_kind;
  serve::CacheStats cache;
};

Phase RunPhase(SetupOutcome& setup, const QueryMix& mix, uint64_t seed, double seconds,
               Tracer& tracer, RunResult& result) {
  Phase phase;
  const serve::CacheStats before = setup.engine->stats().cache;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < setup.threads.size(); ++t) {
    workers.emplace_back([&, t] {
      RunScript(*setup.engine, *setup.threads[t], mix, seed * 7919 + t,
                static_cast<int64_t>(t), start, deadline, tracer);
    });
  }
  for (std::thread& worker : workers) worker.join();
  phase.wall_s = SecondsSince(start);
  for (const auto& thread : setup.threads) {
    phase.queries.Append(thread->queries);
    phase.frames.Append(thread->frames);
    for (const auto& [kind, samples] : thread->by_kind) phase.by_kind[kind].Append(samples);
    result.Attempted(thread->attempted);
    result.Failed(thread->failed);
  }
  phase.requests = static_cast<int64_t>(phase.queries.size() + phase.frames.size());
  std::vector<double> windows(static_cast<size_t>(std::max(1.0, std::floor(seconds))), 0.0);
  for (const auto& thread : setup.threads) {
    for (size_t w = 0; w < windows.size() && w < thread->per_window.size(); ++w) {
      windows[w] += static_cast<double>(thread->per_window[w]);
    }
  }
  phase.requests_per_s = seconds >= 1.0 ? Median(windows)
                                        : static_cast<double>(phase.requests) / phase.wall_s;
  const serve::CacheStats after = setup.engine->stats().cache;
  phase.cache.hits = after.hits - before.hits;
  phase.cache.misses = after.misses - before.misses;
  phase.cache.evictions = after.evictions - before.evictions;
  return phase;
}

/// Starts each session thread's strip on the published generation's LOD
/// pyramid, with fresh measurement buffers.
void PrepareThreads(SetupOutcome& setup, Tracer& tracer) {
  for (auto& thread : setup.threads) {
    thread->pin = setup.engine->registry().PinCurrent();
    {
      Span span(tracer, "viz.lod_painter");
      thread->painter = std::make_unique<viz::LodStripPainter>(
          &thread->pin->lod, viz::LodStripPainter::Kind::kDensity);
    }
    thread->strip = std::make_unique<render::TiledStrip>(StripConfig());
    thread->strip->SetGeneration(thread->painter.get(), thread->pin.generation());
    thread->queries = Samples();
    thread->frames = Samples();
    thread->by_kind.clear();
    thread->visited_tiles.clear();
    thread->per_window.clear();
    thread->attempted = thread->failed = 0;
  }
}

/// Output checks: sampled cached answers byte-equal a fresh engine's
/// recomputation, and sampled composed tiles byte-equal RenderTile.
void CheckOutputs(SetupOutcome& setup, const QueryMix& mix, uint64_t seed, RunResult& result) {
  serve::ServeEngine fresh(serve::ServeEngine::Options{});
  fresh.Publish(setup.db);
  Result<serve::ServeSession> live = setup.engine->OpenSession();
  Result<serve::ServeSession> cold = fresh.OpenSession();
  result.Check(live.ok() && cold.ok(), "check sessions open");
  if (live.ok() && cold.ok()) {
    const int64_t hits_before = setup.engine->stats().cache.hits;
    Rng rng(seed);
    int mismatches = 0;
    for (int i = 0; i < 200; ++i) {
      const serve::ServeRequest request =
          mix.Make(static_cast<int>(rng.UniformInt(0, QueryMix::kCycle - 1)), rng);
      Result<std::string> cached = live->Query(request);
      Result<std::string> recomputed = cold->Query(request);
      if (!cached.ok() || !recomputed.ok() || *cached != *recomputed) ++mismatches;
    }
    result.Check(mismatches == 0,
                 StrFormat("%d of 200 cached answers differ from a fresh engine", mismatches));
    result.Check(setup.engine->stats().cache.hits > hits_before,
                 "the coherence sample includes cached answers");
  }
  int compared = 0;
  int mismatches = 0;
  for (const auto& thread : setup.threads) {
    std::sort(thread->visited_tiles.begin(), thread->visited_tiles.end());
    thread->visited_tiles.erase(
        std::unique(thread->visited_tiles.begin(), thread->visited_tiles.end()),
        thread->visited_tiles.end());
    for (const auto& [level, first] : thread->visited_tiles) {
      for (int64_t index = first; index <= first + kViewBuckets / StripConfig().buckets_per_tile;
           ++index) {
        const render::TileRaster* tile = thread->strip->Peek(level, index);
        if (tile == nullptr || tile->placeholder) continue;
        ++compared;
        if (tile->rgb != thread->strip->RenderTile(level, index).rgb) ++mismatches;
      }
    }
  }
  result.Check(compared > 0, "some composed tiles were sampled");
  result.Check(mismatches == 0,
               StrFormat("%d of %d composed tiles differ from RenderTile", mismatches, compared));
  result.Detail("tiles_compared", compared);
}

void ReportStrips(const SetupOutcome& setup, RunResult& result) {
  render::TileStats sum;
  for (const auto& thread : setup.threads) {
    const render::TileStats s = thread->strip->stats();
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
    sum.placeholder_serves += s.placeholder_serves;
    sum.synchronous_fills += s.synchronous_fills;
    sum.background_fills += s.background_fills;
  }
  result.Layer("render.tile_hit_ratio",
               sum.hits + sum.misses > 0
                   ? static_cast<double>(sum.hits) / static_cast<double>(sum.hits + sum.misses)
                   : 0.0,
               "ratio");
  result.Layer("render.placeholder_serves", static_cast<double>(sum.placeholder_serves), "count");
  result.Layer("render.synchronous_fills", static_cast<double>(sum.synchronous_fills), "count");
  result.Layer("render.background_fills", static_cast<double>(sum.background_fills), "count");
  result.Layer("render.tile_evictions", static_cast<double>(sum.evictions), "count");
}

}  // namespace

void RunDashboardExplore(const Options& options, Tracer& tracer, RunResult& result) {
  std::unique_ptr<Week> week = MakeWeek(options.seed, kProsumers);
  const QueryMix mix(*week, options.seed ^ 0x5e1ec7);
  const int sessions =
      std::max(1, std::min<int>(kMaxSessions, static_cast<int>(std::thread::hardware_concurrency())));

  std::vector<double> setup_s;
  SetupOutcome setup;
  for (int i = 0; i < kSetups; ++i) {
    // Tear the previous set-up down first, sessions before their engine.
    setup.threads.clear();
    setup.engine.reset();
    setup.db.reset();
    setup = Setup(*week, sessions, tracer, result);
    setup_s.push_back(setup.seconds);
  }
  if (setup.engine == nullptr || setup.threads.empty()) {
    result.Check(false, "dashboard set-up completed");
    return;
  }

  const bool traced = tracer.enabled();
  Phase reference;
  if (traced) {
    // Untraced reference phase for the overhead figure.
    tracer.set_enabled(false);
    PrepareThreads(setup, tracer);
    reference = RunPhase(setup, mix, options.seed + 1, options.seconds, tracer, result);
    tracer.set_enabled(true);
  }
  PrepareThreads(setup, tracer);
  const Phase phase = RunPhase(setup, mix, options.seed, options.seconds, tracer, result);
  result.EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  CheckOutputs(setup, mix, options.seed ^ 0xc0ffee, result);

  for (auto& thread : setup.threads) {
    thread->session.Close();
    thread->pin.Release();
  }
  result.Check(setup.engine->stats().active_pins == 0, "no generation pins left after the phase");

  const double throughput = phase.requests_per_s;
  result.EndToEnd("setup_s", Median(setup_s), "s");
  result.EndToEnd("throughput_per_s", throughput, "1/s");
  result.EndToEnd("latency_p50_ms", phase.queries.Median() * 1e3, "ms");
  result.Detail("offers", static_cast<double>(week->workload.offers.size()));
  for (size_t i = 0; i < setup_s.size(); ++i) {
    result.Detail(StrFormat("setup%zu_s", i + 1), setup_s[i]);
  }
  result.Detail("sessions", sessions);
  result.Detail("queries_per_s", static_cast<double>(phase.queries.size()) / phase.wall_s);
  result.Detail("frames_per_s", static_cast<double>(phase.frames.size()) / phase.wall_s);
  result.Detail("query_p50_us", phase.queries.Median() * 1e6);
  result.Detail("query_p99_us", phase.queries.Quantile(0.99) * 1e6);
  result.Detail("queries", static_cast<double>(phase.queries.size()));
  result.Detail("frame_p50_us", phase.frames.Median() * 1e6);
  result.Detail("frame_p99_us", phase.frames.Quantile(0.99) * 1e6);
  result.Detail("frames", static_cast<double>(phase.frames.size()));
  const double lookups = static_cast<double>(phase.cache.hits + phase.cache.misses);
  result.Detail("cache_hit_ratio",
                lookups > 0 ? static_cast<double>(phase.cache.hits) / lookups : 0.0);
  const double busy_s = phase.queries.Sum() + phase.frames.Sum();
  for (const auto& [kind, samples] : phase.by_kind) {
    result.Detail(StrFormat("time_share.%s", QueryKindName(kind)), samples.Sum() / busy_s);
  }
  result.Detail("time_share.render.frame", phase.frames.Sum() / busy_s);
  result.Check(phase.cache.hits > 0 && phase.cache.misses > 0,
               "the result cache both hits and misses");

  if (traced) {
    const SpanSummary spans = SummarizeSpans(tracer);
    const serve::ServeStats stats = setup.engine->stats();
    result.Layer("dw.load_s", MeanSelf(spans, "dw.load"), "s");
    result.Layer("serve.publish_s", MeanSelf(spans, "serve.publish"), "s");
    result.Layer("serve.live_generations_max", static_cast<double>(stats.live_generations),
                 "count");
    result.Layer("serve.open_session_s", MeanSelf(spans, "serve.open_session"), "s");
    result.Layer("serve.sessions_shed", static_cast<double>(stats.admission.shed), "count");
    ReportQueryKinds(phase.by_kind, result);
    ReportCache(phase.cache, result);
    result.Layer("render.compose_s", MeanSelf(spans, "render.compose"), "s");
    result.Layer("render.fill_pending_s", MeanSelf(spans, "render.fill_pending"), "s");
    ReportStrips(setup, result);
    ReportOverhead(reference.requests_per_s, throughput,
                   reference.queries.Median(), phase.queries.Median(), result);
  }
}

}  // namespace flexbench
