// ingest_week: the live pipeline. A week of flex-offers arrives as wire
// messages, is decoded, and runs through a checkpointed 4-shard coordinator
// one hourly tick at a time; every few ticks the post-tick offers become a
// new warehouse generation that is published to the serving tier and read
// once by a closed-loop dashboard reader. Every read cycle follows a
// publish, so the result cache starts cold; only a repeat within the cycle
// hits.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "core/messages.h"
#include "harness.h"
#include "serve/engine.h"
#include "sim/coordinator.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace flexbench {

namespace {

constexpr int kProsumers = 2000;
constexpr int kShards = 4;
/// A publish every 8 ticks gives 21 generations over the week's 168 ticks.
/// The cadence is an assumption, not taken from traffic data; the details
/// line reports the share of pass time ticks, publishes and reads take.
constexpr int kPublishEveryTicks = 8;
constexpr int kSetups = 3;

/// Receives the shards' post-tick loop states from OnlineParams::
/// publish_hook, which runs once per shard, in parallel, inside Tick. Only
/// the state's address is taken there; the offers are read after Tick has
/// returned, when no shard runs, so the copy is not charged to the tick.
struct HookSink {
  std::mutex mutex;
  std::vector<const sim::OnlineLoopState*> states;
};

struct SetupOutcome {
  std::unique_ptr<sim::Coordinator> coordinator;
  double seconds = 0.0;
  int64_t decode_failures = 0;
};

/// Decodes every wire message and begins a checkpointed coordinator over the
/// decoded offers: the set-up the timed pass starts from.
SetupOutcome Setup(const std::vector<std::string>& wire, const Week& week,
                   const std::string& dir, HookSink* sink, Tracer& tracer, RunResult& result) {
  SetupOutcome out;
  const Clock::time_point start = Clock::now();
  std::vector<core::FlexOffer> offers(wire.size());
  std::vector<char> decoded(wire.size(), 0);
  ParallelFor(0, wire.size(), 256, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Span span(tracer, "core.decode", static_cast<int64_t>(i));
      Result<core::Message> message = core::DecodeMessage(wire[i]);
      if (!message.ok() || !std::holds_alternative<core::FlexOffer>(*message)) continue;
      offers[i] = std::get<core::FlexOffer>(*std::move(message));
      decoded[i] = 1;
    }
  });
  result.Attempted(static_cast<int64_t>(wire.size()));
  for (char ok : decoded) out.decode_failures += ok ? 0 : 1;
  offers.erase(std::remove_if(offers.begin(), offers.end(),
                              [](const core::FlexOffer& o) {
                                return o.id == core::kInvalidFlexOfferId;
                              }),
               offers.end());

  sim::CoordinatorParams params;
  params.num_shards = kShards;
  params.policy = sim::ShardPolicy::kHash;
  params.online.tick_minutes = 60;
  params.online.publish_hook = [sink](const sim::OnlineLoopState& state) {
    std::lock_guard<std::mutex> lock(sink->mutex);
    sink->states.push_back(&state);
  };
  out.coordinator = std::make_unique<sim::Coordinator>(params);
  Status begun;
  {
    Span span(tracer, "sim.begin");
    begun = out.coordinator->BeginCheckpointed(offers, week.window, dir);
  }
  result.Attempted();
  if (!begun.ok()) {
    std::fprintf(stderr, "BeginCheckpointed: %s\n", begun.ToString().c_str());
    result.Failed();
    out.coordinator.reset();
  }
  out.seconds = SecondsSince(start);
  result.Failed(out.decode_failures);
  return out;
}

/// What one timed pass over the week measured.
struct Pass {
  double wall_s = 0.0;
  Samples ticks;
  Samples publishes;
  Samples fresh_queries;
  std::map<serve::RequestKind, Samples> by_kind;
  int64_t live_generations_max = 0;
  serve::ServeStats serve_stats;
  sim::OnlineReport report;
  int64_t journal_bytes = 0;
};

/// Ticks the coordinator through the week, publishing and reading every
/// kPublishEveryTicks ticks.
Pass RunPass(sim::Coordinator& coordinator, HookSink& sink, const Week& week,
             const QueryMix& mix, uint64_t seed, const std::string& dir, Tracer& tracer,
             RunResult& result) {
  Pass pass;
  const size_t total_offers = week.workload.offers.size();
  Rng rng(seed);
  serve::ServeEngine engine(serve::ServeEngine::Options{});
  const Clock::time_point start = Clock::now();
  for (int64_t tick = 0; !coordinator.Done(); ++tick) {
    {
      std::lock_guard<std::mutex> lock(sink.mutex);
      sink.states.clear();
    }
    Status ticked;
    const Clock::time_point tick_start = Clock::now();
    {
      Span span(tracer, "sim.tick", tick);
      ticked = coordinator.Tick();
    }
    pass.ticks.Add(SecondsSince(tick_start));
    result.Attempted();
    if (!ticked.ok()) {
      std::fprintf(stderr, "Tick %lld: %s\n", static_cast<long long>(tick),
                   ticked.ToString().c_str());
      result.Failed();
      break;
    }
    if ((tick + 1) % kPublishEveryTicks != 0 && !coordinator.Done()) continue;

    // Publish the post-tick offers as the next warehouse generation.
    const Clock::time_point publish_start = Clock::now();
    std::shared_ptr<const dw::Database> db;
    Status built;
    {
      Span span(tracer, "bench.collect", tick);
      std::vector<const sim::OnlineLoopState*> states;
      {
        std::lock_guard<std::mutex> lock(sink.mutex);
        states = sink.states;
      }
      std::sort(states.begin(), states.end(), [](const auto* a, const auto* b) {
        return a->report.offers.front().id < b->report.offers.front().id;
      });
      std::vector<core::FlexOffer> offers;
      offers.reserve(total_offers);
      for (const sim::OnlineLoopState* state : states) {
        offers.insert(offers.end(), state->report.offers.begin(), state->report.offers.end());
      }
      Span load(tracer, "dw.load", tick);
      built = BuildWarehouse(week, offers, &db);
    }
    result.Attempted();
    if (!built.ok()) {
      std::fprintf(stderr, "warehouse build: %s\n", built.ToString().c_str());
      result.Failed();
      continue;
    }
    result.Check(db->NumFlexOffers() == total_offers,
                 StrFormat("generation after tick %lld holds every offer",
                           static_cast<long long>(tick)));
    {
      Span span(tracer, "serve.publish", tick);
      engine.Publish(db);
    }
    db.reset();
    pass.publishes.Add(SecondsSince(publish_start));
    pass.live_generations_max = std::max<int64_t>(
        pass.live_generations_max, static_cast<int64_t>(engine.stats().live_generations));

    // One closed-loop reader on the fresh generation runs one cycle of the
    // query mix on a cold cache.
    Result<serve::ServeSession> session = [&] {
      Span span(tracer, "serve.open_session", tick);
      return engine.OpenSession();
    }();
    result.Attempted();
    if (!session.ok()) {
      result.Failed();
      continue;
    }
    std::vector<serve::ServeRequest> reads;
    for (int slot = 0; slot < QueryMix::kCycle; ++slot) reads.push_back(mix.Make(slot, rng));
    for (const serve::ServeRequest& request : reads) {
      const Clock::time_point query_start = Clock::now();
      Result<std::string> answer = [&] {
        Span span(tracer, QueryKindName(request.kind), tick);
        return session->Query(request);
      }();
      const double seconds = SecondsSince(query_start);
      result.Attempted();
      if (!answer.ok()) {
        std::fprintf(stderr, "fresh query: %s\n", answer.status().ToString().c_str());
        result.Failed();
        continue;
      }
      pass.fresh_queries.Add(seconds);
      pass.by_kind[request.kind].Add(seconds);
    }
  }
  pass.wall_s = SecondsSince(start);
  pass.serve_stats = engine.stats();
  result.Check(pass.serve_stats.active_pins == 0, "no generation pins left after the pass");

  Result<sim::MergedOnlineReport> merged = [&] {
    Span span(tracer, "sim.finish");
    return coordinator.Finish();
  }();
  result.Attempted();
  if (!merged.ok()) {
    std::fprintf(stderr, "Finish: %s\n", merged.status().ToString().c_str());
    result.Failed();
    result.Check(false, "coordinator finishes the week");
    return pass;
  }
  pass.report = merged->global;
  pass.journal_bytes = DirectoryBytes(dir, ".wal");
  const sim::OnlineReport& r = pass.report;
  result.Check(r.offers_received + r.dropped_ingest == static_cast<int>(total_offers),
               "every offer arrives: offers_received + dropped_ingest == offers");
  result.Check(r.accepted + r.rejected == r.offers_received,
               "every received offer is answered: accepted + rejected == offers_received");
  result.Check(r.assigned <= r.accepted, "only accepted offers are assigned");
  return pass;
}

}  // namespace

void RunIngestWeek(const Options& options, Tracer& tracer, RunResult& result) {
  // Inputs, generated before anything is timed.
  std::unique_ptr<Week> week = MakeWeek(options.seed, kProsumers);
  std::vector<std::string> wire;
  wire.reserve(week->workload.offers.size());
  int64_t wire_bytes = 0;
  for (const core::FlexOffer& offer : week->workload.offers) {
    wire.push_back(core::EncodeMessage(core::Message(offer)));
    wire_bytes += static_cast<int64_t>(wire.back().size());
  }
  const QueryMix mix(*week, options.seed ^ 0x5e1ec7);
  const std::string dir =
      StrFormat("%s/ingest_week-%d", options.work_dir.c_str(), static_cast<int>(getpid()));
  HookSink sink;

  // Set-ups alternate with timed passes: a pass consumes its coordinator, so
  // each pass starts from a fresh set-up. Passes run until the run's
  // seconds are spent, and set-ups until there are kSetups samples. In
  // traced mode one extra, untraced pass runs first as the reference for
  // the tracing overhead.
  const bool traced = tracer.enabled();
  std::vector<double> setup_s;
  std::vector<Pass> passes;
  std::vector<double> rates;
  Pass reference;
  bool have_reference = !traced;
  int64_t snapshot_bytes = 0;
  double spent = 0.0;
  for (;;) {
    const bool want_pass = !have_reference || spent < options.seconds;
    if (!want_pass && setup_s.size() >= static_cast<size_t>(kSetups)) break;
    SetupOutcome setup = Setup(wire, *week, dir, &sink, tracer, result);
    setup_s.push_back(setup.seconds);
    snapshot_bytes = DirectoryBytes(dir);
    if (setup.coordinator == nullptr) break;
    if (!want_pass) continue;
    tracer.set_enabled(traced && have_reference);
    Pass pass = RunPass(*setup.coordinator, sink, *week, mix, options.seed + setup_s.size(), dir,
                        tracer, result);
    tracer.set_enabled(traced);
    if (!have_reference) {
      reference = std::move(pass);
      have_reference = true;
      continue;
    }
    spent += pass.wall_s;
    // Memory of set-up plus one pass; later passes only add allocator
    // retention from the repetition.
    if (passes.empty()) result.EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
    rates.push_back(static_cast<double>(week->workload.offers.size()) / pass.wall_s);
    passes.push_back(std::move(pass));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (passes.empty()) {
    result.Check(false, "at least one pass over the week completed");
    return;
  }

  Samples ticks, publishes, fresh;
  for (const Pass& pass : passes) {
    ticks.Append(pass.ticks);
    publishes.Append(pass.publishes);
    fresh.Append(pass.fresh_queries);
  }
  const Pass& last = passes.back();
  result.EndToEnd("setup_s", Median(setup_s), "s");
  result.EndToEnd("throughput_per_s", Median(rates), "1/s");
  result.EndToEnd("latency_p50_ms", ticks.Median() * 1e3, "ms");
  result.Detail("offers", static_cast<double>(week->workload.offers.size()));
  result.Detail("passes", static_cast<double>(passes.size()));
  result.Detail("setups", static_cast<double>(setup_s.size()));
  result.Detail("ingest_offers_per_s", Median(rates));
  for (size_t i = 0; i < rates.size(); ++i) {
    result.Detail(StrFormat("pass%zu_offers_per_s", i + 1), rates[i]);
  }
  result.Detail("tick_p50_ms", ticks.Median() * 1e3);
  result.Detail("tick_p90_ms", ticks.Quantile(0.9) * 1e3);
  result.Detail("ticks", static_cast<double>(ticks.size()));
  result.Detail("publish_p50_ms", publishes.Median() * 1e3);
  result.Detail("publishes", static_cast<double>(publishes.size()));
  result.Detail("fresh_query_p50_ms", fresh.Median() * 1e3);
  result.Detail("fresh_queries", static_cast<double>(fresh.size()));
  const double busy_s = ticks.Sum() + publishes.Sum() + fresh.Sum();
  result.Detail("time_share.sim.tick", ticks.Sum() / busy_s);
  result.Detail("time_share.serve.publish", publishes.Sum() / busy_s);
  result.Detail("time_share.serve.read", fresh.Sum() / busy_s);

  if (traced) {
    const SpanSummary spans = SummarizeSpans(tracer);
    const auto decode = spans.find("core.decode");
    result.Layer("core.decode_s",
                 decode == spans.end() ? 0.0
                                       : decode->second.self_s / static_cast<double>(setup_s.size()),
                 "s");
    result.Layer("core.decode_bytes", static_cast<double>(wire_bytes), "bytes");
    result.Layer("sim.begin_s", MeanSelf(spans, "sim.begin"), "s");
    result.Layer("util.snapshot_bytes", static_cast<double>(snapshot_bytes), "bytes");
    result.Layer("sim.tick_s", MeanSelf(spans, "sim.tick"), "s");
    result.Layer("util.journal_bytes", static_cast<double>(last.journal_bytes), "bytes");
    result.Layer("sim.offers_assigned", last.report.assigned, "count");
    result.Layer("sim.missed_deadlines",
                 last.report.missed_acceptance + last.report.missed_assignment, "count");
    result.Layer("sim.shed_offers", last.report.shed_offers, "count");
    result.Layer("dw.load_s", MeanSelf(spans, "dw.load"), "s");
    result.Layer("serve.publish_s", MeanSelf(spans, "serve.publish"), "s");
    result.Layer("serve.live_generations_max", static_cast<double>(last.live_generations_max),
                 "count");
    result.Layer("serve.open_session_s", MeanSelf(spans, "serve.open_session"), "s");
    result.Layer("serve.sessions_shed", static_cast<double>(last.serve_stats.admission.shed),
                 "count");
    ReportQueryKinds(last.by_kind, result);
    ReportCache(last.serve_stats.cache, result);
    ReportOverhead(reference.wall_s > 0 ? week->workload.offers.size() / reference.wall_s : 0.0,
                   Median(rates), reference.ticks.Median(), ticks.Median(), result);
  }
}

}  // namespace flexbench
