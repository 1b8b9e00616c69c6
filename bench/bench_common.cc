#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "render/svg_canvas.h"
#include "sim/coordinator.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flexvis::bench {

timeutil::TimePoint BenchDay() {
  return timeutil::TimePoint::FromCalendarOrDie(2013, 2, 1, 0, 0);
}

std::unique_ptr<World> BuildWorld(const WorldOptions& options) {
  // Honor FLEXVIS_FAULTS so every bench can report behavior under fault
  // load; a malformed spec is a hard error (silently ignoring it would
  // produce clean-run numbers labeled as fault-run numbers).
  if (Status faults = sim::InstallFaultsFromEnv(options.seed); !faults.ok()) {
    std::fprintf(stderr, "bench world: %s\n", faults.ToString().c_str());
    std::abort();
  }
  auto world = std::make_unique<World>();
  world->atlas = geo::Atlas::MakeDenmark();
  world->topology = grid::GridTopology::MakeRadial(options.transmission, options.plants,
                                                   options.distribution_per_transmission,
                                                   options.feeders_per_distribution);
  if (!world->atlas.RegisterWithDatabase(world->db).ok() ||
      !world->topology.RegisterWithDatabase(world->db).ok()) {
    std::fprintf(stderr, "bench world: dimension registration failed\n");
    std::abort();
  }
  world->horizon = options.horizon;
  if (world->horizon.empty()) {
    world->horizon =
        timeutil::TimeInterval(BenchDay(), BenchDay() + timeutil::kMinutesPerDay);
  }
  sim::WorkloadGenerator generator(&world->atlas, &world->topology);
  sim::WorkloadParams params;
  params.seed = options.seed;
  params.num_prosumers = options.num_prosumers;
  params.offers_per_prosumer = options.offers_per_prosumer;
  params.horizon = world->horizon;
  world->workload = *generator.Generate(params);
  if (!sim::WorkloadGenerator::LoadIntoDatabase(world->workload, world->db).ok()) {
    std::fprintf(stderr, "bench world: workload load failed\n");
    std::abort();
  }
  world->cube = std::make_unique<olap::Cube>(&world->db);
  if (!world->cube->AddStandardDimensions().ok()) {
    std::fprintf(stderr, "bench world: cube construction failed\n");
    std::abort();
  }
  return world;
}

namespace {

Status EnsureBenchOutDir() {
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  if (ec) {
    return InternalError(StrFormat("cannot create bench_out: %s", ec.message().c_str()));
  }
  return OkStatus();
}

/// Commit every report is stamped with, so a BENCH_*.json artifact is
/// traceable to the exact tree it measured: GITHUB_SHA when CI exports it,
/// otherwise `git rev-parse`, otherwise "unknown" (outside a work tree).
std::string GitSha() {
  if (const char* env = std::getenv("GITHUB_SHA"); env != nullptr && *env != '\0') {
    std::string sha(env);
    if (sha.size() > 12) sha.resize(12);
    return sha;
  }
  std::string sha;
  if (std::FILE* pipe = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    char buffer[64];
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) sha = buffer;
    ::pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

}  // namespace

Status ExportScene(const render::DisplayList& scene, const std::string& name) {
  FLEXVIS_RETURN_IF_ERROR(EnsureBenchOutDir());
  render::SvgCanvas svg(scene.width(), scene.height());
  scene.ReplayAll(svg);
  std::string path = "bench_out/" + name + ".svg";
  FLEXVIS_RETURN_IF_ERROR(svg.WriteToFile(path));
  std::printf("artifact: %s\n", path.c_str());
  return OkStatus();
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::AddSample(const std::string& label, double wall_seconds, int threads,
                            double items) {
  JsonValue sample = JsonValue::Object();
  sample.Set("label", JsonValue::Str(label));
  sample.Set("wall_seconds", JsonValue::Double(wall_seconds));
  sample.Set("threads", JsonValue::Int(threads));
  sample.Set("items", JsonValue::Double(items));
  sample.Set("items_per_second",
             JsonValue::Double(wall_seconds > 0.0 ? items / wall_seconds : 0.0));
  samples_.Append(std::move(sample));
}

void BenchReport::AddStage(const std::string& sample, const std::string& stage,
                           double wall_seconds, double items) {
  JsonValue entry = JsonValue::Object();
  entry.Set("sample", JsonValue::Str(sample));
  entry.Set("stage", JsonValue::Str(stage));
  entry.Set("wall_seconds", JsonValue::Double(wall_seconds));
  entry.Set("items", JsonValue::Double(items));
  entry.Set("items_per_second",
            JsonValue::Double(wall_seconds > 0.0 ? items / wall_seconds : 0.0));
  stages_.Append(std::move(entry));
}

void BenchReport::SetCounter(const std::string& key, double value) {
  counters_.Set(key, JsonValue::Double(value));
}

Status BenchReport::Write() const {
  Result<int> shards = sim::ShardsFromEnv(1);
  if (!shards.ok()) return shards.status();
  FLEXVIS_RETURN_IF_ERROR(EnsureBenchOutDir());
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", JsonValue::Int(1));
  doc.Set("name", JsonValue::Str(name_));
  JsonValue meta = JsonValue::Object();
  meta.Set("git_sha", JsonValue::Str(GitSha()));
  meta.Set("threads", JsonValue::Int(ParallelThreadCount()));
  meta.Set("shards", JsonValue::Int(*shards));
  doc.Set("meta", std::move(meta));
  doc.Set("samples", samples_);
  doc.Set("stages", stages_);
  doc.Set("counters", counters_);
  std::string path = "bench_out/BENCH_" + name_ + ".json";
  std::string body = doc.Pretty();
  body += "\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return InternalError(StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  size_t written = std::fwrite(body.data(), 1, body.size(), f);
  int close_rc = std::fclose(f);
  if (written != body.size() || close_rc != 0) {
    return InternalError(StrFormat("short write to '%s'", path.c_str()));
  }
  std::printf("report: %s\n", path.c_str());
  return OkStatus();
}

double MeasureSeconds(const std::function<void()>& fn, int repeats) {
  double best = 0.0;
  for (int i = 0; i < std::max(1, repeats); ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    if (i == 0 || elapsed.count() < best) best = elapsed.count();
  }
  return best;
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || v == 0) return fallback;
  return static_cast<size_t>(v);
}

std::vector<core::FlexOffer> MakeRandomOffers(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<core::FlexOffer> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    core::FlexOffer o;
    o.id = static_cast<core::FlexOfferId>(i + 1);
    o.prosumer = static_cast<core::ProsumerId>(i % 500 + 1);
    o.earliest_start = BenchDay() + rng.UniformInt(0, 191) * timeutil::kMinutesPerSlice;
    o.latest_start =
        o.earliest_start + rng.UniformInt(0, 24) * timeutil::kMinutesPerSlice;
    o.creation_time = o.earliest_start - rng.UniformInt(4, 24) * 60;
    o.acceptance_deadline = o.creation_time + 60;
    o.assignment_deadline = o.creation_time + 120;
    int slices = static_cast<int>(rng.UniformInt(1, 12));
    for (int s = 0; s < slices; ++s) {
      double min = rng.Uniform(0.1, 1.5);
      o.profile.push_back(core::ProfileSlice{1, min, min + rng.Uniform(0.0, 1.5)});
    }
    out.push_back(std::move(o));
  }
  return out;
}

void PrintHeader(const char* figure, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper artifact: %s\n", claim);
  std::printf("==============================================================\n");
}

}  // namespace flexvis::bench
