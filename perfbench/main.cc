// flexbench: the flexvis end-to-end benchmark harness.
//
//   flexbench --workload <ingest_week|dashboard_explore|plan_day_ahead>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spec <BENCHMARK.json>] [--work-dir <dir>] [--git-sha <sha>]
//
// Prints a metadata line, a details line, and as its last line the result:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1), the
// names and units the --spec file declares.

#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace flexbench {
namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "flexbench: %s\nusage: flexbench --workload "
               "<ingest_week|dashboard_explore|plan_day_ahead> --seed <n> --seconds <s> "
               "--trace <0|1> [--spec <BENCHMARK.json>] [--work-dir <dir>] [--git-sha <sha>]\n",
               message);
  return 2;
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    default: return StrFormat("0x%lx", static_cast<unsigned long>(fs.f_type));
  }
}

/// Prints the run's metadata. `comparable` hashes the machine and build
/// fields: results whose `comparable` differs must not be compared.
void PrintMeta(const Options& options) {
  const char* threads_env = std::getenv("FLEXVIS_THREADS");
  JsonValue meta = JsonValue::Object();
  meta.Set("nproc", JsonValue::Int(std::thread::hardware_concurrency()));
  meta.Set("compiler", JsonValue::Str(FLEXBENCH_COMPILER));
  meta.Set("build_type", JsonValue::Str(FLEXBENCH_BUILD_TYPE));
  meta.Set("FLEXVIS_SIMD", JsonValue::Int(FLEXBENCH_SIMD));
  meta.Set("FLEXVIS_THREADS", JsonValue::Str(threads_env != nullptr ? threads_env : "unset"));
  meta.Set("threads", JsonValue::Int(ParallelThreadCount()));
  meta.Set("checkpoint_fs", JsonValue::Str(FilesystemOf(options.work_dir)));
  const uint32_t comparable = Crc32(meta.Dump());
  meta.Set("comparable", JsonValue::Str(StrFormat("%08x", comparable)));
  meta.Set("seed", JsonValue::Int(static_cast<int64_t>(options.seed)));
  meta.Set("git_sha", JsonValue::Str(options.git_sha));
  meta.Set("workload", JsonValue::Str(options.workload));
  meta.Set("seconds", JsonValue::Double(options.seconds));
  meta.Set("trace", JsonValue::Int(options.trace ? 1 : 0));
  JsonValue line = JsonValue::Object();
  line.Set("meta", std::move(meta));
  std::printf("%s\n", line.Dump().c_str());
}

int Main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("--seed must be a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0) || options.seconds > 600.0) {
        return Usage("--seconds must be in (0, 600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spec") {
      options.spec = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  void (*run)(const Options&, Tracer&, RunResult&) = nullptr;
  if (options.workload == "ingest_week") run = RunIngestWeek;
  if (options.workload == "dashboard_explore") run = RunDashboardExplore;
  if (options.workload == "plan_day_ahead") run = RunPlanDayAhead;
  if (run == nullptr) return Usage(("unknown workload " + options.workload).c_str());

  Result<MetricSpec> spec = LoadMetricSpec(options.spec);
  if (!spec.ok()) return Usage(spec.status().ToString().c_str());

  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create " + options.work_dir).c_str());
  PrintMeta(options);

  Tracer tracer(options.trace);
  RunResult result;
  run(options, tracer, result);
  result.Check(result.attempted() > 0, "the workload attempted operations");
  result.EndToEnd("success_ratio",
                  result.attempted() > 0 ? 1.0 - static_cast<double>(result.failed()) /
                                                     static_cast<double>(result.attempted())
                                         : 0.0,
                  "ratio");
  if (options.trace) ReportLayerSelfTimes(tracer, result);
  result.MatchSpec(*spec, options.trace);
  result.Print(options.trace);
  return 0;
}

}  // namespace
}  // namespace flexbench

int main(int argc, char** argv) { return flexbench::Main(argc, argv); }
