// Benchmark program: runs one workload by name and prints, as the last line
// of stdout, {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer split (plus the tracing overhead against an untraced pass).
// A line starting with "perfbench-report " before it carries the host
// fingerprint, request tallies and every secondary figure.
//
//   perfbench --workload <serve_closed|stream_open|fit_cold> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir>
//
// Exit status is 0 only when every correctness check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_closed|stream_open|fit_cold> --seed <n> --seconds <s> "
               "--trace <0|1> --scratch <dir>\n",
               why);
  return 2;
}

void run_workload(const Args& args, RunResult& result) {
  if (args.workload == "serve_closed") {
    run_serve_closed(args, result);
  } else if (args.workload == "stream_open") {
    run_stream_open(args, result);
  } else {
    run_fit_cold(args, result);
  }
}

/// Relative change of a traced figure against the untraced one, signed so
/// that positive means the tracing made things worse.
double overhead(const Metrics& plain, const Metrics& traced,
                const std::string& name, bool higher_is_better) {
  const double p = plain.value(name);
  const double t = traced.value(name);
  return higher_is_better ? (p - t) / p : (t - p) / p;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workload != "serve_closed" && args.workload != "stream_open" &&
      args.workload != "fit_cold") {
    return usage("unknown or missing --workload");
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  if (args.scratch.empty()) return usage("missing --scratch");

  RunResult result;
  try {
    std::filesystem::create_directories(args.scratch);
    const HostFingerprint host = fingerprint_host(kLanes);
    result.report["host"] = host.to_json();
    if (host.starved) {
      std::fprintf(stderr,
                   "perfbench: host starved (achieved parallelism %.2f of %d "
                   "lanes); do not publish these figures\n",
                   host.achieved_parallelism, host.lanes);
    }
    if (!args.trace) {
      run_workload(args, result);
    } else {
      // Half the time untraced, half traced: the difference is the
      // tracing overhead. The traced half supplies the per-layer split.
      Args plain_args = args;
      plain_args.trace = false;
      plain_args.seconds = args.seconds / 2;
      RunResult plain;
      run_workload(plain_args, plain);
      Args traced_args = args;
      traced_args.seconds = args.seconds / 2;
      run_workload(traced_args, result);
      result.correct = result.correct && plain.correct;
      result.attempted += plain.attempted;
      result.failed += plain.failed;
      for (const std::string& f : plain.check_failures) {
        result.check_failures.push_back(f);
      }
      result.per_layer.set(
          "trace.overhead_throughput_frac",
          overhead(plain.end_to_end, result.end_to_end, "throughput", true),
          "frac");
      result.per_layer.set(
          "trace.overhead_latency_p50_frac",
          overhead(plain.end_to_end, result.end_to_end, "latency_p50_ms",
                   false),
          "frac");
      result.per_layer.set("host.achieved_parallelism",
                           host.achieved_parallelism, "lanes");
      result.report["untraced"] = plain.end_to_end.to_json();
      result.report["traced"] = result.end_to_end.to_json();
      run_layer_probes(args, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  Json checks = Json::array();
  for (const std::string& f : result.check_failures) checks.push_back(Json(f));
  result.report["workload"] = Json(args.workload);
  result.report["seed"] = Json(static_cast<std::int64_t>(args.seed));
  result.report["attempted"] = Json(result.attempted);
  result.report["failed"] = Json(result.failed);
  result.report["succeeded"] = Json(result.attempted - result.failed);
  result.report["check_failures"] = std::move(checks);
  if (!args.trace) result.report["per_layer"] = result.per_layer.to_json();
  std::cout << "perfbench-report " << result.report.dump(-1) << "\n";

  Json out = Json::object();
  out["correct"] = Json(result.correct);
  out["attempted"] = Json(result.attempted);
  out["failed"] = Json(result.failed);
  out["metrics"] = args.trace ? result.per_layer.to_json()
                              : result.end_to_end.to_json();
  std::cout << out.dump(-1) << std::endl;
  for (const std::string& f : result.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  return result.correct ? 0 : 1;
}
