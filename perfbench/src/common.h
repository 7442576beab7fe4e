// Shared pieces of the benchmark program: clocks and order statistics, the
// metric record every workload fills, the in-memory span recorder used by
// traced runs, and the host fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

using gqa::Json;
using Clock = std::chrono::steady_clock;

/// Server lanes every serving workload runs on. With the server's
/// dispatcher (which is itself lane 0) and one client/generator thread the
/// process never runs more than four threads.
inline constexpr int kLanes = 2;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; the
/// sample must be non-empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Process peak resident set size in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// What the benchmark was asked to do.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch;  ///< directory for artifact stores and trace files
};

/// Named metrics with units, in the shape of the final JSON line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    entries_[name] = {value, unit};
  }
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] bool has(const std::string& name) const {
    return entries_.count(name) > 0;
  }
  [[nodiscard]] double value(const std::string& name) const {
    return entries_.at(name).first;
  }
  /// Copies every metric of `other` this record does not have yet.
  void merge_missing(const Metrics& other) {
    entries_.insert(other.entries_.begin(), other.entries_.end());
  }

 private:
  std::map<std::string, std::pair<double, std::string>> entries_;
};

/// One workload run: correctness verdict, request tallies, the end-to-end
/// metrics (plain runs) or per-layer metrics (traced runs), and a free-form
/// report printed before the result line.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  Json report = Json::object();
  std::vector<std::string> check_failures;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      check_failures.push_back(what);
    }
  }
};

/// In-memory span recorder for traced runs: the benchmark wraps each call
/// into a layer with a span (name, start, end, parent span, request id).
/// Spans are kept in memory and written out once at the end, so recording
/// costs one short critical section per span. When disabled every call is
/// a no-op returning 0.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t id = 0;
    std::int64_t parent = 0;   ///< 0 = root
    std::int64_t request = -1;  ///< -1 = not tied to a request
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled).
  std::int64_t record(std::string name, Clock::time_point start,
                      Clock::time_point end, std::int64_t parent = 0,
                      std::int64_t request = -1);

  [[nodiscard]] std::size_t size() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events; parent and
  /// request ids in args).
  void write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::int64_t next_id_ = 1;
};

/// Thread ids of the calling process (from /proc/self/task).
[[nodiscard]] std::vector<int> thread_ids();

/// Pins the calling thread to CPU 0 and every thread created since
/// `before` to its own CPU, 1, 2, ... (wrapping at the CPU count). The
/// benchmark pins the server's lanes so that two busy lanes always run on
/// two cores: some hosts otherwise keep a freshly woken pair of threads on
/// one core for up to a second, which would make every serving figure
/// bimodal. Returns the number of threads pinned (0 on hosts with fewer
/// than three CPUs, where pinning is skipped).
int pin_new_threads(const std::vector<int>& before);

/// Host fingerprint: core count, ISA flags, the active kernel backend, and
/// the achieved parallelism of a calibrated spin across the server lanes.
/// A run whose spin reaches less than kStarvedShare of its lanes is marked
/// starved: its numbers describe a contended host, not the code.
struct HostFingerprint {
  int nproc = 0;
  bool avx2 = false;
  bool avx512f = false;
  std::string backend;
  int lanes = 0;
  double achieved_parallelism = 0.0;
  bool starved = false;

  static constexpr double kStarvedShare = 0.8;
  [[nodiscard]] Json to_json() const;
};

/// Measures the fingerprint. The spin runs on a private server with
/// `lanes` lanes through Server::register_forward/submit, i.e. on exactly
/// the threads that serve requests.
[[nodiscard]] HostFingerprint fingerprint_host(int lanes);

}  // namespace perfbench
