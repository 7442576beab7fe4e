#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "eval/server.h"
#include "kernel/dispatch.h"
#include "util/contracts.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  GQA_EXPECTS_MSG(!values.empty(), "quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Json Metrics::to_json() const {
  Json out = Json::object();
  for (const auto& [name, entry] : entries_) {
    Json m = Json::object();
    m["value"] = Json(entry.first);
    m["unit"] = Json(entry.second);
    out[name] = std::move(m);
  }
  return out;
}

std::int64_t Tracer::record(std::string name, Clock::time_point start,
                            Clock::time_point end, std::int64_t parent,
                            std::int64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t id = next_id_++;
  spans_.push_back(Span{std::move(name), start, end, id, parent, request});
  return id;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts_us =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur_us =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"request\":%lld}}%s\n",
                  s.name.c_str(),
                  static_cast<long long>(s.request < 0 ? 0 : s.request % 64),
                  ts_us, dur_us, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

std::vector<int> thread_ids() {
  std::vector<int> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ids.push_back(std::atoi(entry->d_name));
    }
    closedir(dir);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

int pin_new_threads(const std::vector<int>& before) {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus < 3) return 0;
  const auto pin = [](int tid, long cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(cpu), &set);
    return sched_setaffinity(tid, sizeof(set), &set) == 0;
  };
  (void)pin(0, 0);  // the calling (client/generator) thread
  int pinned = 0;
  long cpu = 1;
  for (int tid : thread_ids()) {
    if (std::find(before.begin(), before.end(), tid) != before.end()) continue;
    if (pin(tid, cpu)) ++pinned;
    cpu = cpu + 1 < cpus ? cpu + 1 : 1;
  }
  return pinned;
}

Json HostFingerprint::to_json() const {
  Json j = Json::object();
  j["nproc"] = Json(nproc);
  j["avx2"] = Json(avx2);
  j["avx512f"] = Json(avx512f);
  j["kernel_backend"] = Json(backend);
  j["lanes"] = Json(lanes);
  j["achieved_parallelism"] = Json(achieved_parallelism);
  j["starved"] = Json(starved);
  return j;
}

namespace {

/// Integer busy work the optimizer cannot drop (the result is returned).
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

HostFingerprint fingerprint_host(int lanes) {
  HostFingerprint fp;
  fp.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
#if defined(__x86_64__)
  __builtin_cpu_init();
  fp.avx2 = __builtin_cpu_supports("avx2") != 0;
  fp.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
  fp.backend = gqa::kernel::active().name;
  fp.lanes = lanes;

  // Calibrate ~20 ms of spin on the calling thread.
  std::uint64_t iterations = 1 << 20;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    volatile std::uint64_t sink = spin(iterations);
    (void)sink;
    if (ms_between(t0, Clock::now()) >= 20.0) break;
    iterations *= 2;
  }

  const gqa::tfm::NonlinearProvider provider =
      gqa::tfm::NonlinearProvider::exact();
  gqa::ServerOptions options;
  options.num_threads = lanes;
  options.warm_provider = false;
  options.scheduler.qos_weights = {1};
  options.scheduler.breaker_threshold = 0;
  options.scheduler.breaker_cooldown = std::chrono::milliseconds(100);
  const std::vector<int> before = thread_ids();
  gqa::Server server(provider, options);
  (void)pin_new_threads(before);
  const int spin_id = server.register_forward(
      "spin", [iterations](const gqa::tfm::Tensor&, gqa::tfm::Workspace*) {
        gqa::tfm::QTensor out(gqa::tfm::Shape{1}, gqa::QuantParams{});
        out.data()[0] = static_cast<std::int32_t>(spin(iterations) & 0xFF);
        return out;
      });
  const gqa::tfm::Tensor token(gqa::tfm::Shape{1});
  const auto wall_ms = [&](int requests) {
    const Clock::time_point t0 = Clock::now();
    std::vector<gqa::Server::Ticket> tickets;
    for (int r = 0; r < requests; ++r) {
      tickets.push_back(server.submit(spin_id, token));
    }
    for (gqa::Server::Ticket t : tickets) (void)server.wait(t);
    return ms_between(t0, Clock::now());
  };
  // Each burst keeps both (pinned) lanes busy from an idle server to its
  // last spin, so the figure is the host's capacity for two busy threads.
  // Bursts are separated by an idle pause: a burst admitted the instant a
  // previous one drains can find one lane already retired from the
  // server's service span, and would then measure that, not the host.
  std::vector<double> single;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    volatile std::uint64_t sink = spin(iterations);
    (void)sink;
    single.push_back(ms_between(t0, Clock::now()));
  }
  const double single_ms = median(single);
  constexpr int kSpinsPerLane = 6;
  std::vector<double> ratios;
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ratios.push_back(kSpinsPerLane * lanes * single_ms /
                     wall_ms(kSpinsPerLane * lanes));
  }
  server.shutdown();
  fp.achieved_parallelism = median(ratios);
  fp.starved = fp.achieved_parallelism <
               HostFingerprint::kStarvedShare * static_cast<double>(lanes);
  return fp;
}

}  // namespace perfbench
