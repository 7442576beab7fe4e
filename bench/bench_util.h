// Shared helpers for the reproduction benches: seed-averaged fitting,
// environment knobs, and result dumping. Each bench binary regenerates one
// table or figure of the paper (see DESIGN.md §4 for the index).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/approximator.h"
#include "eval/protocol.h"
#include "eval/server.h"
#include "util/contracts.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace gqa::bench {

/// The continuous-batching client the serving benches time: streams every
/// (model_id, image) request through a submit-time callback and drains
/// once — admission overlaps service with no per-ticket wait barrier.
/// Each callback writes its own pre-assigned slot (disjoint, never
/// reallocated; drain()'s completion handshake publishes the writes), so
/// the result path is lock-free on the client. Callbacks must not throw
/// (the server would swallow it); the first backend error is recorded and
/// rethrown after the drain instead.
inline std::vector<tfm::QTensor> serve_stream_continuous(
    Server& server,
    const std::vector<std::pair<int, const tfm::Tensor*>>& requests) {
  std::vector<tfm::QTensor> results(requests.size());
  std::mutex error_mutex;
  std::exception_ptr first_error;
  for (std::size_t slot = 0; slot < requests.size(); ++slot) {
    (void)server.submit(requests[slot].first, *requests[slot].second,
                        [&results, &error_mutex, &first_error, slot](
                            Server::Ticket, tfm::QTensor result,
                            std::exception_ptr error) {
                          if (error != nullptr) {
                            std::lock_guard<std::mutex> lock(error_mutex);
                            if (first_error == nullptr) first_error = error;
                            return;
                          }
                          results[slot] = std::move(result);
                        });
  }
  server.drain();  // every callback has run when drain returns
  {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (first_error != nullptr) std::rethrow_exception(first_error);
  }
  return results;
}

/// Outcome of one fault-tolerant streaming pass (serve_stream_faulty):
/// per-slot results for the requests that succeeded (nullopt = resolved
/// with an error), plus the admission-refusal and failure counts the
/// degraded-throughput bench reports.
struct FaultyStreamResult {
  std::vector<std::optional<tfm::QTensor>> results;
  std::size_t admitted = 0;
  std::size_t admission_rejected = 0;
  std::size_t failed = 0;  ///< admitted but resolved with an error
};

/// serve_stream_continuous for chaos runs: the same streaming-callback
/// client, but each request carries a retry/deadline policy, an injected
/// admission refusal is counted instead of rethrown, and per-request
/// failures are tallied rather than failing the whole stream — the caller
/// decides what degraded service is worth (and checksums the successes).
inline FaultyStreamResult serve_stream_faulty(
    Server& server,
    const std::vector<std::pair<int, const tfm::Tensor*>>& requests,
    const SubmitOptions& submit_options) {
  FaultyStreamResult out;
  out.results.resize(requests.size());
  std::atomic<std::size_t> failed{0};
  for (std::size_t slot = 0; slot < requests.size(); ++slot) {
    try {
      (void)server.submit(requests[slot].first, *requests[slot].second,
                          submit_options,
                          [&out, &failed, slot](Server::Ticket,
                                                tfm::QTensor result,
                                                std::exception_ptr error) {
                            if (error != nullptr) {
                              failed.fetch_add(1,
                                               std::memory_order_relaxed);
                              return;
                            }
                            out.results[slot] = std::move(result);
                          });
      ++out.admitted;
    } catch (const ServingError&) {
      ++out.admission_rejected;  // refused before a ticket existed
    }
  }
  server.drain();  // every callback has run when drain returns
  out.failed = failed.load();
  return out;
}

/// Outcome of one open-loop streaming pass (run_stream_open_loop): the
/// push ledger (ticket -> source image index, in push order), every frame
/// the stream actually served keyed by ticket (for the bit-identity gate
/// against serial forwards), the count of frames resolved with a
/// ServingError instead (dropped/superseded/expired), and the wall time of
/// the pass including the close() drain.
struct StreamOpenLoopResult {
  std::vector<std::pair<Server::Ticket, std::size_t>> pushed;
  std::map<Server::Ticket, tfm::QTensor> served;
  std::size_t dropped = 0;
  double wall_ms = 0.0;
};

/// The open-loop frame source of the stream-serving benches: pushes
/// `frames` frames (cycling through `images`) into one streaming session
/// at a fixed offered cadence REGARDLESS of service progress — the
/// real-time video shape, where a slow server does not slow the camera —
/// and lets the stream's drop policy shed whatever the server cannot
/// absorb. close() drains per the stream's drain_policy, so when this
/// returns every pushed frame has resolved exactly once.
inline StreamOpenLoopResult run_stream_open_loop(
    Server& server, int model_id, const std::vector<tfm::Tensor>& images,
    std::size_t frames, std::chrono::microseconds interval,
    const StreamOptions& options) {
  StreamOpenLoopResult out;
  std::mutex mutex;
  Server::StreamSession stream = server.open_stream(
      model_id, options,
      [&out, &mutex](Server::Ticket ticket, tfm::QTensor result,
                     std::exception_ptr error) {
        std::lock_guard<std::mutex> lock(mutex);
        if (error == nullptr) {
          out.served.emplace(ticket, std::move(result));
        } else {
          ++out.dropped;
        }
      });
  Timer timer;
  auto next_push = std::chrono::steady_clock::now();
  for (std::size_t f = 0; f < frames; ++f) {
    const std::size_t idx = f % images.size();
    if (const std::optional<Server::Ticket> ticket =
            stream.push_frame(images[idx])) {
      out.pushed.emplace_back(*ticket, idx);
    }
    next_push += interval;
    std::this_thread::sleep_until(next_push);
  }
  stream.close();
  out.wall_ms = timer.milliseconds();
  return out;
}

/// The mixed two-model request list of the co-serving benches: one
/// SegFormer and one EfficientViT request per image, interleaved.
inline std::vector<std::pair<int, const tfm::Tensor*>> mixed_request_list(
    int seg_id, int evit_id, const std::vector<tfm::Tensor>& images) {
  std::vector<std::pair<int, const tfm::Tensor*>> requests;
  requests.reserve(2 * images.size());
  for (const tfm::Tensor& img : images) {
    requests.emplace_back(seg_id, &img);
    requests.emplace_back(evit_id, &img);
  }
  return requests;
}

/// Best-of-`reps` wall time of `fn` in milliseconds.
template <typename Fn>
double time_best_ms(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.milliseconds());
  }
  return best;
}

/// GQA_BENCH_REPS, the timing rounds per measurement (`fallback` when
/// unset). Below 1 no round would run and every time would read as the
/// 1e300 sentinel, so it throws ContractViolation naming the variable.
inline int bench_reps(int fallback) {
  const std::int64_t reps = env_int("GQA_BENCH_REPS", fallback);
  GQA_EXPECTS_MSG(reps >= 1 && reps <= std::numeric_limits<int>::max(),
                  "GQA_BENCH_REPS must be in [1, INT_MAX], got " +
                      std::to_string(reps));
  return static_cast<int>(reps);
}

/// Number of independent fit seeds to average (GA/NN-LUT runs are
/// stochastic; the paper reports single runs, we stabilize with the mean).
inline int fit_seeds() {
  return static_cast<int>(env_int("GQA_FIT_SEEDS", 3));
}

/// Fits `seeds` approximators with distinct seeds.
inline std::vector<Approximator> fit_many(Op op, Method method, int entries,
                                          int seeds) {
  std::vector<Approximator> out;
  out.reserve(static_cast<std::size_t>(seeds));
  for (int s = 0; s < seeds; ++s) {
    FitOptions options;
    options.entries = entries;
    options.seed = 0xB0B0 + static_cast<std::uint64_t>(s) * 7919 +
                   static_cast<std::uint64_t>(op) * 131 +
                   static_cast<std::uint64_t>(method) * 17;
    out.push_back(Approximator::fit(op, method, options));
  }
  return out;
}

/// Seed-averaged operator-level MSE (§4.1 protocol).
inline double avg_operator_mse(Op op, Method method, int entries,
                               const SweepOptions& opts = {}) {
  const std::vector<Approximator> fits =
      fit_many(op, method, entries, fit_seeds());
  double sum = 0.0;
  for (const Approximator& a : fits) sum += operator_level_mse(a, opts);
  return sum / static_cast<double>(fits.size());
}

/// Seed-averaged per-scale MSE series, ordered S = 2^0 .. 2^exp_lo.
inline std::vector<double> avg_scale_series(Op op, Method method, int entries,
                                            const SweepOptions& opts = {}) {
  const std::vector<Approximator> fits =
      fit_many(op, method, entries, fit_seeds());
  std::vector<double> sums;
  for (const Approximator& a : fits) {
    const ScaleSweepResult sweep = sweep_scale_mse(a, opts);
    if (sums.empty()) sums.assign(sweep.points.size(), 0.0);
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
      sums[i] += sweep.points[i].mse / static_cast<double>(fits.size());
    }
  }
  return sums;
}

/// Writes a table both to stdout and, as markdown, into bench_results/.
inline void emit(const TablePrinter& table, const std::string& name) {
  table.print(std::cout);
  try {
    (void)std::system("mkdir -p bench_results");
    write_file("bench_results/" + name + ".md", table.to_markdown());
  } catch (const std::exception&) {
    // Result files are a convenience; never fail the bench over them.
  }
}

}  // namespace gqa::bench
