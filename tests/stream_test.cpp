// Conformance harness for streaming sessions (src/eval/server.h
// StreamSession). The randomized trials draw stream count, drop policies,
// ring capacities, frame deadlines, and push cadence from seeded Rng
// streams across lane counts {1, 2, 4, 8} and check the invariants that
// must hold for EVERY draw: each pushed frame resolves exactly once
// (served OR dropped with its policy's classified ServingError), frames
// are delivered in frame order per stream regardless of internal
// completion order, served frames are bit-identical to a serial forward
// of that frame, and Stats agrees with the ledger. Deterministic
// companions pin down each drop policy's state machine with a gated
// backend, the in-order delivery of a drop parked behind an in-flight
// frame, kCancelPending close semantics, and stream/submit coexistence on
// one model. The suite runs in the TSan CI job (label: concurrency) at
// two GQA_TEST_THREADS widths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/server.h"
#include "scoped_env.h"
#include "tfm/nonlinear_provider.h"
#include "util/contracts.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/serving_error.h"

namespace gqa {
namespace {

/// Cheap deterministic stand-in backend (the scheduler_test idiom): a
/// salted checksum of the frame, so per-frame serial references are
/// trivial to recompute. The sleep makes service slower than a tight push
/// loop, so small rings genuinely fill and the drop policies really fire.
tfm::QTensor toy_forward(const tfm::Tensor& image, int salt) {
  tfm::QTensor out(tfm::Shape{1, 4}, QuantParams{1.0, 16, true});
  double sum = 0.0;
  for (const float v : image.data()) sum += static_cast<double>(v);
  const auto base = static_cast<std::int32_t>(
      static_cast<std::int64_t>(sum * 1024.0) & 0x7FFF);
  for (int i = 0; i < 4; ++i) {
    out.data()[static_cast<std::size_t>(i)] = base + salt * (i + 1);
  }
  return out;
}

/// Distinct deterministic frames: every frame id hashes to its own pixel
/// pattern, so bit-identity checks distinguish "served the right frame"
/// from "served any frame".
tfm::Tensor frame_image(std::uint64_t id) {
  tfm::Tensor image(tfm::Shape{1, 4, 4});
  Rng rng(0xF4A3E | (id << 8));
  for (float& v : image.data()) {
    v = static_cast<float>(rng.uniform_int(-64, 64)) / 16.0F;
  }
  return image;
}

/// Mutex-guarded per-stream delivery ledger. The callback records every
/// delivery in invocation order; the pusher records every issued ticket in
/// push order. Exactly-once + in-order then reduces to: the two sequences
/// are equal, and no ticket is recorded twice.
struct StreamLedger {
  std::mutex mutex;
  std::vector<Server::Ticket> pushed;     ///< by the one pusher, push order
  std::vector<Server::Ticket> delivered;  ///< by callbacks, delivery order
  std::map<Server::Ticket, int> deliveries;
  std::map<Server::Ticket, std::vector<std::int32_t>> results;
  std::map<Server::Ticket, ServingErrorCode> drops;

  void record(Server::Ticket ticket, const tfm::QTensor& result,
              const std::exception_ptr& error) {
    std::lock_guard<std::mutex> lock(mutex);
    delivered.push_back(ticket);
    ++deliveries[ticket];
    if (error == nullptr) {
      results[ticket] = result.data();
    } else {
      drops[ticket] = serving_error_code(error);
    }
  }

  [[nodiscard]] std::uint64_t drop_count(ServingErrorCode code) {
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t n = 0;
    for (const auto& [ticket, c] : drops) n += (c == code) ? 1 : 0;
    return n;
  }
};

struct PlannedStream {
  int model = 0;
  DropPolicy policy = DropPolicy::kDropOldest;
  std::size_t ring_capacity = 1;
  std::chrono::milliseconds deadline{0};
  int frames = 0;
  std::uint64_t push_seed = 0;
};

TEST(StreamConformance, RandomizedStreamsExactlyOnceInOrderBitIdentical) {
  const tfm::NonlinearProvider nl = tfm::NonlinearProvider::exact();
  const int kSalts[] = {7, 11};
  const DropPolicy kPolicies[] = {DropPolicy::kDropOldest,
                                  DropPolicy::kDropLate, DropPolicy::kCoalesce};
  const int kLaneChoices[] = {1, 2, 4, 8};
  const std::uint64_t kSeeds[] = {0x57AE40, 0x57AE41, 0x57AE42, 0x57AE43};
  const int stream_threads =
      std::max(2, static_cast<int>(env_int("GQA_TEST_THREADS", 4)));

  int trial = 0;
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    ServerOptions options;
    options.num_threads = kLaneChoices[trial % 4];
    options.warm_provider = false;
    Server server(nl, options);
    for (const int salt : kSalts) {
      (void)server.register_forward(
          "toy" + std::to_string(salt),
          [salt](const tfm::Tensor& image, tfm::Workspace*) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            return toy_forward(image, salt);
          });
    }

    // One stream per client thread, each with its own policy/capacity/
    // deadline draw and its own seeded push cadence.
    std::vector<PlannedStream> plan;
    for (int s = 0; s < stream_threads; ++s) {
      PlannedStream p;
      p.model = static_cast<int>(rng.index(2));
      p.policy = kPolicies[rng.index(3)];
      p.ring_capacity = static_cast<std::size_t>(rng.uniform_int(1, 4));
      // Half the streams carry a tight deadline so kDropLate expiry and
      // late-start misses actually occur; the ledger does not care which
      // frames they hit.
      p.deadline = std::chrono::milliseconds(
          rng.bernoulli(0.5) ? rng.uniform_int(1, 4) : 0);
      p.frames = static_cast<int>(rng.uniform_int(12, 20));
      p.push_seed = rng.fork(static_cast<std::uint64_t>(s)).seed();
      plan.push_back(p);
    }

    std::vector<std::unique_ptr<StreamLedger>> ledgers;
    std::vector<Server::StreamSession> sessions;
    std::vector<std::map<Server::Ticket, std::uint64_t>> frame_of(
        plan.size());  // ticket -> frame id, filled by the one pusher
    for (std::size_t s = 0; s < plan.size(); ++s) {
      ledgers.push_back(std::make_unique<StreamLedger>());
      StreamLedger* ledger = ledgers.back().get();
      StreamOptions so;
      so.drop_policy = plan[s].policy;
      so.ring_capacity = plan[s].ring_capacity;
      so.deadline = plan[s].deadline;
      sessions.push_back(server.open_stream(
          plan[s].model, so,
          [ledger](Server::Ticket ticket, tfm::QTensor result,
                   std::exception_ptr error) {
            ledger->record(ticket, result, error);
          }));
    }
    EXPECT_EQ(server.stats().streams_open, plan.size());

    std::vector<std::thread> pushers;
    for (std::size_t s = 0; s < plan.size(); ++s) {
      pushers.emplace_back([&, s] {
        Rng push_rng(plan[s].push_seed);
        for (int f = 0; f < plan[s].frames; ++f) {
          const std::uint64_t id = (s << 16) | static_cast<std::uint64_t>(f);
          const std::optional<Server::Ticket> ticket =
              sessions[s].push_frame(frame_image(id));
          ASSERT_TRUE(ticket.has_value());  // nobody is closing yet
          {
            std::lock_guard<std::mutex> lock(ledgers[s]->mutex);
            ledgers[s]->pushed.push_back(*ticket);
          }
          frame_of[s][*ticket] = id;
          if (push_rng.bernoulli(0.5)) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(push_rng.uniform_int(0, 400)));
          }
        }
        sessions[s].close();  // blocks until the last delivery returned
      });
    }
    for (std::thread& p : pushers) p.join();

    // Per stream: delivered == pushed (same tickets, same order — that IS
    // exactly-once + in-frame-order), served frames bit-identical to the
    // serial forward of exactly their frame, drop codes legal for the
    // policy.
    std::uint64_t total_frames = 0;
    std::uint64_t superseded_noncoalesce = 0;
    std::uint64_t superseded_coalesce = 0;
    std::uint64_t expired = 0;
    for (std::size_t s = 0; s < plan.size(); ++s) {
      StreamLedger& ledger = *ledgers[s];
      std::lock_guard<std::mutex> lock(ledger.mutex);
      ASSERT_EQ(ledger.delivered, ledger.pushed)
          << "seed=" << seed << " stream=" << s;
      total_frames += ledger.pushed.size();
      for (const auto& [ticket, count] : ledger.deliveries) {
        EXPECT_EQ(count, 1) << "seed=" << seed << " ticket=" << ticket;
        EXPECT_EQ(server.poll(ticket), TicketStatus::kConsumed);
      }
      for (const auto& [ticket, data] : ledger.results) {
        EXPECT_EQ(data,
                  toy_forward(frame_image(frame_of[s].at(ticket)),
                              kSalts[static_cast<std::size_t>(plan[s].model)])
                      .data())
            << "seed=" << seed << " ticket=" << ticket;
      }
      for (const auto& [ticket, code] : ledger.drops) {
        if (code == ServingErrorCode::kFrameSuperseded) {
          (plan[s].policy == DropPolicy::kCoalesce ? superseded_coalesce
                                                   : superseded_noncoalesce) +=
              1;
        } else if (code == ServingErrorCode::kDeadlineExpired) {
          // Only kDropLate expires frames, and only deadlined streams can.
          EXPECT_EQ(plan[s].policy, DropPolicy::kDropLate);
          EXPECT_GT(plan[s].deadline.count(), 0);
          ++expired;
        } else {
          ADD_FAILURE() << "seed=" << seed << " stream=" << s
                        << " unexpected drop code "
                        << serving_error_name(code);
        }
      }
    }

    const Server::Stats stats = server.stats();
    EXPECT_EQ(stats.submitted, total_frames);
    EXPECT_EQ(stats.completed, total_frames);  // drops count as resolved
    EXPECT_EQ(stats.frames_dropped, superseded_noncoalesce);
    EXPECT_EQ(stats.frames_coalesced, superseded_coalesce);
    EXPECT_EQ(stats.deadline_expired, expired);
    // Misses = expiries + frames that started late (served anyway, never
    // killed) — the latter is timing-dependent, so only a lower bound is
    // deterministic.
    EXPECT_GE(stats.deadline_misses, expired);
    EXPECT_EQ(stats.streams_open, 0U);
    EXPECT_EQ(stats.callback_errors, 0U);
    ++trial;
  }
}

/// Deterministic drop-policy fixture: one lane, the stream's first frame
/// gated inside the backend so pushes pile into the ring while exactly one
/// frame is in flight. Releasing the gate lets the single lane apply the
/// policy at its next pick, making the resolution order fully observable.
struct GatedStreamRun {
  std::vector<Server::Ticket> tickets;  ///< push order
  StreamLedger ledger;
  Server::Stats stats;
};

void run_gated_stream(GatedStreamRun& run, DropPolicy policy,
                      std::size_t ring_capacity,
                      std::chrono::milliseconds deadline, int pending_frames,
                      std::chrono::milliseconds stall) {
  const tfm::NonlinearProvider nl = tfm::NonlinearProvider::exact();
  std::atomic<int> entered{0};
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());

  ServerOptions options;
  options.num_threads = 1;
  options.warm_provider = false;
  Server server(nl, options);
  const int model = server.register_forward(
      "gated", [&](const tfm::Tensor& image, tfm::Workspace*) {
        if (++entered == 1) gate.wait();  // only the first frame stalls
        return toy_forward(image, 5);
      });

  StreamOptions so;
  so.drop_policy = policy;
  so.ring_capacity = ring_capacity;
  so.deadline = deadline;
  Server::StreamSession stream = server.open_stream(
      model, so,
      [&run](Server::Ticket ticket, tfm::QTensor result,
             std::exception_ptr error) {
        run.ledger.record(ticket, result, error);
      });

  run.tickets.push_back(*stream.push_frame(frame_image(0)));
  while (entered.load() == 0) std::this_thread::yield();
  for (int f = 1; f <= pending_frames; ++f) {
    run.tickets.push_back(
        *stream.push_frame(frame_image(static_cast<std::uint64_t>(f))));
  }
  if (stall.count() > 0) std::this_thread::sleep_for(stall);
  release.set_value();
  stream.close();  // kFinishAdmitted: serves what the policy kept
  run.stats = server.stats();
}

TEST(StreamDropPolicy, DropOldestDisplacesTheOldestPendingFrame) {
  // Ring capacity 2 with 3 pending pushes: frame 1 is displaced by frame
  // 3's push; frames 2 and 3 are served. The displacement resolves at push
  // time but must still deliver in frame order, parked behind in-flight
  // frame 0.
  GatedStreamRun run;
  run_gated_stream(run, DropPolicy::kDropOldest, /*ring_capacity=*/2,
                   std::chrono::milliseconds(0), /*pending_frames=*/3,
                   std::chrono::milliseconds(0));
  std::lock_guard<std::mutex> lock(run.ledger.mutex);
  ASSERT_EQ(run.ledger.delivered, run.tickets);
  EXPECT_EQ(run.ledger.drops.size(), 1U);
  EXPECT_EQ(run.ledger.drops.at(run.tickets[1]),
            ServingErrorCode::kFrameSuperseded);
  for (const std::size_t served : {std::size_t{0}, std::size_t{2},
                                   std::size_t{3}}) {
    EXPECT_EQ(run.ledger.results.at(run.tickets[served]),
              toy_forward(frame_image(served), 5).data());
  }
  EXPECT_EQ(run.stats.frames_dropped, 1U);
  EXPECT_EQ(run.stats.frames_coalesced, 0U);
  EXPECT_EQ(run.stats.deadline_misses, 0U);
  EXPECT_EQ(run.stats.streams_open, 0U);
}

TEST(StreamDropPolicy, DropLateExpiresPendingFramesThatMissTheirDeadline) {
  // Frames 1 and 2 sit in the ring past their deadline while frame 0 is
  // gated; on release the lane expires both before starting anything — an
  // expired frame NEVER runs — and each resolves kDeadlineExpired in frame
  // order. The deadline is generous relative to the push->pick latency of
  // frame 0 (which must start, or the gate never opens) and small relative
  // to the stall.
  GatedStreamRun run;
  run_gated_stream(run, DropPolicy::kDropLate,
                   /*ring_capacity=*/8, std::chrono::milliseconds(100),
                   /*pending_frames=*/2,
                   /*stall=*/std::chrono::milliseconds(250));
  std::lock_guard<std::mutex> lock(run.ledger.mutex);
  ASSERT_EQ(run.ledger.delivered, run.tickets);
  EXPECT_EQ(run.ledger.results.size(), 1U);  // only frame 0 ran
  EXPECT_EQ(run.ledger.results.at(run.tickets[0]),
            toy_forward(frame_image(0), 5).data());
  EXPECT_EQ(run.ledger.drops.at(run.tickets[1]),
            ServingErrorCode::kDeadlineExpired);
  EXPECT_EQ(run.ledger.drops.at(run.tickets[2]),
            ServingErrorCode::kDeadlineExpired);
  EXPECT_EQ(run.stats.deadline_expired, 2U);
  EXPECT_EQ(run.stats.deadline_misses, 2U);
  EXPECT_EQ(run.stats.frames_dropped, 0U);
  EXPECT_EQ(run.stats.streams_open, 0U);
}

TEST(StreamDropPolicy, CoalesceServesOnlyTheNewestPendingFrame) {
  // Three pending frames under kCoalesce: when the lane comes back for the
  // stream, frames 1 and 2 are superseded and only frame 3 (the newest)
  // runs — minimum staleness, and the supersessions still deliver in
  // frame order.
  GatedStreamRun run;
  run_gated_stream(run, DropPolicy::kCoalesce, /*ring_capacity=*/8,
                   std::chrono::milliseconds(0), /*pending_frames=*/3,
                   std::chrono::milliseconds(0));
  std::lock_guard<std::mutex> lock(run.ledger.mutex);
  ASSERT_EQ(run.ledger.delivered, run.tickets);
  EXPECT_EQ(run.ledger.drops.at(run.tickets[1]),
            ServingErrorCode::kFrameSuperseded);
  EXPECT_EQ(run.ledger.drops.at(run.tickets[2]),
            ServingErrorCode::kFrameSuperseded);
  EXPECT_EQ(run.ledger.results.at(run.tickets[3]),
            toy_forward(frame_image(3), 5).data());
  EXPECT_EQ(run.stats.frames_coalesced, 2U);
  EXPECT_EQ(run.stats.frames_dropped, 0U);
  EXPECT_EQ(run.stats.streams_open, 0U);
}

TEST(StreamClose, CancelPendingFailsUndeliveredFramesButFinishesStarted) {
  const tfm::NonlinearProvider nl = tfm::NonlinearProvider::exact();
  std::atomic<int> entered{0};
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());

  ServerOptions options;
  options.num_threads = 1;
  options.warm_provider = false;
  Server server(nl, options);
  const int model = server.register_forward(
      "gated", [&](const tfm::Tensor& image, tfm::Workspace*) {
        if (++entered == 1) gate.wait();
        return toy_forward(image, 5);
      });

  StreamLedger ledger;
  StreamOptions so;
  so.ring_capacity = 8;
  so.drain_policy = DrainPolicy::kCancelPending;
  Server::StreamSession stream = server.open_stream(
      model, so,
      [&ledger](Server::Ticket ticket, tfm::QTensor result,
                std::exception_ptr error) {
        ledger.record(ticket, result, error);
      });

  std::vector<Server::Ticket> tickets;
  tickets.push_back(*stream.push_frame(frame_image(0)));
  while (entered.load() == 0) std::this_thread::yield();
  tickets.push_back(*stream.push_frame(frame_image(1)));
  tickets.push_back(*stream.push_frame(frame_image(2)));

  // close() blocks until the last delivery, which needs the gated lane —
  // so it must run on its own thread. Admission is refused the moment the
  // stream is closing; probe until we observe that so the cancel sweep has
  // provably happened (any probe admitted before it just joins the ledger).
  std::thread closer([&] { stream.close(); });
  std::uint64_t probe_id = 100;
  for (;;) {
    const std::optional<Server::Ticket> t =
        stream.push_frame(frame_image(probe_id));
    if (!t.has_value()) break;
    tickets.push_back(*t);
    ++probe_id;
    std::this_thread::yield();
  }
  release.set_value();
  closer.join();
  stream.close();  // idempotent after the fact

  std::lock_guard<std::mutex> lock(ledger.mutex);
  // In-order exactly-once still holds across the cancellation: frame 0
  // (already on the lane) finished normally; every other admitted frame
  // was dropped, never served. While the closer thread starts, the probes
  // can overfill the ring, and kDropOldest then supersedes the oldest
  // pending frames: exactly one run from frame 1 on, one frame per counted
  // ring displacement. The cancel sweep took every later frame, including
  // the newest, which nothing could displace.
  ASSERT_EQ(ledger.delivered, tickets);
  EXPECT_EQ(ledger.results.size(), 1U);
  EXPECT_EQ(ledger.results.at(tickets[0]),
            toy_forward(frame_image(0), 5).data());
  const Server::Stats stats = server.stats();
  std::size_t superseded = 0;
  while (1 + superseded < tickets.size() &&
         ledger.drops.at(tickets[1 + superseded]) ==
             ServingErrorCode::kFrameSuperseded) {
    ++superseded;
  }
  EXPECT_EQ(superseded, stats.frames_dropped);
  EXPECT_EQ(ledger.drops.at(tickets.back()), ServingErrorCode::kCancelled);
  for (std::size_t i = 1 + superseded; i < tickets.size(); ++i) {
    EXPECT_EQ(ledger.drops.at(tickets[i]), ServingErrorCode::kCancelled)
        << "frame " << i;
  }
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.streams_open, 0U);
}

TEST(StreamEnvKnobs, RingCapacityFromTheEnvironmentIsParsedStrictly) {
  constexpr const char* kVar = "GQA_STREAM_RING_CAPACITY";
  {
    // Options leave ring_capacity 0, so the knob sizes the ring: with 2,
    // three frames pending behind the gated one displace exactly one.
    test::ScopedEnv env(kVar, "2");
    GatedStreamRun run;
    run_gated_stream(run, DropPolicy::kDropOldest, /*ring_capacity=*/0,
                     std::chrono::milliseconds(0), /*pending_frames=*/3,
                     std::chrono::milliseconds(0));
    EXPECT_EQ(run.stats.frames_dropped, 1U);
  }
  // -1 used to wrap to SIZE_MAX and fail in the ring's allocation; "8x"
  // used to open a ring of 8.
  for (const char* bad : {"-1", "0", "8x", "99999999999999999999"}) {
    test::ScopedEnv env(kVar, bad);
    const tfm::NonlinearProvider nl = tfm::NonlinearProvider::exact();
    ServerOptions options;
    options.num_threads = 1;
    options.warm_provider = false;
    Server server(nl, options);
    const int model = server.register_forward(
        "toy", [](const tfm::Tensor& image, tfm::Workspace*) {
          return toy_forward(image, 1);
        });
    EXPECT_THROW((void)server.open_stream(
                     model, StreamOptions{},
                     [](Server::Ticket, tfm::QTensor, std::exception_ptr) {}),
                 ContractViolation)
        << bad;
  }
}

TEST(StreamEnvKnobs, BreakerThresholdFromTheEnvironmentIsRangeChecked) {
  // The server reads the knob at construction when the scheduler config
  // leaves the threshold at its -1 sentinel.
  const tfm::NonlinearProvider nl = tfm::NonlinearProvider::exact();
  ServerOptions options;
  options.num_threads = 1;
  options.warm_provider = false;
  for (const char* bad : {"2147483648", "-1", "3x"}) {
    test::ScopedEnv env("GQA_BREAKER_THRESHOLD", bad);
    EXPECT_THROW(Server(nl, options), ContractViolation) << bad;
  }
  test::ScopedEnv env("GQA_BREAKER_THRESHOLD", "3");
  EXPECT_NO_THROW({ Server server(nl, options); });
}

TEST(StreamCoexistence, StreamsAndPlainSubmitsShareAModel) {
  // The WRR treats a stream as one more source of its model: plain
  // submits and stream frames on the same model all resolve bit-identically
  // with nobody starved, and submit tickets stay waitable.
  const tfm::NonlinearProvider nl = tfm::NonlinearProvider::exact();
  ServerOptions options;
  options.num_threads = 2;
  options.warm_provider = false;
  Server server(nl, options);
  const int model = server.register_forward(
      "toy", [](const tfm::Tensor& image, tfm::Workspace*) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        return toy_forward(image, 9);
      });

  StreamLedger ledger;
  StreamOptions so;
  so.ring_capacity = 16;  // roomy: this test is about fairness, not drops
  Server::StreamSession stream = server.open_stream(
      model, so,
      [&ledger](Server::Ticket ticket, tfm::QTensor result,
                std::exception_ptr error) {
        ledger.record(ticket, result, error);
      });
  std::vector<Server::Ticket> frames;
  std::vector<Server::Ticket> submits;
  for (std::uint64_t i = 0; i < 12; ++i) {
    frames.push_back(*stream.push_frame(frame_image(i)));
    submits.push_back(server.submit(model, frame_image(100 + i)));
  }
  for (std::size_t i = 0; i < submits.size(); ++i) {
    EXPECT_EQ(server.wait(submits[i]).data(),
              toy_forward(frame_image(100 + i), 9).data());
  }
  stream.close();
  std::lock_guard<std::mutex> lock(ledger.mutex);
  ASSERT_EQ(ledger.delivered, frames);
  EXPECT_TRUE(ledger.drops.empty());  // the ring never overflowed
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(ledger.results.at(frames[i]),
              toy_forward(frame_image(i), 9).data());
  }
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, 24U);
  EXPECT_EQ(stats.completed, 24U);
  EXPECT_EQ(stats.streams_open, 0U);
}

}  // namespace
}  // namespace gqa
