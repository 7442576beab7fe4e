#include "eval/server.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernel/dispatch.h"
#include "util/contracts.h"
#include "util/env.h"
#include "util/fault_injection.h"
#include "util/strings.h"

namespace gqa {

namespace {

/// GQA_QOS_WEIGHTS fallback for SchedulerConfig::qos_weights: a comma-
/// separated per-model_id weight list ("3,1"). Unset or empty -> no
/// weights (every model weighs 1).
std::vector<int> qos_weights_from_env() {
  const std::string raw = env_string("GQA_QOS_WEIGHTS", "");
  std::vector<int> weights;
  if (trim(raw).empty()) return weights;
  for (const std::string& token : split(raw, ',')) {
    const std::string t = trim(token);
    char* end = nullptr;
    const long value = std::strtol(t.c_str(), &end, 10);
    GQA_EXPECTS_MSG(end != t.c_str() && *end == '\0' && value >= 1,
                    "GQA_QOS_WEIGHTS must be comma-separated integers >= 1");
    weights.push_back(static_cast<int>(value));
  }
  return weights;
}

std::exception_ptr cancellation_error() {
  return std::make_exception_ptr(ServingError(
      ServingErrorCode::kCancelled,
      "request cancelled: server shut down before it started "
      "(DrainPolicy::kCancelPending)"));
}

std::exception_ptr deadline_error() {
  return std::make_exception_ptr(
      ServingError(ServingErrorCode::kDeadlineExpired,
                   "request deadline expired before service"));
}

std::exception_ptr unavailable_error(const std::string& model_name) {
  return std::make_exception_ptr(
      ServingError(ServingErrorCode::kModelUnavailable,
                   "circuit breaker open for model '" + model_name +
                       "': failing fast until the cooldown probe succeeds"));
}

std::exception_ptr superseded_error() {
  return std::make_exception_ptr(
      ServingError(ServingErrorCode::kFrameSuperseded,
                   "frame superseded by a newer frame before it started"));
}

std::exception_ptr stream_cancel_error() {
  return std::make_exception_ptr(ServingError(
      ServingErrorCode::kCancelled,
      "frame cancelled: stream closed before it started "
      "(DrainPolicy::kCancelPending)"));
}

std::exception_ptr frame_admission_error() {
  return std::make_exception_ptr(ServingError(
      ServingErrorCode::kAdmissionRejected,
      "injected stream_admission fault: frame refused at admission"));
}

}  // namespace

Server::Server(const tfm::NonlinearProvider& provider, ServerOptions options)
    : provider_(provider),
      options_(std::move(options)),
      queue_(options_.queue_capacity) {
  GQA_EXPECTS(options_.num_threads >= 0);
  GQA_EXPECTS_MSG(options_.queue_capacity >= 1,
                  "admission queue needs capacity >= 1");
  GQA_EXPECTS_MSG(options_.scheduler.max_inflight >= 0,
                  "max_inflight must be >= 0 (0 = lane count)");
  if (options_.scheduler.qos_weights.empty()) {
    options_.scheduler.qos_weights = qos_weights_from_env();
  }
  for (const int w : options_.scheduler.qos_weights) {
    GQA_EXPECTS_MSG(w >= 1, "QoS weights must be >= 1");
  }
  if (options_.scheduler.breaker_threshold < 0) {
    const std::int64_t threshold = env_int("GQA_BREAKER_THRESHOLD", 0);
    GQA_EXPECTS_MSG(threshold >= 0 &&
                        threshold <= std::numeric_limits<int>::max(),
                    "GQA_BREAKER_THRESHOLD must be in [0, INT_MAX] (0 "
                    "disables)");
    options_.scheduler.breaker_threshold = static_cast<int>(threshold);
  }
  GQA_EXPECTS_MSG(options_.scheduler.breaker_threshold >= 0,
                  "GQA_BREAKER_THRESHOLD must be >= 0 (0 disables)");
  if (options_.scheduler.breaker_cooldown.count() < 0) {
    options_.scheduler.breaker_cooldown =
        std::chrono::milliseconds(env_int("GQA_BREAKER_COOLDOWN_MS", 100));
  }
  GQA_EXPECTS_MSG(options_.scheduler.breaker_cooldown.count() >= 0,
                  "GQA_BREAKER_COOLDOWN_MS must be >= 0");
  if (options_.num_threads >= 1) {
    owned_ = std::make_unique<ThreadPool>(options_.num_threads);
    pool_ = owned_.get();
  } else {
    pool_ = &global_pool();
  }
  dispatcher_ = ScopedThread([this] { dispatch_loop(); });
}

Server::~Server() { shutdown(); }

std::uint64_t Server::weight_of(std::size_t model_id) const {
  const std::vector<int>& weights = options_.scheduler.qos_weights;
  if (model_id < weights.size()) {
    return static_cast<std::uint64_t>(weights[model_id]);
  }
  return 1;
}

int Server::register_forward(std::string name, ForwardFn forward) {
  GQA_EXPECTS_MSG(forward != nullptr, "register_forward needs a callable");
  int id = 0;
  {
    MutexLock lock(mutex_);
    GQA_EXPECTS_MSG(!stopping_, "register on a shut-down server");
    id = static_cast<int>(models_.size());
    if (name.empty()) name = format("model-%d", id);
    models_.push_back({std::move(name), std::move(forward)});
    backlog_.emplace_back();
    credits_.push_back(weight_of(static_cast<std::size_t>(id)));
    breakers_.emplace_back();
    model_streams_.emplace_back();
    source_cursor_.push_back(0);
    stats_.started_per_model.push_back(0);
  }
  // One shared warm-up covers the union of every co-served model's op-set:
  // the provider warms everything it replaces, and repeats on a warm
  // provider are copy-free no-ops.
  if (options_.warm_provider) {
    try {
      provider_.warm_up_deployment();
    } catch (const ServingError&) {
      // A classified warm-up failure (the `warmup` chaos point) degrades
      // this server to cold lazy unit builds — results are identical.
    }
  }
  return id;
}

void Server::count_injected_fault() {
  MutexLock lock(mutex_);
  ++stats_.faults_injected;
}

std::optional<Server::Ticket> Server::admit(int model_id, tfm::Tensor image,
                                            bool blocking,
                                            SubmitOptions submit_options,
                                            Callback callback) {
  GQA_EXPECTS_MSG(submit_options.max_attempts >= 1,
                  "SubmitOptions::max_attempts must be >= 1");
  GQA_EXPECTS_MSG(submit_options.deadline.count() >= 0,
                  "SubmitOptions::deadline must be >= 0 (0 = none)");
  GQA_EXPECTS_MSG(submit_options.backoff.count() >= 0,
                  "SubmitOptions::backoff must be >= 0");
  Ticket ticket = 0;
  {
    MutexLock lock(mutex_);
    GQA_EXPECTS_MSG(!stopping_, "submit on a shut-down server");
    GQA_EXPECTS_MSG(
        model_id >= 0 && model_id < static_cast<int>(models_.size()),
        "submit for an unregistered model_id");
    if (fault::triggered(fault::Point::kAdmission)) {
      // The admission chaos point models an overloaded front door: the
      // request is refused before a ticket exists, so the submitter's
      // catch is the only delivery — nothing to retract or resolve.
      ++stats_.faults_injected;
      throw ServingError(ServingErrorCode::kAdmissionRejected,
                         "injected admission fault: request refused before "
                         "ticket issue");
    }
    ticket = next_ticket_++;
    Slot slot;
    slot.callback = std::move(callback);
    slots_.emplace(ticket, std::move(slot));
    ++stats_.submitted;
  }
  Request request{ticket, model_id, std::move(image)};
  if (submit_options.deadline.count() > 0) {
    request.expires_at = Clock::now() + submit_options.deadline;
  }
  request.max_attempts = submit_options.max_attempts;
  request.backoff = submit_options.backoff;
  const bool pushed = blocking ? queue_.push(std::move(request))
                               : queue_.try_push(std::move(request));
  if (pushed) {
    // Wake one lane parked mid-span — each admission adds exactly one
    // runnable request, and a woken lane that loses the race re-checks
    // and re-parks safely (completions/shutdown broadcast instead, since
    // every lane must observe span-over). The empty lock pairs this
    // notify with the lanes' empty-backlog check: a lane holding mutex_
    // through that check either sees the pushed item on its refill or
    // starts waiting before this notify can fire — never in between.
    { MutexLock lock(mutex_); }
    sched_cv_.notify_one();
    return ticket;
  }

  // The request never reached the queue: retract the ticket. push() only
  // fails when the queue closed (shutdown raced the submit); try_push()
  // also fails on a full queue — the load-shedding path.
  const bool closed = queue_.closed();
  {
    MutexLock lock(mutex_);
    slots_.erase(ticket);
    --stats_.submitted;
    if (!blocking && !closed) ++stats_.rejected;
  }
  result_cv_.notify_all();  // a drain() may be waiting on this last ticket
  GQA_EXPECTS_MSG(!closed, "server shut down while submitting");
  return std::nullopt;
}

Server::Ticket Server::submit(int model_id, tfm::Tensor image) {
  return submit(model_id, std::move(image), SubmitOptions{}, nullptr);
}

Server::Ticket Server::submit(int model_id, tfm::Tensor image,
                              Callback callback) {
  return submit(model_id, std::move(image), SubmitOptions{},
                std::move(callback));
}

Server::Ticket Server::submit(int model_id, tfm::Tensor image,
                              SubmitOptions options) {
  return submit(model_id, std::move(image), options, nullptr);
}

Server::Ticket Server::submit(int model_id, tfm::Tensor image,
                              SubmitOptions options, Callback callback) {
  const std::optional<Ticket> ticket =
      admit(model_id, std::move(image), /*blocking=*/true, options,
            std::move(callback));
  GQA_ASSERT(ticket.has_value());  // blocking admit throws instead of refusing
  return *ticket;
}

std::optional<Server::Ticket> Server::try_submit(int model_id,
                                                 tfm::Tensor image) {
  return try_submit(model_id, std::move(image), SubmitOptions{}, nullptr);
}

std::optional<Server::Ticket> Server::try_submit(int model_id,
                                                 tfm::Tensor image,
                                                 Callback callback) {
  return try_submit(model_id, std::move(image), SubmitOptions{},
                    std::move(callback));
}

std::optional<Server::Ticket> Server::try_submit(int model_id,
                                                 tfm::Tensor image,
                                                 SubmitOptions options) {
  return try_submit(model_id, std::move(image), options, nullptr);
}

std::optional<Server::Ticket> Server::try_submit(int model_id,
                                                 tfm::Tensor image,
                                                 SubmitOptions options,
                                                 Callback callback) {
  return admit(model_id, std::move(image), /*blocking=*/false, options,
               std::move(callback));
}

Server::StreamSession Server::open_stream(int model_id, StreamOptions options,
                                          Callback callback) {
  GQA_EXPECTS_MSG(callback != nullptr,
                  "open_stream needs a callback: stream results are only "
                  "delivered through it, in frame order");
  GQA_EXPECTS_MSG(options.frame_interval.count() >= 0,
                  "StreamOptions::frame_interval must be >= 0");
  GQA_EXPECTS_MSG(options.deadline.count() >= 0,
                  "StreamOptions::deadline must be >= 0 (0 = frame_interval)");
  GQA_EXPECTS_MSG(options.max_attempts >= 1,
                  "StreamOptions::max_attempts must be >= 1");
  GQA_EXPECTS_MSG(options.backoff.count() >= 0,
                  "StreamOptions::backoff must be >= 0");
  if (options.ring_capacity == 0) {
    const std::int64_t capacity = env_int("GQA_STREAM_RING_CAPACITY", 8);
    GQA_EXPECTS_MSG(capacity >= 1, "GQA_STREAM_RING_CAPACITY must be >= 1");
    options.ring_capacity = static_cast<std::size_t>(capacity);
  }
  MutexLock lock(mutex_);
  GQA_EXPECTS_MSG(!stopping_, "open_stream on a shut-down server");
  GQA_EXPECTS_MSG(model_id >= 0 && model_id < static_cast<int>(models_.size()),
                  "open_stream for an unregistered model_id");
  const StreamId id = next_stream_id_++;
  Stream stream;
  stream.id = id;
  stream.model_id = model_id;
  stream.options = options;
  stream.callback = std::move(callback);
  stream.ring = std::make_unique<RingBuffer<Request>>(options.ring_capacity);
  streams_.emplace(id, std::move(stream));
  model_streams_[static_cast<std::size_t>(model_id)].push_back(id);
  ++stats_.streams_open;
  return StreamSession(this, id);
}

std::optional<Server::Ticket> Server::push_frame(StreamId stream_id,
                                                 tfm::Tensor frame) {
  std::optional<Ticket> ticket;
  {
    MutexLock lock(mutex_);
    if (stopping_) return std::nullopt;
    const auto sit = streams_.find(stream_id);
    if (sit == streams_.end()) return std::nullopt;
    Stream& s = sit->second;
    if (s.closing) return std::nullopt;
    Request request;
    request.ticket = next_ticket_++;
    request.model_id = s.model_id;
    request.image = std::move(frame);
    request.stream_id = stream_id;
    request.frame_index = s.next_frame++;
    std::chrono::milliseconds budget = s.options.deadline;
    if (budget.count() == 0) budget = s.options.frame_interval;
    if (budget.count() > 0) request.expires_at = Clock::now() + budget;
    request.max_attempts = s.options.max_attempts;
    request.backoff = s.options.backoff;
    Slot slot;
    slot.callback = s.callback;
    slots_.emplace(request.ticket, std::move(slot));
    ++stats_.submitted;
    ticket = request.ticket;
    // Records parked here (an injected drop or a ring displacement) are
    // delivered by a service lane, never on this producer thread — the
    // pump list below only exists to satisfy resolve_frame_locked; the
    // span kick plus the cv notify guarantee a lane comes around.
    std::vector<StreamId> pump;
    if (fault::triggered(fault::Point::kStreamAdmission)) {
      // Unlike the submit-path admission fault (refused before a ticket
      // exists), a frame fault resolves through the stream's in-order
      // delivery path: the ticket is issued and the ledger sees the frame
      // exactly once.
      ++stats_.faults_injected;
      ++stats_.frames_dropped;
      resolve_frame_locked(s, std::move(request), frame_admission_error(),
                           pump);
    } else {
      RingBuffer<Request>::PushResult pushed = s.ring->push(std::move(request));
      GQA_ASSERT(pushed.accepted);  // server-side rings are never closed
      if (pushed.displaced.has_value()) {
        // Displacement is the capacity-overflow drop, whatever the policy;
        // only the stat it lands in differs.
        if (s.options.drop_policy == DropPolicy::kCoalesce) {
          ++stats_.frames_coalesced;
        } else {
          ++stats_.frames_dropped;
        }
        resolve_frame_locked(s, std::move(*pushed.displaced),
                             superseded_error(), pump);
      } else {
        ++stream_backlog_total_;
      }
    }
    ensure_span_locked();
  }
  // The state change happened under mutex_, so a bare notify pairs with
  // the lanes' in-lock wait check (same reasoning as admit()).
  sched_cv_.notify_one();
  return ticket;
}

void Server::close_stream(StreamId stream_id) {
  {
    MutexLock lock(mutex_);
    const auto sit = streams_.find(stream_id);
    if (sit == streams_.end()) return;  // already closed and reaped
    Stream& s = sit->second;
    if (!s.closing) {
      s.closing = true;
      if (s.options.drain_policy == DrainPolicy::kCancelPending) {
        // Cancel the pending ring now; the parked cancellations are
        // delivered (in frame order) by a lane, never on this thread.
        std::vector<StreamId> pump;
        sweep_stream_locked(s, Clock::now(), pump);
      }
      ensure_span_locked();
    }
    maybe_reap_stream_locked(stream_id);  // already fully delivered? done.
  }
  sched_cv_.notify_all();  // lanes re-check: drain, pump, and reap the stream
  MutexLock lock(mutex_);
  while (streams_.find(stream_id) != streams_.end()) {
    result_cv_.wait(lock.native());
  }
}

TicketStatus Server::poll(Ticket ticket) const {
  MutexLock lock(mutex_);
  GQA_EXPECTS_MSG(ticket < next_ticket_, "poll on a never-issued ticket");
  const auto it = slots_.find(ticket);
  if (it == slots_.end()) return TicketStatus::kConsumed;
  if (!it->second.ready()) return TicketStatus::kPending;
  if (it->second.error != nullptr &&
      it->second.code == ServingErrorCode::kDeadlineExpired) {
    return TicketStatus::kDeadlineExpired;
  }
  return TicketStatus::kReady;
}

tfm::QTensor Server::wait(Ticket ticket) {
  MutexLock lock(mutex_);
  const auto it = slots_.find(ticket);
  GQA_EXPECTS_MSG(it != slots_.end(),
                  "wait on a consumed or never-issued ticket");
  // Element references survive rehashing (other submits may insert while we
  // wait), so the slot reference stays valid until this wait erases it.
  // Claiming makes a concurrent second wait on the same ticket fail fast
  // instead of racing this one's erase.
  Slot& slot = it->second;
  GQA_EXPECTS_MSG(slot.callback == nullptr,
                  "wait on a callback ticket (its result is delivered to "
                  "the submit-time callback)");
  GQA_EXPECTS_MSG(!slot.claimed, "second wait on a ticket already waited on");
  slot.claimed = true;
  while (!slot.ready()) result_cv_.wait(lock.native());
  if (slot.error != nullptr) {
    const std::exception_ptr error = slot.error;
    slots_.erase(ticket);
    std::rethrow_exception(error);
  }
  tfm::QTensor result = std::move(*slot.result);
  slots_.erase(ticket);
  return result;
}

void Server::drain() {
  MutexLock lock(mutex_);
  while (stats_.completed != stats_.submitted) result_cv_.wait(lock.native());
}

void Server::shutdown() {
  // Concurrent shutdown() callers (including the destructor racing an
  // explicit call) serialize here; the loser sees a joined dispatcher and
  // returns — the call is idempotent (tests/server_test.cpp hammers this).
  MutexLock serialize(shutdown_mutex_);
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  queue_.close();  // wakes blocked submitters (they fail) and the dispatcher
  sched_cv_.notify_all();  // parked lanes re-check stop + drain policy
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher's final drain served or cancelled (and delivered) every
  // stream frame on its lanes, so no callback can run after this point;
  // what remains is reaping the now-empty streams so close_stream()
  // waiters unblock and Stats::streams_open reads 0.
  {
    MutexLock lock(mutex_);
    std::vector<StreamId> open;
    open.reserve(streams_.size());
    for (const auto& entry : streams_) open.push_back(entry.first);
    for (const StreamId id : open) maybe_reap_stream_locked(id);
    GQA_ASSERT(streams_.empty());  // every stream was drained before join
  }
}

std::size_t Server::model_count() const {
  MutexLock lock(mutex_);
  return models_.size();
}

Server::Stats Server::stats() const {
  MutexLock lock(mutex_);
  Stats out = stats_;
  out.kernel_backend = kernel::active().name;
  return out;
}

void Server::dispatch_loop() {
  for (;;) {
    // Parks only while the server is idle: any admitted request (or a
    // push_frame kick) opens the next continuous service span. nullopt is
    // the closed-and-drained signal, so shutdown() always sees every
    // admitted request resolved before join() returns.
    std::optional<Request> first = queue_.pop();
    if (!first.has_value()) break;
    {
      MutexLock lock(mutex_);
      if (!first->kick) {
        backlog_[static_cast<std::size_t>(first->model_id)].push_back(
            std::move(*first));
        ++backlog_total_;
      }
      span_active_ = true;
      ++stats_.spans;
    }
    run_service();
    // Stream work can land while a span winds down (push_frame skips the
    // kick whenever span_active_ was still true): re-open immediately
    // instead of parking on the queue with frames or parked deliveries
    // pending. The clear-then-check runs in one critical section, so a
    // concurrent push either sees span_active_ == false and kicks, or its
    // work is visible to this check — no frame ever strands.
    for (;;) {
      {
        MutexLock lock(mutex_);
        span_active_ = false;
        if (backlog_total_ == 0 && !stream_work_pending_locked()) break;
        span_active_ = true;
        ++stats_.spans;
      }
      run_service();
    }
  }
  // Closed-and-drained only covers the admission queue: stream frames
  // never pass through it. Serve or cancel whatever the rings still hold
  // (stopping_ is set, so lanes apply each stream's drain policy) and
  // deliver every parked record before shutdown() may observe the join.
  for (;;) {
    {
      MutexLock lock(mutex_);
      if (backlog_total_ == 0 && !stream_work_pending_locked()) break;
    }
    run_service();
  }
}

void Server::run_service() {
  // One continuous span: every lane loops in service_lane() until the
  // backlog runs momentarily dry, then the pool is released (so engines
  // sharing global_pool() interleave at idle gaps). The dispatcher is the
  // caller lane, so a 1-lane server serves inline with zero dispatch cost.
  pool_->run_lanes([this](std::size_t) { service_lane(); });
}

void Server::service_lane() {
  // The lane's scratch is leased once per span, not per request, and its
  // buffers persist across spans through the workspace pool; lanes that
  // never get a request never touch it. (tfm::WorkspaceLease is what the
  // eval layer names LaneLease in engine.h.)
  std::optional<tfm::WorkspaceLease> lease;
  for (;;) {
    std::optional<Request> request;
    const ForwardFn* forward = nullptr;
    std::vector<Resolution> resolved;
    std::vector<StreamId> pump;
    bool span_over = false;
    {
      MutexLock lock(mutex_);
      for (;;) {
        request = next_request_locked(resolved, pump);
        if (request.has_value() || !resolved.empty() || !pump.empty()) break;
        if (inflight_ == 0) {
          // Nothing queued and nothing running anywhere: the span is over
          // for every lane (each observes this same state before leaving).
          span_over = true;
          break;
        }
        // Peers still hold in-flight requests, so the span — and the
        // pool's dispatch slot — stays occupied regardless of what this
        // lane does. Parking here instead of returning keeps the lane
        // available: a request admitted while a peer is mid-forward starts
        // on this lane immediately rather than waiting for the busy one.
        // Woken by admissions, completions, and shutdown. (A backlog held
        // back only by half-open breaker probes parks here too, woken by
        // the probe's completion.)
        sched_cv_.wait(lock.native());
      }
      if (request.has_value()) {
        forward =
            &models_[static_cast<std::size_t>(request->model_id)].forward;
      }
    }
    if (!resolved.empty()) {
      result_cv_.notify_all();  // waiter slots were resolved under the lock
      std::uint64_t delivered = 0;
      for (Resolution& r : resolved) {
        if (r.callback == nullptr) continue;
        deliver_callback(std::move(r.callback), r.ticket, tfm::QTensor{},
                         r.error);
        ++delivered;
      }
      if (delivered > 0) {
        {
          MutexLock lock(mutex_);
          stats_.completed += delivered;
        }
        result_cv_.notify_all();
      }
    }
    // Stream deliveries always run on a lane (so dispatcher join implies
    // every callback has returned); duplicates across lanes are resolved
    // by the per-stream delivery baton inside.
    for (const StreamId id : pump) pump_stream_deliveries(id);
    if (span_over) return;
    if (!request.has_value()) continue;  // re-evaluate the span state
    if (!lease.has_value()) lease.emplace(workspaces_);
    Slot filled = serve_request(*request, *forward, lease->workspace());
    complete(*request, std::move(filled));
  }
}

Server::Slot Server::serve_request(const Request& request,
                                   const ForwardFn& forward,
                                   tfm::Workspace* workspace) {
  Slot filled;
  for (int attempt = 1;; ++attempt) {
    if (attempt > 1) {
      // Between attempts the deadline is live again: an expired request
      // never re-runs. The backoff sleep doubles per retry and is clipped
      // to the remaining budget, so a retrying lane never oversleeps its
      // own deadline.
      Clock::time_point now = Clock::now();
      if (now >= request.expires_at) {
        filled.result.reset();
        filled.error = deadline_error();
        filled.code = ServingErrorCode::kDeadlineExpired;
        MutexLock lock(mutex_);
        ++stats_.deadline_expired;
        return filled;
      }
      // Shift clamp: past 2^20 doublings the deadline clip below is what
      // bounds the sleep anyway, and the shift must not overflow.
      std::chrono::nanoseconds delay =
          request.backoff * (std::int64_t{1} << std::min(attempt - 2, 20));
      if (request.expires_at != Clock::time_point::max()) {
        delay = std::min<std::chrono::nanoseconds>(delay,
                                                   request.expires_at - now);
      }
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
      if (Clock::now() >= request.expires_at) {
        filled.result.reset();
        filled.error = deadline_error();
        filled.code = ServingErrorCode::kDeadlineExpired;
        MutexLock lock(mutex_);
        ++stats_.deadline_expired;
        return filled;
      }
      MutexLock lock(mutex_);
      ++stats_.retries;
    }
    try {
      // The scheduler-lane and backend-forward chaos points fire before
      // and inside the service attempt; both throw kBackendTransient, so
      // a request with retry budget rides through them.
      if (fault::triggered(fault::Point::kScheduler)) {
        count_injected_fault();
        fault::throw_injected(fault::Point::kScheduler);
      }
      if (fault::triggered(fault::Point::kBackend)) {
        count_injected_fault();
        fault::throw_injected(fault::Point::kBackend);
      }
      // The serial deployment forward with zero-filled workspace acquires:
      // bit-identical to a serial per-image loop (and to itself across
      // retries).
      filled.result = forward(request.image, workspace);
      filled.error = nullptr;
      return filled;
    } catch (...) {
      filled.result.reset();
      filled.error = std::current_exception();
      filled.code = serving_error_code(filled.error);
    }
    if (filled.code != ServingErrorCode::kBackendTransient ||
        attempt >= request.max_attempts) {
      return filled;  // non-retryable class or retry budget exhausted
    }
  }
}

std::optional<Server::Request> Server::next_request_locked(
    std::vector<Resolution>& resolved, std::vector<StreamId>& pump) {
  // Refill first: pulling straight from the admission queue on every pick
  // is what makes the batching continuous — a request admitted while lanes
  // are busy starts on the first lane that frees, and draining here is
  // what releases submitters blocked on a full queue.
  for (Request& r : queue_.try_pop_all()) {
    if (r.kick) continue;  // dispatcher wake-ups carry no payload
    backlog_[static_cast<std::size_t>(r.model_id)].push_back(std::move(r));
    ++backlog_total_;
  }
  if (stopping_ &&
      options_.scheduler.drain_policy == DrainPolicy::kCancelPending) {
    cancel_backlog_locked(resolved);
  }
  const std::size_t model_count = models_.size();
  const Clock::time_point now = Clock::now();
  // Stream sweep before the pick: drop policies (and close/shutdown
  // drains) are applied promptly on every pull, and any stream whose next
  // in-order delivery is already parked is queued for this lane to pump
  // post-unlock.
  for (auto& entry : streams_) {
    sweep_stream_locked(entry.second, now, pump);
    maybe_queue_pump_locked(entry.second, pump);
  }
  if (backlog_total_ > 0 || stream_backlog_total_ > 0) {
    // Robustness sweep before the pick: deadline expiry and breaker
    // shedding are prompt (checked on every pull), not gated on the WRR
    // position reaching the model. Removal from the backlog IS the
    // exactly-once expiry — an entry either leaves here (resolved, never
    // started) or leaves through a dispatch, never both.
    for (std::size_t m = 0; m < model_count; ++m) {
      std::deque<Request>& per_model = backlog_[m];
      for (auto it = per_model.begin(); it != per_model.end();) {
        if (it->expires_at <= now) {
          resolve_unstarted_locked(*it, ServingErrorCode::kDeadlineExpired,
                                   deadline_error(), resolved);
          ++stats_.deadline_expired;
          it = per_model.erase(it);
          --backlog_total_;
        } else {
          ++it;
        }
      }
      (void)breaker_admits_locked(m, now, resolved, pump);  // shed/half-open
    }
  }
  if (backlog_total_ == 0 && stream_backlog_total_ == 0) return std::nullopt;
  const std::size_t cap =
      options_.scheduler.max_inflight > 0
          ? static_cast<std::size_t>(options_.scheduler.max_inflight)
          : static_cast<std::size_t>(pool_->size());
  if (inflight_ >= cap) return std::nullopt;

  // Weighted round-robin: the cursor model keeps the dispatch position
  // while it has work and cycle credit (so weight w yields bursts of up
  // to w consecutive starts), then the position moves to the next eligible
  // model. When every backlogged model has exhausted its credit the cycle
  // resets and the cursor rotates, so no model is always first. Models
  // with no work are skipped (work-conserving) — their unused credit
  // never stalls the cycle. A model's live streams count as extra backlog
  // sources (take_from_model_locked rotates across them).
  GQA_ASSERT(model_count > 0);  // requests only exist for registered models
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < model_count; ++k) {
      const std::size_t m =
          (static_cast<std::size_t>(wrr_cursor_) + k) % model_count;
      if (credits_[m] == 0 || !model_work_locked(m)) continue;
      if (!breaker_admits_locked(m, now, resolved, pump)) continue;
      std::optional<Request> request = take_from_model_locked(m, now, pump);
      // A pick can dissolve at take time (every pending frame of the
      // model's streams dropped under its policy): no dispatch, no credit.
      if (!request.has_value()) continue;
      --credits_[m];
      wrr_cursor_ = static_cast<int>(m);
      ++inflight_;
      ++stats_.started_per_model[m];
      Breaker& breaker = breakers_[m];
      if (breaker.state == Breaker::State::kHalfOpen) {
        breaker.probe_inflight = true;
        request->probe = true;
      }
      return request;
    }
    // Every backlogged model exhausted its cycle credit: start a new cycle.
    for (std::size_t m = 0; m < model_count; ++m) credits_[m] = weight_of(m);
    wrr_cursor_ = (wrr_cursor_ + 1) % static_cast<int>(model_count);
  }
  // Backlogged but nothing dispatchable: every backlogged model is holding
  // for its half-open probe (or its streams are all busy). The lane parks;
  // a completion wakes it (and either the closed breaker dispatches or the
  // re-opened one sheds on the next pull).
  return std::nullopt;
}

bool Server::model_work_locked(std::size_t m) {
  if (!backlog_[m].empty()) return true;
  for (const StreamId id : model_streams_[m]) {
    const Stream& s = streams_.at(id);
    if (!s.busy && s.ring->size() > 0) return true;
  }
  return false;
}

std::optional<Server::Request> Server::take_from_model_locked(
    std::size_t m, Clock::time_point now, std::vector<StreamId>& pump) {
  // Sources rotate from the per-model cursor: position 0 is the admission
  // backlog, 1..n the model's live streams — so a chatty stream cannot
  // monopolize the model's WRR credits against its batch requests (or its
  // sibling streams).
  std::vector<StreamId>& ids = model_streams_[m];
  const std::size_t sources = 1 + ids.size();
  for (std::size_t k = 0; k < sources; ++k) {
    const std::size_t pos = (source_cursor_[m] + k) % sources;
    if (pos == 0) {
      if (backlog_[m].empty()) continue;
      source_cursor_[m] = (pos + 1) % sources;
      Request request = std::move(backlog_[m].front());
      backlog_[m].pop_front();
      --backlog_total_;
      return request;
    }
    Stream& s = streams_.at(ids[pos - 1]);
    if (s.busy) continue;  // one frame of a stream in flight at a time
    std::optional<Request> frame = take_stream_frame_locked(s, now, pump);
    if (!frame.has_value()) continue;
    source_cursor_[m] = (pos + 1) % sources;
    s.busy = true;
    if (frame->expires_at <= now) {
      // Started past its deadline: kDropOldest/kCoalesce serve late frames
      // instead of killing them — a miss, not an expiry. (kDropLate never
      // reaches here expired: take_stream_frame_locked popped those.)
      ++stats_.deadline_misses;
    }
    return frame;
  }
  return std::nullopt;
}

std::optional<Server::Request> Server::take_stream_frame_locked(
    Stream& stream, Clock::time_point now, std::vector<StreamId>& pump) {
  switch (stream.options.drop_policy) {
    case DropPolicy::kDropLate:
      // Expire stale fronts on the way to the first live frame — the
      // pick-time arm of the exactly-once expiry (the sweep is the other).
      for (;;) {
        std::optional<Request> frame = stream.ring->try_pop();
        if (!frame.has_value()) return std::nullopt;
        --stream_backlog_total_;
        if (frame->expires_at <= now) {
          ++stats_.deadline_expired;
          ++stats_.deadline_misses;
          resolve_frame_locked(stream, std::move(*frame), deadline_error(),
                               pump);
          continue;
        }
        return frame;
      }
    case DropPolicy::kCoalesce:
      // Newest wins: everything older than the newest pending frame is
      // superseded at the moment a lane could have started it.
      for (Request& stale : stream.ring->pop_all_but(1)) {
        --stream_backlog_total_;
        ++stats_.frames_coalesced;
        resolve_frame_locked(stream, std::move(stale), superseded_error(),
                             pump);
      }
      [[fallthrough]];
    case DropPolicy::kDropOldest: {
      std::optional<Request> frame = stream.ring->try_pop();
      if (frame.has_value()) --stream_backlog_total_;
      return frame;
    }
  }
  GQA_ASSERT(false);  // unreachable: all policies handled above
  return std::nullopt;
}

void Server::sweep_stream_locked(Stream& stream, Clock::time_point now,
                                 std::vector<StreamId>& pump) {
  if ((stream.closing || stopping_) &&
      stream.options.drain_policy == DrainPolicy::kCancelPending) {
    for (Request& frame : stream.ring->try_pop_all()) {
      --stream_backlog_total_;
      resolve_frame_locked(stream, std::move(frame), stream_cancel_error(),
                           pump);
    }
    return;
  }
  switch (stream.options.drop_policy) {
    case DropPolicy::kDropLate: {
      while (std::optional<Request> frame = stream.ring->try_pop_if(
                 [now](const Request& r) { return r.expires_at <= now; })) {
        --stream_backlog_total_;
        ++stats_.deadline_expired;
        ++stats_.deadline_misses;
        resolve_frame_locked(stream, std::move(*frame), deadline_error(),
                             pump);
      }
      break;
    }
    case DropPolicy::kCoalesce: {
      for (Request& stale : stream.ring->pop_all_but(1)) {
        --stream_backlog_total_;
        ++stats_.frames_coalesced;
        resolve_frame_locked(stream, std::move(stale), superseded_error(),
                             pump);
      }
      break;
    }
    case DropPolicy::kDropOldest:
      break;  // its drops happen at push time (ring displacement)
  }
}

void Server::resolve_frame_locked(Stream& stream, Request frame,
                                  std::exception_ptr error,
                                  std::vector<StreamId>& pump) {
  const auto it = slots_.find(frame.ticket);
  GQA_ASSERT(it != slots_.end());  // only delivery erases slots
  FrameDelivery record;
  record.ticket = frame.ticket;
  record.callback = std::move(it->second.callback);
  record.error = std::move(error);
  slots_.erase(it);
  stream.parked.emplace(frame.frame_index, std::move(record));
  maybe_queue_pump_locked(stream, pump);
}

void Server::maybe_queue_pump_locked(Stream& stream,
                                     std::vector<StreamId>& pump) {
  if (stream.delivering) return;
  if (stream.parked.empty() ||
      stream.parked.begin()->first != stream.next_delivery) {
    return;
  }
  if (!pump.empty() && pump.back() == stream.id) return;  // cheap dedup
  pump.push_back(stream.id);
}

void Server::pump_stream_deliveries(StreamId id) {
  {
    MutexLock lock(mutex_);
    const auto sit = streams_.find(id);
    if (sit == streams_.end()) return;
    Stream& s = sit->second;
    if (s.delivering) return;  // another lane holds the delivery baton
    if (s.parked.empty() || s.parked.begin()->first != s.next_delivery) {
      maybe_reap_stream_locked(id);
      return;
    }
    s.delivering = true;
  }
  for (;;) {
    std::vector<FrameDelivery> batch;
    {
      MutexLock lock(mutex_);
      // delivering == true pins the stream (reap requires the baton free),
      // so the reference is safe across this loop's lock round-trips.
      Stream& s = streams_.at(id);
      while (!s.parked.empty() &&
             s.parked.begin()->first == s.next_delivery) {
        batch.push_back(std::move(s.parked.begin()->second));
        s.parked.erase(s.parked.begin());
        ++s.next_delivery;
      }
      if (batch.empty()) {
        s.delivering = false;
        maybe_reap_stream_locked(id);
        break;
      }
    }
    for (FrameDelivery& d : batch) {
      deliver_callback(std::move(d.callback), d.ticket,
                       d.result.has_value() ? std::move(*d.result)
                                            : tfm::QTensor{},
                       d.error);
    }
    // Like the submit callback path: frames count completed only after
    // their callback returned, so drain()/close()/shutdown() returning
    // guarantees every delivery has happened.
    {
      MutexLock lock(mutex_);
      stats_.completed += batch.size();
    }
    result_cv_.notify_all();
  }
}

void Server::maybe_reap_stream_locked(StreamId id) {
  const auto sit = streams_.find(id);
  if (sit == streams_.end()) return;
  Stream& s = sit->second;
  if (!s.closing && !stopping_) return;
  if (s.busy || s.delivering) return;
  // Every pushed frame delivered (the invariant makes this one check
  // cover the ring, the lane, and the parked map).
  if (s.next_delivery != s.next_frame) return;
  std::vector<StreamId>& ids =
      model_streams_[static_cast<std::size_t>(s.model_id)];
  ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
  streams_.erase(sit);
  GQA_ASSERT(stats_.streams_open > 0);
  --stats_.streams_open;
  result_cv_.notify_all();  // close_stream() blocks on this reap
}

bool Server::stream_work_pending_locked() {
  if (stream_backlog_total_ > 0) return true;
  for (const auto& entry : streams_) {
    if (!entry.second.parked.empty()) return true;
  }
  return false;
}

void Server::ensure_span_locked() {
  if (span_active_ || stopping_) return;
  Request kick;
  kick.kick = true;
  // A failed push is fine either way: full means the dispatcher has work
  // to pop (a span is coming anyway), closed means shutdown (the
  // dispatcher's final drain covers the rings).
  (void)queue_.try_push(std::move(kick));
}

bool Server::breaker_admits_locked(std::size_t m, Clock::time_point now,
                                   std::vector<Resolution>& resolved,
                                   std::vector<StreamId>& pump) {
  if (breaker_threshold() <= 0) return true;  // breaker disabled
  Breaker& breaker = breakers_[m];
  switch (breaker.state) {
    case Breaker::State::kClosed:
      return true;
    case Breaker::State::kHalfOpen:
      // Exactly one probe at a time; the rest of the backlog holds (it is
      // not shed — the probe's success would serve it).
      return !breaker.probe_inflight;
    case Breaker::State::kOpen:
      if (now - breaker.opened_at >= options_.scheduler.breaker_cooldown) {
        breaker.state = Breaker::State::kHalfOpen;
        breaker.probe_inflight = false;
        return true;
      }
      // Fail fast: shed the whole backlog so one poisoned model degrades
      // alone instead of parking requests (and starving co-served models'
      // admission queue share) for the cooldown.
      for (const Request& request : backlog_[m]) {
        resolve_unstarted_locked(request, ServingErrorCode::kModelUnavailable,
                                 unavailable_error(models_[m].name), resolved);
      }
      backlog_total_ -= backlog_[m].size();
      backlog_[m].clear();
      // Stream rings shed the same way (held frames would otherwise pin
      // the span open for the whole cooldown); the drops flow through the
      // in-order delivery path like any other.
      for (const StreamId id : model_streams_[m]) {
        Stream& s = streams_.at(id);
        for (Request& frame : s.ring->try_pop_all()) {
          --stream_backlog_total_;
          resolve_frame_locked(s, std::move(frame),
                               unavailable_error(models_[m].name), pump);
        }
      }
      return false;
  }
  GQA_ASSERT(false);  // unreachable: all states handled above
  return false;
}

void Server::cancel_backlog_locked(std::vector<Resolution>& resolved) {
  for (std::deque<Request>& per_model : backlog_) {
    for (const Request& request : per_model) {
      resolve_unstarted_locked(request, ServingErrorCode::kCancelled,
                               cancellation_error(), resolved);
    }
    per_model.clear();
  }
  backlog_total_ = 0;
}

void Server::resolve_unstarted_locked(const Request& request,
                                      ServingErrorCode code,
                                      std::exception_ptr error,
                                      std::vector<Resolution>& resolved) {
  const auto it = slots_.find(request.ticket);
  GQA_ASSERT(it != slots_.end());  // only delivery erases slots
  if (it->second.callback != nullptr) {
    // Counted as resolved by the caller only after the error callback has
    // run (outside the lock), so drain() covers the delivery.
    resolved.push_back({request.ticket, std::move(it->second.callback), error});
    slots_.erase(it);
  } else {
    it->second.error = error;
    it->second.code = code;
    ++stats_.completed;
    resolved.push_back({request.ticket, nullptr, nullptr});
  }
}

void Server::record_outcome_locked(const Request& request,
                                   const Slot& filled) {
  if (breaker_threshold() <= 0) return;
  Breaker& breaker = breakers_[static_cast<std::size_t>(request.model_id)];
  if (request.probe) breaker.probe_inflight = false;
  if (filled.error == nullptr) {
    breaker.consecutive_failures = 0;
    if (request.probe && breaker.state == Breaker::State::kHalfOpen) {
      breaker.state = Breaker::State::kClosed;  // the probe recovered it
    }
    return;
  }
  // Only backend failures speak for the model's health: expiries and
  // cancellations say nothing about the backend, so they neither extend
  // nor reset the streak.
  if (filled.code != ServingErrorCode::kBackendTransient &&
      filled.code != ServingErrorCode::kBackendFailed) {
    return;
  }
  if (request.probe && breaker.state == Breaker::State::kHalfOpen) {
    // Failed probe: re-open for another cooldown (a fresh trip).
    breaker.state = Breaker::State::kOpen;
    breaker.opened_at = Clock::now();
    ++stats_.breaker_trips;
    return;
  }
  if (breaker.state != Breaker::State::kClosed) return;  // late straggler
  if (++breaker.consecutive_failures >= breaker_threshold()) {
    breaker.state = Breaker::State::kOpen;
    breaker.opened_at = Clock::now();
    ++stats_.breaker_trips;
  }
}

void Server::complete(const Request& request, Slot&& filled) {
  if (request.stream_id != 0) {
    complete_stream_frame(request, std::move(filled));
    return;
  }
  Callback callback;
  tfm::QTensor result;
  const std::exception_ptr error = filled.error;
  {
    MutexLock lock(mutex_);
    record_outcome_locked(request, filled);
    const auto it = slots_.find(request.ticket);
    GQA_ASSERT(it != slots_.end());  // only delivery erases slots
    if (it->second.callback != nullptr) {
      // Callback delivery consumes the ticket; the result never parks in
      // the slot table. Resolution is counted AFTER the callback runs
      // (below, outside this lock), so the accounting splits in two.
      callback = std::move(it->second.callback);
      if (filled.result.has_value()) result = std::move(*filled.result);
      slots_.erase(it);
    } else {
      // Fill in place (a waiter may already have claimed the slot) and
      // resolve in the same critical section — the common path takes the
      // lock once per completion.
      it->second.result = std::move(filled.result);
      it->second.error = error;
      it->second.code = filled.code;
      --inflight_;
      ++stats_.completed;
    }
  }
  if (callback != nullptr) {
    // The callback runs BEFORE the request counts as resolved (and while
    // it still occupies the lane's inflight slot), so drain()/shutdown()
    // returning guarantees every callback has finished — a client may
    // free the callback's captures right after drain().
    deliver_callback(std::move(callback), request.ticket, std::move(result),
                     error);
    MutexLock lock(mutex_);
    --inflight_;
    ++stats_.completed;
  }
  result_cv_.notify_all();
  sched_cv_.notify_all();  // parked lanes re-check the cap and span state
}

void Server::complete_stream_frame(const Request& request, Slot&& filled) {
  {
    MutexLock lock(mutex_);
    record_outcome_locked(request, filled);
    if (filled.error != nullptr &&
        filled.code == ServingErrorCode::kDeadlineExpired) {
      // Mid-retry expiry on a lane (serve_request already counted
      // deadline_expired): a frame missing its deadline is a miss
      // wherever it dies.
      ++stats_.deadline_misses;
    }
    const auto sit = streams_.find(request.stream_id);
    GQA_ASSERT(sit != streams_.end());  // busy streams are never reaped
    Stream& s = sit->second;
    s.busy = false;
    const auto it = slots_.find(request.ticket);
    GQA_ASSERT(it != slots_.end());  // only delivery erases slots
    FrameDelivery record;
    record.ticket = request.ticket;
    record.callback = std::move(it->second.callback);
    record.error = filled.error;
    if (filled.error == nullptr) record.result = std::move(filled.result);
    slots_.erase(it);
    s.parked.emplace(request.frame_index, std::move(record));
    --inflight_;
  }
  // This lane tries to take the delivery baton right away (the common
  // case: the completed frame IS the next delivery); if an earlier frame
  // is still in flight the record waits parked and that frame's
  // completion delivers both.
  pump_stream_deliveries(request.stream_id);
  result_cv_.notify_all();
  sched_cv_.notify_all();  // the stream is idle again; lanes re-check
}

void Server::deliver_callback(Callback callback, Ticket ticket,
                              tfm::QTensor result, std::exception_ptr error) {
  if (callback == nullptr) return;
  try {
    callback(ticket, std::move(result), error);
  } catch (...) {
    // The contract says callbacks must not throw; there is nowhere left to
    // deliver an escaping exception (the ticket is consumed), so count it
    // instead of killing the service lane.
    MutexLock lock(mutex_);
    ++stats_.callback_errors;
  }
}

}  // namespace gqa
