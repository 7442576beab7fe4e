#include "serving.h"

#include <algorithm>
#include <condition_variable>
#include <thread>

#include "eval/scene.h"
#include "util/artifact_store.h"
#include "util/serving_error.h"

namespace perfbench {

using gqa::Server;
using gqa::tfm::QTensor;
using gqa::tfm::Tensor;

const char* model_name(Model model) {
  return model == Model::kSegformer ? "segformer" : "efficientvit";
}

const std::vector<StreamSpec>& camera_streams() {
  static const std::vector<StreamSpec> streams = {
      {Model::kSegformer, 5.0},
      {Model::kEfficientVit, 15.0},
      {Model::kEfficientVit, 15.0},
  };
  return streams;
}

std::set<gqa::Op> replaced_ops(const std::vector<Model>& models) {
  std::set<gqa::Op> ops;
  for (Model m : models) {
    if (m == Model::kSegformer) {
      ops.insert({gqa::Op::kExp, gqa::Op::kGelu, gqa::Op::kDiv,
                  gqa::Op::kRsqrt});
    } else {
      ops.insert({gqa::Op::kHswish, gqa::Op::kDiv});
    }
  }
  return ops;
}

std::size_t RequestBook::open(Model model, int image_index,
                              const Tensor& image, Clock::time_point due) {
  const std::size_t id = next_.fetch_add(1);
  GQA_EXPECTS_MSG(id < records_.size(), "request book overflow");
  RequestRecord& r = records_[id];
  r.due = due;
  r.model = model;
  r.image = image_index;
  if (trace_) {
    std::lock_guard<std::mutex> lock(mutex_);
    by_buffer_[image.data().data()] = id;
  }
  return id;
}

std::int64_t RequestBook::claim(const Tensor& image) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_buffer_.find(image.data().data());
  if (it == by_buffer_.end()) return -1;
  const auto id = static_cast<std::int64_t>(it->second);
  by_buffer_.erase(it);
  return id;
}

QTensor ServingStack::forward(Model model, const Tensor& image) const {
  return model == Model::kSegformer
             ? segformer->forward_int(image, *provider)
             : efficientvit->forward_int(image, *provider);
}

namespace {

/// The forward every serving workload registers: the model's serial
/// integer forward, timed into the request book on traced runs.
template <typename ModelT>
Server::ForwardFn wrapped_forward(const ModelT& model,
                                  const gqa::tfm::NonlinearProvider& nl,
                                  RequestBook* book) {
  return [&model, &nl, book](const Tensor& image, gqa::tfm::Workspace* ws) {
    if (!book->trace()) return model.forward_int(image, nl, nullptr, ws);
    const Clock::time_point start = Clock::now();
    const std::int64_t id = book->claim(image);
    QTensor out = model.forward_int(image, nl, nullptr, ws);
    if (id >= 0) {
      RequestRecord& r = book->at(static_cast<std::size_t>(id));
      r.start = start;
      r.end = Clock::now();
      r.traced = true;
    }
    return out;
  };
}

bool same_output(const QTensor& a, const QTensor& b) {
  return a.shape() == b.shape() && a.params() == b.params() &&
         a.data() == b.data();
}

/// Fills the outcome fields of a record from a result callback.
void settle(RequestRecord& r, const QTensor& result, std::exception_ptr error,
            const References& refs) {
  r.delivered = Clock::now();
  if (error == nullptr) {
    r.served = true;
    r.mismatch = !same_output(
        result, refs[static_cast<std::size_t>(r.model)]
                    [static_cast<std::size_t>(r.image)]);
    return;
  }
  try {
    std::rethrow_exception(error);
  } catch (const gqa::ServingError& e) {
    if (e.code() == gqa::ServingErrorCode::kFrameSuperseded) {
      r.dropped = true;
    } else {
      r.failed = true;
    }
  } catch (...) {
    r.failed = true;
  }
}

}  // namespace

std::unique_ptr<ServingStack> build_stack(const std::vector<Model>& models,
                                          const Tensor& calibration,
                                          std::unique_ptr<RequestBook> book) {
  auto stack = std::make_unique<ServingStack>();
  const Clock::time_point t0 = Clock::now();
  for (Model m : models) {
    if (m == Model::kSegformer) {
      stack->segformer = std::make_unique<gqa::tfm::SegformerB0Like>();
      stack->segformer->calibrate(calibration);
      stack->segformer->freeze();
    } else {
      stack->efficientvit = std::make_unique<gqa::tfm::EfficientViTB0Like>();
      stack->efficientvit->calibrate(calibration);
      stack->efficientvit->freeze();
    }
  }
  const Clock::time_point t1 = Clock::now();
  {
    // Cold deployment warm-up: every replaced op is fitted in-process.
    const gqa::CacheScope no_store("");
    stack->provider = std::make_unique<gqa::tfm::NonlinearProvider>(
        gqa::tfm::NonlinearProvider::with_method(gqa::Method::kGqaRm,
                                                 replaced_ops(models)));
    stack->provider->warm_up_deployment();
  }
  const Clock::time_point t2 = Clock::now();

  stack->book = std::move(book);
  gqa::ServerOptions options;
  options.num_threads = kLanes;
  options.queue_capacity = 64;
  options.scheduler.qos_weights = {1, 1};
  options.scheduler.breaker_threshold = 0;
  options.scheduler.breaker_cooldown = std::chrono::milliseconds(100);
  const std::vector<int> before = thread_ids();
  stack->server = std::make_unique<Server>(*stack->provider, options);
  stack->pinned_threads = pin_new_threads(before);
  for (Model m : models) {
    stack->model_id[static_cast<int>(m)] =
        m == Model::kSegformer
            ? stack->server->register_forward(
                  model_name(m), wrapped_forward(*stack->segformer,
                                                 *stack->provider,
                                                 stack->book.get()))
            : stack->server->register_forward(
                  model_name(m), wrapped_forward(*stack->efficientvit,
                                                 *stack->provider,
                                                 stack->book.get()));
  }
  const Clock::time_point t3 = Clock::now();
  stack->calibrate_freeze_ms = ms_between(t0, t1);
  stack->warm_up_ms = ms_between(t1, t2);
  stack->setup_s = ms_between(t0, t3) / 1e3;
  return stack;
}

std::vector<Tensor> make_images(std::uint64_t seed, int count) {
  gqa::SceneOptions options;
  options.size = gqa::tfm::SegformerConfig{}.image_size;
  GQA_EXPECTS_MSG(options.size == gqa::tfm::EfficientViTConfig{}.image_size,
                  "both models must share one input size");
  std::vector<Tensor> images;
  for (int i = 0; i < count; ++i) {
    images.push_back(
        gqa::make_scene(options, seed * 0x9E3779B97F4A7C15ULL +
                                     static_cast<std::uint64_t>(i) + 1)
            .image);
  }
  return images;
}

References reference_outputs(const ServingStack& stack,
                             const std::vector<Model>& models,
                             const std::vector<Tensor>& images,
                             std::vector<std::vector<double>>& forward_ms) {
  References refs(2);
  forward_ms.assign(2, {});
  for (Model m : models) {
    for (const Tensor& image : images) {
      const Clock::time_point t0 = Clock::now();
      refs[static_cast<std::size_t>(m)].push_back(stack.forward(m, image));
      forward_ms[static_cast<std::size_t>(m)].push_back(
          ms_between(t0, Clock::now()));
    }
  }
  return refs;
}

double logit_mse(const ServingStack& stack, Model model,
                 const std::vector<Tensor>& images, const References& refs) {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Tensor fp = model == Model::kSegformer
                          ? stack.segformer->forward_fp(images[i])
                          : stack.efficientvit->forward_fp(images[i]);
    const Tensor q =
        refs[static_cast<std::size_t>(model)][i].dequantize();
    GQA_EXPECTS(fp.numel() == q.numel());
    for (std::size_t k = 0; k < fp.data().size(); ++k) {
      const double d = static_cast<double>(fp.data()[k]) - q.data()[k];
      sum += d * d;
    }
    count += fp.data().size();
  }
  return sum / static_cast<double>(count);
}

WorkloadWindow run_closed_loop(ServingStack& stack, Model model,
                               int outstanding,
                               const std::vector<Tensor>& images,
                               const References& refs, double warmup_s,
                               double seconds) {
  RequestBook& book = *stack.book;
  const int id_of_model = stack.model_id[static_cast<int>(model)];
  std::mutex mutex;
  std::condition_variable cv;
  int inflight = 0;

  const Clock::time_point start = Clock::now();
  WorkloadWindow window;
  window.begin = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(warmup_s));
  window.end = window.begin + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
  for (std::size_t k = 0; !book.full(); ++k) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      while (inflight >= outstanding) {
        cv.wait_for(lock, std::chrono::milliseconds(50));
      }
      ++inflight;
    }
    const Clock::time_point now = Clock::now();
    if (now >= window.end) {
      std::lock_guard<std::mutex> lock(mutex);
      --inflight;
      break;
    }
    const int image = static_cast<int>(k % images.size());
    Tensor copy = images[static_cast<std::size_t>(image)];
    const std::size_t id = book.open(model, image, copy, now);
    book.at(id).submitted = now;
    (void)stack.server->submit(
        id_of_model, std::move(copy),
        [&book, &refs, &mutex, &cv, &inflight, id](
            Server::Ticket, QTensor result, std::exception_ptr error) {
          settle(book.at(id), result, error, refs);
          {
            std::lock_guard<std::mutex> lock(mutex);
            --inflight;
          }
          cv.notify_one();
        });
  }
  stack.server->drain();
  window.drained = Clock::now();
  return window;
}

WorkloadWindow run_open_loop(ServingStack& stack,
                             const std::vector<StreamSpec>& streams,
                             const std::vector<Tensor>& images,
                             const References& refs, double warmup_s,
                             double seconds, GeneratorStats& generator) {
  RequestBook& book = *stack.book;
  struct StreamState {
    StreamSpec spec;
    Server::StreamSession session;
    std::vector<std::size_t> record_of_frame;  ///< sized up front
    std::size_t pushed = 0;
    std::atomic<std::size_t> delivered{0};
    Clock::time_point first_due;
  };
  const double total_s = warmup_s + seconds;
  std::vector<std::unique_ptr<StreamState>> states;
  for (const StreamSpec& spec : streams) {
    auto st = std::make_unique<StreamState>();
    st->spec = spec;
    st->record_of_frame.resize(
        static_cast<std::size_t>(total_s * spec.fps) + 2);
    states.push_back(std::move(st));
  }
  for (auto& st_ptr : states) {
    StreamState* st = st_ptr.get();
    gqa::StreamOptions options;
    options.frame_interval = std::chrono::milliseconds(
        static_cast<int>(interval_ms(st->spec.fps)));
    options.drop_policy = gqa::DropPolicy::kDropOldest;
    options.ring_capacity = 8;
    st->session = stack.server->open_stream(
        stack.model_id[static_cast<int>(st->spec.model)], options,
        [&book, &refs, st](Server::Ticket, QTensor result,
                           std::exception_ptr error) {
          // Delivery is in frame order, exactly once per accepted push.
          const std::size_t frame = st->delivered.fetch_add(1);
          settle(book.at(st->record_of_frame[frame]), result, error, refs);
        });
  }

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  WorkloadWindow window;
  window.begin = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(warmup_s));
  window.end = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(total_s));
  // Stagger stream phases so the streams' frames are not all due at once.
  for (std::size_t s = 0; s < states.size(); ++s) {
    states[s]->first_due =
        start + std::chrono::microseconds(static_cast<std::int64_t>(
                    1000.0 * interval_ms(states[s]->spec.fps) *
                    static_cast<double>(s) / static_cast<double>(states.size())));
  }
  const auto due_of = [](const StreamState& st, std::size_t k) {
    return st.first_due +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double, std::milli>(
                   interval_ms(st.spec.fps) * static_cast<double>(k)));
  };
  std::vector<std::size_t> next_frame(states.size(), 0);
  for (;;) {
    std::size_t pick = states.size();
    Clock::time_point due = Clock::time_point::max();
    for (std::size_t s = 0; s < states.size(); ++s) {
      const Clock::time_point d = due_of(*states[s], next_frame[s]);
      if (d < due) {
        due = d;
        pick = s;
      }
    }
    if (pick == states.size() || due >= window.end ||
        next_frame[pick] >= states[pick]->record_of_frame.size()) {
      break;
    }
    std::this_thread::sleep_until(due);
    StreamState& st = *states[pick];
    const std::size_t k = next_frame[pick]++;
    const int image =
        static_cast<int>((k + 3 * pick) % images.size());
    Tensor copy = images[static_cast<std::size_t>(image)];
    const Clock::time_point push_at = Clock::now();
    const std::size_t id = book.open(st.spec.model, image, copy, due);
    book.at(id).submitted = push_at;
    st.record_of_frame[st.pushed] = id;
    if (st.session.push_frame(std::move(copy))) {
      ++st.pushed;
    } else {
      book.at(id).failed = true;
      ++generator.refused;
    }
    if (due >= window.begin) {
      const double lag = ms_between(due, push_at);
      generator.lag_ms.push_back(lag);
      if (lag > kLatePushMs) ++generator.pushed_late;
    }
  }
  for (auto& st : states) st->session.close();
  window.drained = Clock::now();
  return window;
}

void eval_span_metrics(RequestBook& book, const WorkloadWindow& window,
                       Tracer& tracer, Metrics& out) {
  std::vector<double> queue, delivery, service[2];
  std::vector<std::pair<Clock::time_point, int>> edges;  // service +1/-1
  double busy_ms = 0.0;
  for (std::size_t id = 0; id < book.size(); ++id) {
    const RequestRecord& r = book.at(id);
    if (!r.served || !r.traced) continue;
    const auto request = static_cast<std::int64_t>(id);
    const std::int64_t root =
        tracer.record("eval.request", r.submitted, r.delivered, 0, request);
    tracer.record("eval.queue_wait", r.submitted, r.start, root, request);
    const std::int64_t svc =
        tracer.record("eval.service", r.start, r.end, root, request);
    tracer.record(std::string("tfm.") + model_name(r.model) + ".forward_int",
                  r.start, r.end, svc, request);
    tracer.record("eval.delivery", r.end, r.delivered, root, request);
    const Clock::time_point s = std::max(r.start, window.begin);
    const Clock::time_point e = std::min(r.end, window.end);
    if (e > s) {
      busy_ms += ms_between(s, e);
      edges.emplace_back(s, 1);
      edges.emplace_back(e, -1);
    }
    if (r.due < window.begin || r.due >= window.end) continue;
    queue.push_back(ms_between(r.submitted, r.start));
    service[static_cast<int>(r.model)].push_back(ms_between(r.start, r.end));
    delivery.push_back(ms_between(r.end, r.delivered));
  }
  if (queue.empty()) return;
  out.set("eval.queue_wait_ms.p50", quantile(queue, 0.5), "ms");
  out.set("eval.queue_wait_ms.p99", quantile(queue, 0.99), "ms");
  out.set("eval.delivery_ms.p50", quantile(delivery, 0.5), "ms");
  out.set("eval.delivery_ms.p99", quantile(delivery, 0.99), "ms");
  for (int m = 0; m < 2; ++m) {
    if (service[m].empty()) continue;
    out.set(std::string("eval.service_ms.") +
                model_name(static_cast<Model>(m)) + ".p50",
            median(service[m]), "ms");
  }
  // Share of the time some lane serves during which both lanes serve: 1
  // when the lanes always work side by side, 0 when one lane does it all.
  std::sort(edges.begin(), edges.end());
  double any_ms = 0.0, both_ms = 0.0;
  int active = 0;
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    active += edges[i].second;
    const double span = ms_between(edges[i].first, edges[i + 1].first);
    if (active >= 1) any_ms += span;
    if (active >= 2) both_ms += span;
  }
  out.set("eval.lane_overlap_frac", any_ms > 0.0 ? both_ms / any_ms : 0.0,
          "frac");
  out.set("eval.lane_busy_frac",
          busy_ms / (static_cast<double>(kLanes) * window.seconds() * 1e3),
          "frac");
}

}  // namespace perfbench
