// `serve_closed` and `stream_open`: image -> integer logits through the
// 2-lane gqa::Server, every served result checked bit for bit against a
// serial forward_int of the same image computed at set-up.
#include <algorithm>

#include "eval/protocol.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Distinct scenes each workload cycles through.
constexpr int kImages = 8;
/// Untimed warm-up before the measured window: lets the lanes settle on
/// their cores and the allocator reach steady state.
constexpr double kWarmupS = 1.5;
/// Set-up repetitions whose median is setup_s (one on traced runs, which
/// do not report it).
constexpr int kSetupReps = 3;

/// Requests the closed-loop client keeps outstanding: one queued behind the
/// two lanes, so a lane never idles between requests. With four, a request
/// waited for one or two earlier forwards and the latency median jumped
/// between those two modes from run to run.
constexpr int kOutstanding = 3;

/// Mean operator-level MSE (Table 3 protocol) of the LUTs the provider
/// deployed: the provider fits each op with default FitOptions at 8
/// entries, deterministically, so refitting reproduces its tables.
double deployed_fit_mse(const std::vector<Model>& models) {
  double sum = 0.0;
  const std::set<gqa::Op> ops = replaced_ops(models);
  for (gqa::Op op : ops) {
    gqa::FitOptions options;
    options.entries = 8;
    sum += gqa::operator_level_mse(
        gqa::Approximator::fit(op, gqa::Method::kGqaRm, options));
  }
  return sum / static_cast<double>(ops.size());
}

/// Builds the stack kSetupReps times (fresh models, cold provider, fresh
/// server each time) and keeps the last; setup_s is the median.
std::unique_ptr<ServingStack> set_up(const Args& args,
                                     const std::vector<Model>& models,
                                     const gqa::tfm::Tensor& calibration,
                                     std::size_t book_capacity,
                                     RunResult& result) {
  std::vector<double> setup_s, calibrate_ms, warm_ms;
  std::unique_ptr<ServingStack> stack;
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    stack.reset();
    stack = build_stack(models, calibration,
                        std::make_unique<RequestBook>(book_capacity,
                                                      args.trace));
    setup_s.push_back(stack->setup_s);
    calibrate_ms.push_back(stack->calibrate_freeze_ms);
    warm_ms.push_back(stack->warm_up_ms);
  }
  result.report["pinned_server_threads"] = Json(stack->pinned_threads);
  result.end_to_end.set("setup_s", median(setup_s), "s");
  result.per_layer.set("tfm.calibrate_freeze_ms", median(calibrate_ms), "ms");
  result.per_layer.set("tfm.provider.warm_up_deployment_ms", median(warm_ms),
                       "ms");
  return stack;
}

/// Serial forward_int p50 per model, from the reference pass (the
/// tfm.<model>.forward_int_ms.p50 layer metrics; also in the report).
void serial_forward_metrics(const std::vector<Model>& models,
                            const std::vector<std::vector<double>>& ms,
                            RunResult& result) {
  for (Model m : models) {
    const double p50 = median(ms[static_cast<std::size_t>(m)]);
    const std::string name =
        std::string("tfm.") + model_name(m) + ".forward_int_ms.p50";
    result.per_layer.set(name, p50, "ms");
  }
}

struct Tally {
  std::int64_t due = 0, served = 0, dropped = 0, failed = 0, late = 0;
  std::int64_t dropped_of_model[2] = {0, 0};
  std::int64_t late_of_model[2] = {0, 0};
  std::int64_t mismatched = 0;
  std::vector<double> latency_ms;
  std::vector<double> latency_of_model[2];
};

/// Latency and outcome counts over the records due inside the window. A
/// served record later than its model's deadline (when > 0) is late.
Tally tally(RequestBook& book, const WorkloadWindow& window,
            const std::vector<double>& deadline_ms_of_model,
            RunResult& result) {
  Tally t;
  for (std::size_t id = 0; id < book.size(); ++id) {
    const RequestRecord& r = book.at(id);
    if (r.mismatch) ++t.mismatched;
    if (r.due < window.begin || r.due >= window.end) continue;
    ++t.due;
    if (r.served) {
      ++t.served;
      const double ms = ms_between(r.due, r.delivered);
      t.latency_ms.push_back(ms);
      t.latency_of_model[static_cast<int>(r.model)].push_back(ms);
      const double limit =
          deadline_ms_of_model[static_cast<std::size_t>(r.model)];
      if (limit > 0.0 && ms > limit) {
        ++t.late;
        ++t.late_of_model[static_cast<int>(r.model)];
      }
    } else if (r.dropped) {
      ++t.dropped;
      ++t.dropped_of_model[static_cast<int>(r.model)];
    } else {
      ++t.failed;
    }
  }
  result.attempted += t.due;
  result.failed += t.failed;
  result.check(t.mismatched == 0,
               std::to_string(t.mismatched) +
                   " served results differ from the serial forward_int");
  result.check(t.failed == 0,
               std::to_string(t.failed) + " requests failed");
  result.check(!t.latency_ms.empty(), "no request completed in the window");
  return t;
}

void stats_deltas(const gqa::Server::Stats& before,
                  const gqa::Server::Stats& after, Metrics& out) {
  out.set("eval.frames_dropped",
          static_cast<double>(after.frames_dropped - before.frames_dropped),
          "count");
  out.set("eval.deadline_misses",
          static_cast<double>(after.deadline_misses - before.deadline_misses),
          "count");
  out.set("eval.retries",
          static_cast<double>(after.retries - before.retries), "count");
}

}  // namespace

void run_serve_closed(const Args& args, RunResult& result) {
  const std::vector<Model> models = {Model::kSegformer};
  const std::vector<gqa::tfm::Tensor> images = make_images(args.seed, kImages);
  const std::size_t capacity =
      static_cast<std::size_t>((kWarmupS + args.seconds) * 400.0) + 64;
  std::unique_ptr<ServingStack> stack =
      set_up(args, models, images.front(), capacity, result);
  std::vector<std::vector<double>> forward_ms;
  const References refs =
      reference_outputs(*stack, models, images, forward_ms);
  serial_forward_metrics(models, forward_ms, result);

  const gqa::Server::Stats before = stack->server->stats();
  const WorkloadWindow window =
      run_closed_loop(*stack, Model::kSegformer, kOutstanding, images, refs,
                      kWarmupS, args.seconds);
  const gqa::Server::Stats after = stack->server->stats();
  Tally t = tally(*stack->book, window, {0.0, 0.0}, result);

  std::int64_t completed_in_window = 0;
  std::vector<double> per_second(
      static_cast<std::size_t>(window.seconds()) + 1, 0.0);
  for (std::size_t id = 0; id < stack->book->size(); ++id) {
    const RequestRecord& r = stack->book->at(id);
    if (r.served && r.delivered >= window.begin && r.delivered < window.end) {
      ++completed_in_window;
      per_second[static_cast<std::size_t>(
          ms_between(window.begin, r.delivered) / 1e3)] += 1.0;
    }
  }
  result.report["completions_per_second"] = Json::array_of(per_second);

  Metrics& m = result.end_to_end;
  m.set("throughput",
        static_cast<double>(completed_in_window) / window.seconds(), "1/s");
  if (!t.latency_ms.empty()) {
    m.set("latency_p50_ms", quantile(t.latency_ms, 0.5), "ms");
    m.set("latency_p99_ms", quantile(t.latency_ms, 0.99), "ms");
  }
  m.set("fit_mse", deployed_fit_mse(models), "mse");
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");

  result.report["sent"] = Json(t.due);
  result.report["succeeded"] = Json(t.served);
  result.report["error_frac"] = Json(
      static_cast<double>(t.failed) / static_cast<double>(std::max<std::int64_t>(1, t.due)));
  result.report["latency_samples"] = Json(static_cast<std::int64_t>(t.latency_ms.size()));
  result.report["logit_mse.segformer"] =
      Json(logit_mse(*stack, Model::kSegformer, images, refs));
  result.report["kernel_backend"] = Json(after.kernel_backend);

  if (args.trace) {
    Tracer tracer(true);
    eval_span_metrics(*stack->book, window, tracer, result.per_layer);
    stats_deltas(before, after, result.per_layer);
    tracer.write(args.scratch + "/trace-serve_closed.json");
    result.report["spans"] = Json(static_cast<std::int64_t>(tracer.size()));
  }
}

void run_stream_open(const Args& args, RunResult& result) {
  const std::vector<Model> models = {Model::kSegformer, Model::kEfficientVit};
  const std::vector<StreamSpec>& streams = camera_streams();
  const std::vector<gqa::tfm::Tensor> images = make_images(args.seed, kImages);
  double fps_total = 0.0;
  for (const StreamSpec& s : streams) fps_total += s.fps;
  const std::size_t capacity =
      static_cast<std::size_t>((kWarmupS + args.seconds) * fps_total) +
      4 * streams.size() + 64;
  std::unique_ptr<ServingStack> stack =
      set_up(args, models, images.front(), capacity, result);
  std::vector<std::vector<double>> forward_ms;
  const References refs =
      reference_outputs(*stack, models, images, forward_ms);
  serial_forward_metrics(models, forward_ms, result);

  const gqa::Server::Stats before = stack->server->stats();
  GeneratorStats generator;
  const WorkloadWindow window = run_open_loop(
      *stack, streams, images, refs, kWarmupS, args.seconds, generator);
  const gqa::Server::Stats after = stack->server->stats();

  // A frame misses when it is dropped, fails, or is delivered more than one
  // frame interval after it was due.
  std::vector<double> interval_of_model(2, 0.0);
  for (const StreamSpec& s : streams) {
    interval_of_model[static_cast<std::size_t>(s.model)] = interval_ms(s.fps);
  }
  Tally t = tally(*stack->book, window, interval_of_model, result);
  const std::int64_t misses = t.dropped + t.failed + t.late;
  const std::int64_t on_time = t.due - misses;

  Metrics& m = result.end_to_end;
  // Goodput: frames delivered on time per second, over the interval from
  // the first due frame to the delivery of the last one.
  m.set("throughput",
        static_cast<double>(on_time) /
            std::chrono::duration<double>(window.drained - window.begin)
                .count(),
        "1/s");
  if (!t.latency_ms.empty()) {
    m.set("latency_p50_ms", quantile(t.latency_ms, 0.5), "ms");
    m.set("latency_p99_ms", quantile(t.latency_ms, 0.99), "ms");
  }
  m.set("fit_mse", deployed_fit_mse(models), "mse");
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");

  result.report["frames_due"] = Json(t.due);
  result.report["frames_served"] = Json(t.served);
  result.report["frames_dropped"] = Json(t.dropped);
  result.report["frames_late"] = Json(t.late);
  for (Model model : models) {
    const int i = static_cast<int>(model);
    if (!t.latency_of_model[i].empty()) {
      result.report[std::string("latency_p50_ms.") + model_name(model)] =
          Json(median(t.latency_of_model[i]));
    }
    result.report[std::string("frames_dropped.") + model_name(model)] =
        Json(t.dropped_of_model[i]);
    result.report[std::string("frames_late.") + model_name(model)] =
        Json(t.late_of_model[i]);
  }
  result.report["deadline_miss_frac"] = Json(
      static_cast<double>(misses) / static_cast<double>(std::max<std::int64_t>(1, t.due)));
  result.report["error_frac"] = Json(
      static_cast<double>(t.failed) / static_cast<double>(std::max<std::int64_t>(1, t.due)));
  result.report["offered_fps"] = Json(fps_total);
  const double lag_p99 =
      generator.lag_ms.empty() ? 0.0 : quantile(generator.lag_ms, 0.99);
  result.report["generator_lag_ms_p99"] = Json(lag_p99);
  result.report["frames_pushed_late"] = Json(generator.pushed_late);
  result.report["logit_mse.segformer"] =
      Json(logit_mse(*stack, Model::kSegformer, images, refs));
  result.report["logit_mse.efficientvit"] =
      Json(logit_mse(*stack, Model::kEfficientVit, images, refs));
  result.check(generator.refused == 0, "push_frame refused a frame");

  if (args.trace) {
    Tracer tracer(true);
    eval_span_metrics(*stack->book, window, tracer, result.per_layer);
    stats_deltas(before, after, result.per_layer);
    Metrics& l = result.per_layer;
    l.set("eval.generator_lag_ms.p99", lag_p99, "ms");
    l.set("eval.frames_pushed_late",
          static_cast<double>(generator.pushed_late), "count");
    tracer.write(args.scratch + "/trace-stream_open.json");
    result.report["spans"] = Json(static_cast<std::int64_t>(tracer.size()));
  }
}

}  // namespace perfbench
