// Streaming-session serving under open-loop load: a fixed-rate frame
// source (the real-time video shape — the camera never waits for the
// server) pushed through Server::open_stream at three offered rates
// around the measured single-stream capacity:
//
//   0.5x  under capacity — every frame should be served, on time;
//   1.0x  at capacity — sustained fps tracks the offered rate, the ring
//         absorbs scheduling jitter;
//   2.0x  over capacity — the drop policy (kDropOldest here) sheds the
//         excess; sustained fps holds near capacity instead of collapsing
//         into unbounded lag.
//
// Capacity is measured, not assumed: the median serial forward_int time
// of the scene frames. A stream delivers in frame order with one frame in
// flight, so single-stream capacity is 1/frame_time regardless of lanes.
//
// Reported per rate: offered vs sustained fps, push/serve/drop counts,
// and deadline-miss % (frames that started after their deadline — under
// kDropOldest they are served late, never killed). Every served frame is
// compared against the serial forward of the same image; a divergence is
// a correctness bug and the bench exits non-zero (CI runs this in smoke
// mode as the streaming bit-identity gate).
//
// Env knobs: GQA_SERVE_SCENES (default 8) distinct scene frames,
//            GQA_BENCH_REPS (default 5) rounds per rate (median fps kept),
//            GQA_STREAM_RING_CAPACITY (default 8) pending-frame ring.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "eval/scene.h"
#include "eval/server.h"
#include "tfm/models/segformer.h"

using namespace gqa;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  const int scenes = static_cast<int>(env_int("GQA_SERVE_SCENES", 8));
  const int reps = bench::bench_reps(5);

  SceneOptions scene;
  scene.size = 64;
  std::vector<tfm::Tensor> images;
  for (const LabeledScene& s : make_scene_set(scene, scenes, 0x5E21)) {
    images.push_back(s.image);
  }

  tfm::SegformerB0Like seg;
  seg.calibrate(images.front());
  seg.freeze();
  const auto nl = tfm::NonlinearProvider::with_method(
      Method::kGqaRm, {Op::kExp, Op::kGelu, Op::kDiv, Op::kRsqrt});

  // Serial references double as the capacity measurement: the per-frame
  // bit-identity gate compares against these, and the median forward time
  // sets the 1x offered rate. The provider fits its LUT units lazily on
  // first use, so an untimed warm pass goes first — timing the fits would
  // inflate the capacity estimate and make every offered rate an underload.
  for (const tfm::Tensor& img : images) (void)seg.forward_int(img, nl);
  std::vector<std::vector<std::int32_t>> refs;
  std::vector<double> frame_times;
  for (const tfm::Tensor& img : images) {
    Timer timer;
    refs.push_back(seg.forward_int(img, nl).data());
    frame_times.push_back(timer.milliseconds());
  }
  const double frame_ms = median(frame_times);
  const double capacity_fps = 1e3 / frame_ms;

  Server server(nl, {});
  const int model = server.register_model(seg, "segformer");

  StreamOptions so;
  so.drop_policy = DropPolicy::kDropOldest;
  // Two frame-times of slack: generous under capacity, inevitably missed
  // once the over-capacity backlog builds — which is what the Miss%
  // column is for.
  so.deadline =
      std::chrono::milliseconds(static_cast<std::int64_t>(2.0 * frame_ms) + 1);

  const std::size_t frames = std::min<std::size_t>(
      std::max<std::size_t>(2 * images.size(), 8), 32);

  TablePrinter table({"Offered", "Offered fps", "Sustained fps", "Pushed",
                      "Served", "Dropped", "Miss %", "Bit-identical"});
  table.set_title(
      "Open-loop streaming sessions: fixed-rate frames vs one stream");
  bool all_identical = true;
  for (const double rate : {0.5, 1.0, 2.0}) {
    const double offered_fps = rate * capacity_fps;
    const auto interval = std::chrono::microseconds(
        static_cast<std::int64_t>(1e6 / offered_fps));
    const Server::Stats before = server.stats();
    std::vector<double> fps;
    std::size_t pushed = 0, served = 0;
    bool identical = true;
    for (int rep = 0; rep < reps; ++rep) {
      const bench::StreamOpenLoopResult run =
          bench::run_stream_open_loop(server, model, images, frames,
                                      interval, so);
      fps.push_back(static_cast<double>(run.served.size()) /
                    (run.wall_ms * 1e-3));
      pushed += run.pushed.size();
      served += run.served.size();
      for (const auto& [ticket, idx] : run.pushed) {
        const auto it = run.served.find(ticket);
        if (it != run.served.end()) {
          identical = identical && it->second.data() == refs[idx];
        }
      }
    }
    const Server::Stats after = server.stats();
    const std::uint64_t dropped =
        (after.frames_dropped - before.frames_dropped) +
        (after.frames_coalesced - before.frames_coalesced);
    const std::uint64_t misses =
        after.deadline_misses - before.deadline_misses;
    table.add_row({format("%.1fx capacity", rate), fixed(offered_fps, 1),
                   fixed(median(fps), 1), format("%zu", pushed),
                   format("%zu", served),
                   format("%llu", static_cast<unsigned long long>(dropped)),
                   fixed(100.0 * static_cast<double>(misses) /
                             static_cast<double>(pushed),
                         1),
                   identical ? "yes" : "NO"});
    all_identical = all_identical && identical;
  }
  table.set_footnote(format(
      "capacity %.1f fps (median serial forward %.1f ms); policy "
      "drop_oldest, deadline 2 frame-times, %zu frames/round x %d rounds",
      capacity_fps, frame_ms, frames, reps));
  bench::emit(table, "stream_serving");

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a served stream frame diverged from its serial "
                 "forward\n");
    return 1;
  }
  return 0;
}
