// Multi-model co-serving throughput: requests/s of the async gqa::Server
// front-end (both reproduction models registered on one pool, one shared
// pre-warmed provider) vs the seed-style serial per-image loops. The
// server at 1 lane isolates the front-end overhead + workspace reuse; the
// wide row adds image-level parallelism on real cores; the stream column
// drives the continuous-batching scheduler through submit-time callbacks
// (no wait barriers — drain() is the only sync point).
//
// Every server run is checksummed request-by-request against the serial
// loops; a divergence is a correctness bug and the bench exits non-zero
// (CI runs this in smoke mode as the co-serving bit-identity gate).
//
// Env knobs: GQA_SERVE_SCENES (default 8) images per model per dispatch,
//            GQA_BENCH_REPS (default 5) interleaved rounds (median kept),
//            GQA_SERVER_QUEUE (default 64) admission-queue capacity,
//            GQA_NUM_THREADS lanes for the wide server row (default:
//            hardware concurrency via the process-wide pool).
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "eval/scene.h"
#include "eval/server.h"
#include "tfm/models/efficientvit.h"
#include "tfm/models/segformer.h"

using namespace gqa;

namespace {

std::int64_t code_checksum(const std::vector<tfm::QTensor>& logits) {
  std::int64_t sum = 0;
  for (const tfm::QTensor& t : logits) {
    for (std::int32_t v : t.data()) sum += v;
  }
  return sum;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Submits the interleaved two-model stream and waits tickets in issue
/// order; returns per-request logits in submission order.
std::vector<tfm::QTensor> serve_stream(
    Server& server, int seg_id, int evit_id,
    const std::vector<tfm::Tensor>& images) {
  std::vector<Server::Ticket> tickets;
  tickets.reserve(2 * images.size());
  for (const tfm::Tensor& img : images) {
    tickets.push_back(server.submit(seg_id, img));
    tickets.push_back(server.submit(evit_id, img));
  }
  std::vector<tfm::QTensor> results;
  results.reserve(tickets.size());
  for (const Server::Ticket t : tickets) results.push_back(server.wait(t));
  return results;
}

}  // namespace

int main() {
  const int scenes = static_cast<int>(env_int("GQA_SERVE_SCENES", 8));
  const int reps = bench::bench_reps(5);
  const auto queue_cap =
      static_cast<std::size_t>(env_int("GQA_SERVER_QUEUE", 64));

  SceneOptions scene;
  scene.size = 64;
  std::vector<tfm::Tensor> images;
  for (const LabeledScene& s : make_scene_set(scene, scenes, 0x5E21)) {
    images.push_back(s.image);
  }

  // Full default (B0-like) model sizes — the deployment shape.
  tfm::SegformerB0Like seg;
  seg.calibrate(images.front());
  seg.freeze();
  tfm::EfficientViTB0Like evit;
  evit.calibrate(images.front());
  evit.freeze();

  // One provider backs both models (QUARK's co-serving premise): its
  // replaced-op set is the union of the two model inventories, and one
  // warm-up covers every unit either model can request.
  const auto nl = tfm::NonlinearProvider::with_method(
      Method::kGqaRm,
      {Op::kExp, Op::kGelu, Op::kHswish, Op::kDiv, Op::kRsqrt});

  ServerOptions one;
  one.num_threads = 1;
  one.queue_capacity = queue_cap;
  Server server1(nl, one);
  const int s1_seg = server1.register_model(seg, "segformer");
  const int s1_evit = server1.register_model(evit, "efficientvit");

  ServerOptions wide_opts;
  wide_opts.queue_capacity = queue_cap;  // num_threads=0: process pool
  Server server_wide(nl, wide_opts);
  const int sw_seg = server_wide.register_model(seg, "segformer");
  const int sw_evit = server_wide.register_model(evit, "efficientvit");

  // Interleave rounds (serial loops, server(1), server(N), stream(N)) and
  // keep the MEDIAN round: every variant gets the same clock-drift
  // exposure.
  std::vector<tfm::QTensor> serial, served1, servedw, streamed;
  std::vector<double> serial_r, server1_r, wide_r, stream_r;
  const double n = 2.0 * static_cast<double>(images.size());
  for (int rep = 0; rep < reps; ++rep) {
    {
      Timer timer;
      serial.clear();
      for (const tfm::Tensor& img : images) {
        serial.push_back(seg.forward_int(img, nl));
        serial.push_back(evit.forward_int(img, nl));
      }
      serial_r.push_back(timer.milliseconds());
    }
    {
      Timer timer;
      served1 = serve_stream(server1, s1_seg, s1_evit, images);
      server1_r.push_back(timer.milliseconds());
    }
    {
      Timer timer;
      servedw = serve_stream(server_wide, sw_seg, sw_evit, images);
      wide_r.push_back(timer.milliseconds());
    }
    {
      Timer timer;
      streamed = bench::serve_stream_continuous(
          server_wide, bench::mixed_request_list(sw_seg, sw_evit, images));
      stream_r.push_back(timer.milliseconds());
    }
  }

  bool identical = code_checksum(serial) == code_checksum(served1) &&
                   code_checksum(serial) == code_checksum(servedw) &&
                   code_checksum(serial) == code_checksum(streamed);
  // The checksum can collide; the committed gate is per-request equality.
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = serial[i].data() == served1[i].data() &&
                serial[i].data() == servedw[i].data() &&
                serial[i].data() == streamed[i].data();
  }

  TablePrinter table({"Stream", "Serial req/s", "Server(1) req/s",
                      "Server(N) req/s", "Stream(N) req/s", "N",
                      "Bit-identical"});
  table.set_title(
      "Co-serving throughput: serial loops vs async two-model server");
  table.add_row({format("%dx SegFormer + %dx EfficientViT", scenes, scenes),
                 fixed(n / (median(serial_r) * 1e-3), 1),
                 fixed(n / (median(server1_r) * 1e-3), 1),
                 fixed(n / (median(wide_r) * 1e-3), 1),
                 fixed(n / (median(stream_r) * 1e-3), 1),
                 format("%d", server_wide.lanes()),
                 identical ? "yes" : "NO"});
  bench::emit(table, "coserve_throughput");

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: co-served outputs diverged from the serial loops\n");
    return 1;
  }
  return 0;
}
