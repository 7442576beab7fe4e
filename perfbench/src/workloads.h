// The three benchmark workloads and the traced per-layer split.
#pragma once

#include "common.h"

namespace perfbench {

/// `serve_closed`: 3 outstanding SegFormer requests on the 2-lane server.
void run_serve_closed(const Args& args, RunResult& result);

/// `stream_open`: one SegFormer and two EfficientViT camera streams at
/// fixed frame rates through open_stream (kDropOldest).
void run_stream_open(const Args& args, RunResult& result);

/// `fit_cold`: cold fit_cached of the served op set at INT8 and INT16
/// against a fresh artifact store, then a cache hit of the same key.
void run_fit_cold(const Args& args, RunResult& result);

/// Traced runs only: measures every per-layer metric the workload's own
/// traced loop did not produce (module replays, provider, kernel, GA,
/// objective, fit, artifact store, and a short mixed serving probe for the
/// eval spans), so each traced run reports the full layer split.
void run_layer_probes(const Args& args, RunResult& result);

}  // namespace perfbench
