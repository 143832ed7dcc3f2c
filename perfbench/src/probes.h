// Per-layer probes of the traced run: each times one layer of the program
// on the workload's network, outside the end-to-end measurement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "nn/params.h"
#include "nn/pipeline.h"

namespace perfbench {

/// Compile-time layers: analyzer, FIFO planner, partitioner, cycle
/// simulator and engine construction (medians of a few calls each).
struct StaticProbe {
  double verify_s = 0.0;
  double fifos_s = 0.0;
  double partition_s = 0.0;
  double simulate_s = 0.0;
  double engine_build_s = 0.0;
  std::uint64_t cycles_per_image = 0;  // simulate()'s steady interval
  std::uint64_t total_cycles = 0;
  std::uint64_t analytic_bottleneck = 0;
  double model_ms_per_image = 0.0;     // steady interval at 105 MHz
};
[[nodiscard]] StaticProbe probe_static(const qnn::Pipeline& pipeline,
                                       const qnn::NetworkParams& params);

/// Every node except Add run alone in a one-node engine with one worker,
/// fed the previous isolated outputs (Add, which needs two input ports,
/// is summed in the benchmark untimed). The chain's final output is
/// returned so it can be checked against the oracle.
struct IsolationProbe {
  double sum_ms = 0.0;
  double max_ms = 0.0;
  std::string bottleneck;   // node with the largest isolated time
  int bottleneck_conv = -1; // slowest Conv node (for the SIMD probe)
  std::vector<std::int32_t> output;
};
[[nodiscard]] IsolationProbe probe_isolation(const qnn::Pipeline& pipeline,
                                             const qnn::NetworkParams& params,
                                             const qnn::IntTensor& image);

/// accumulate_plane throughput on one conv node's geometry (Gbit-products
/// per second at the dispatched SIMD level).
[[nodiscard]] double probe_plane_gbitops(const qnn::Node& conv);

/// Median wall time of one run() of a one-node pipeline on one tiny image:
/// the engine's fixed per-run cost.
[[nodiscard]] double probe_empty_run_us();

/// Median time of each segment of a cut run alone on one image, chained.
struct SegmentProbe {
  std::vector<double> ms;
  std::vector<std::int32_t> output;
};
[[nodiscard]] SegmentProbe probe_segments(const qnn::Pipeline& pipeline,
                                          const qnn::NetworkParams& params,
                                          const std::vector<int>& cuts,
                                          const qnn::IntTensor& image);

/// A cut after which only the cut node's output crosses, nearest the
/// middle of the pipeline (-1 if there is none).
[[nodiscard]] int middle_chain_cut(const qnn::Pipeline& pipeline);

}  // namespace perfbench
