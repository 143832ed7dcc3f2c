// Shared pieces of the benchmark: workloads, seeded inputs, statistics,
// the expected-output file and the metric sink.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "nn/network.h"
#include "nn/params.h"
#include "nn/pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Time the process started, captured during static initialisation.
Clock::time_point process_start();

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: the benchmark's own input generator, independent of the
/// program's Rng so inputs depend on --seed alone.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// One benchmark workload: the network and the make-up of its inputs.
struct Workload {
  std::string name;
  qnn::NetworkSpec spec;
  int distinct_images = 0;  // images generated per run, each checked
  int batch = 0;            // images per batched call
  double paper_ms = 0.0;    // measured per-image runtime in the paper
};

/// Throws qnn::Error for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name);

/// Seed of the network's random parameters for a run seed.
[[nodiscard]] std::uint64_t param_seed(std::uint64_t seed);

/// `count` images of `shape` with uniform 8-bit pixels drawn from `seed`.
[[nodiscard]] std::vector<qnn::IntTensor> make_images(const qnn::Shape& shape,
                                                      int count,
                                                      std::uint64_t seed);

/// Expected outputs, one flat vector per distinct image.
using Expected = std::vector<std::vector<std::int32_t>>;
void write_expected(const std::string& path, const Expected& expected);
[[nodiscard]] Expected read_expected(const std::string& path);

[[nodiscard]] inline bool matches(const qnn::IntTensor& got,
                                  const std::vector<std::int32_t>& want) {
  const auto flat = got.flat();
  return flat.size() == want.size() &&
         std::equal(flat.begin(), flat.end(), want.begin());
}

/// Percentile p in [0, 100] with linear interpolation between ranks.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Values carried per image by every FIFO the engine wires for `pipeline`,
/// computed from the node shapes: the input stream, one stream per
/// single-consumer edge, a trunk plus one branch per consumer at a fork,
/// and the output stream.
[[nodiscard]] std::uint64_t edge_values_per_image(const qnn::Pipeline& p);

/// XNOR-popcount bit-products of every convolution for one image.
[[nodiscard]] std::uint64_t conv_bitops_per_image(const qnn::Pipeline& p);

/// `s` as the body of a JSON string: quotes and backslashes escaped,
/// control characters replaced by spaces.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Named metrics with units, printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench
