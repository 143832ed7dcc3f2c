// Correctness oracle: a plain integer forward pass over the Pipeline nodes.
//
// It reads the sign weights and the folded thresholds from NetworkParams
// and evaluates every node with direct loops over the HWC tensors. It
// shares no code with the program's reference executor or its dataflow
// kernels, so an output that both the program and the oracle produce was
// computed twice by unrelated paths.
#pragma once

#include <cstdint>
#include <vector>

#include "core/tensor.h"
#include "nn/params.h"
#include "nn/pipeline.h"

namespace perfbench {

class Oracle {
 public:
  /// Unpacks every filter bank once into +-1 int16 rows.
  Oracle(const qnn::Pipeline& pipeline, const qnn::NetworkParams& params);

  /// The last node's output for one image, flat in HWC order.
  [[nodiscard]] std::vector<std::int32_t> run(const qnn::IntTensor& image) const;

 private:
  using Map = std::vector<std::int32_t>;  // HWC feature map
  [[nodiscard]] Map conv(const qnn::Node& n, const Map& in) const;
  [[nodiscard]] Map pool(const qnn::Node& n, const Map& in) const;
  [[nodiscard]] Map bnact(const qnn::Node& n, const Map& in) const;

  const qnn::Pipeline& pipeline_;
  const qnn::NetworkParams& params_;
  // Per conv param bank: out_c rows of k*k*in_c weights (+1 / -1).
  std::vector<std::vector<std::int16_t>> weights_;
};

}  // namespace perfbench
