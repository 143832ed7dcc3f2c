#include "oracle.h"

#include <algorithm>

#include "core/error.h"

namespace perfbench {

using qnn::Node;
using qnn::NodeKind;

Oracle::Oracle(const qnn::Pipeline& pipeline, const qnn::NetworkParams& params)
    : pipeline_(pipeline), params_(params) {
  weights_.resize(params.convs.size());
  for (const Node& n : pipeline.nodes) {
    if (n.kind != NodeKind::Conv) continue;
    const qnn::FilterBank& bank = params.conv(n).weights;
    const std::int64_t per_filter = std::int64_t{n.k} * n.k * n.in.c;
    QNN_CHECK(bank.shape().out_c == n.out.c &&
                  bank.shape().weights_per_filter() == per_filter,
              "oracle: filter bank of " + n.name + " does not fit the node");
    auto& rows = weights_[static_cast<std::size_t>(n.param)];
    rows.resize(static_cast<std::size_t>(per_filter * n.out.c));
    for (int o = 0; o < n.out.c; ++o) {
      const qnn::BitVector& bits = bank.filter(o);
      for (std::int64_t i = 0; i < per_filter; ++i) {
        rows[static_cast<std::size_t>(o * per_filter + i)] =
            bits.get(i) ? 1 : -1;
      }
    }
  }
}

Oracle::Map Oracle::conv(const Node& n, const Map& in) const {
  const int k = n.k;
  const int c = n.in.c;
  const std::size_t window = static_cast<std::size_t>(k) * k * c;
  const auto& rows = weights_[static_cast<std::size_t>(n.param)];
  QNN_CHECK(std::all_of(in.begin(), in.end(),
                        [](std::int32_t v) { return v >= 0 && v <= 32767; }),
            "oracle: input of " + n.name + " does not fit int16 codes");
  Map out(static_cast<std::size_t>(n.out.elems()));
  // Gather each output pixel's window once (zeros where it hangs over the
  // padding: padded positions hold code 0), then dot it with every filter.
  std::vector<std::int16_t> patch(window);
  for (int oy = 0; oy < n.out.h; ++oy) {
    for (int ox = 0; ox < n.out.w; ++ox) {
      for (int dy = 0; dy < k; ++dy) {
        const int iy = oy * n.stride + dy - n.pad;
        for (int dx = 0; dx < k; ++dx) {
          const int ix = ox * n.stride + dx - n.pad;
          std::int16_t* dst = &patch[static_cast<std::size_t>((dy * k + dx) * c)];
          if (iy < 0 || iy >= n.in.h || ix < 0 || ix >= n.in.w) {
            std::fill(dst, dst + c, std::int16_t{0});
            continue;
          }
          const std::int32_t* src =
              &in[static_cast<std::size_t>((iy * n.in.w + ix) * c)];
          for (int ci = 0; ci < c; ++ci) {
            dst[ci] = static_cast<std::int16_t>(src[ci]);
          }
        }
      }
      std::int32_t* dst =
          &out[static_cast<std::size_t>((oy * n.out.w + ox) * n.out.c)];
      for (int o = 0; o < n.out.c; ++o) {
        const std::int16_t* w = &rows[static_cast<std::size_t>(o) * window];
        std::int32_t acc = 0;
        for (std::size_t i = 0; i < window; ++i) {
          acc += static_cast<std::int32_t>(patch[i]) * w[i];
        }
        dst[o] = acc;
      }
    }
  }
  return out;
}

Oracle::Map Oracle::pool(const Node& n, const Map& in) const {
  const bool is_max = n.kind == NodeKind::MaxPool;
  const int c = n.in.c;
  Map out(static_cast<std::size_t>(n.out.elems()), 0);
  for (int oy = 0; oy < n.out.h; ++oy) {
    for (int ox = 0; ox < n.out.w; ++ox) {
      std::int32_t* dst = &out[static_cast<std::size_t>((oy * n.out.w + ox) * c)];
      // Codes are unsigned and padding holds code 0, so 0 starts both the
      // max and the sum.
      for (int dy = 0; dy < n.k; ++dy) {
        const int iy = oy * n.stride + dy - n.pad;
        if (iy < 0 || iy >= n.in.h) continue;
        for (int dx = 0; dx < n.k; ++dx) {
          const int ix = ox * n.stride + dx - n.pad;
          if (ix < 0 || ix >= n.in.w) continue;
          const std::int32_t* src =
              &in[static_cast<std::size_t>((iy * n.in.w + ix) * c)];
          for (int ch = 0; ch < c; ++ch) {
            dst[ch] = is_max ? std::max(dst[ch], src[ch]) : dst[ch] + src[ch];
          }
        }
      }
    }
  }
  return out;
}

Oracle::Map Oracle::bnact(const Node& n, const Map& in) const {
  const qnn::ThresholdLayer& layer = params_.bnact(n).thresholds;
  QNN_CHECK(layer.channels() == n.in.c,
            "oracle: threshold bank of " + n.name + " does not fit the node");
  const int c = n.in.c;
  Map out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const qnn::ThresholdActivation& t =
        layer.at(static_cast<int>(i % static_cast<std::size_t>(c)));
    if (t.is_constant()) {
      out[i] = t.constant_code();
      continue;
    }
    // The code is the number of thresholds the (sign-adjusted)
    // pre-activation reaches.
    const std::int32_t v = t.sign() > 0 ? in[i] : -in[i];
    std::int32_t code = 0;
    for (const std::int32_t threshold : t.thresholds()) {
      if (v >= threshold) ++code;
    }
    out[i] = code;
  }
  return out;
}

std::vector<std::int32_t> Oracle::run(const qnn::IntTensor& image) const {
  QNN_CHECK(image.shape() == pipeline_.input, "oracle: image shape mismatch");
  const auto flat = image.flat();
  const Map input(flat.begin(), flat.end());
  std::vector<Map> maps(static_cast<std::size_t>(pipeline_.size()));
  // Last node index that reads each map, so maps can be freed early.
  std::vector<int> last_use(static_cast<std::size_t>(pipeline_.size()), -1);
  for (int i = 0; i < pipeline_.size(); ++i) {
    const Node& n = pipeline_.node(i);
    if (n.main_from >= 0) last_use[static_cast<std::size_t>(n.main_from)] = i;
    if (n.skip_from >= 0) last_use[static_cast<std::size_t>(n.skip_from)] = i;
  }
  for (int i = 0; i < pipeline_.size(); ++i) {
    const Node& n = pipeline_.node(i);
    const Map& main =
        n.main_from < 0 ? input : maps[static_cast<std::size_t>(n.main_from)];
    QNN_CHECK(static_cast<std::int64_t>(main.size()) == n.in.elems(),
              "oracle: input of " + n.name + " has the wrong size");
    Map out;
    switch (n.kind) {
      case NodeKind::Conv:
        out = conv(n, main);
        break;
      case NodeKind::MaxPool:
      case NodeKind::AvgPool:
        out = pool(n, main);
        break;
      case NodeKind::BnAct:
        out = bnact(n, main);
        break;
      case NodeKind::Add: {
        const Map& skip = maps[static_cast<std::size_t>(n.skip_from)];
        QNN_CHECK(skip.size() == main.size(), "oracle: Add operand sizes differ");
        out.resize(main.size());
        for (std::size_t j = 0; j < main.size(); ++j) out[j] = main[j] + skip[j];
        break;
      }
    }
    maps[static_cast<std::size_t>(i)] = std::move(out);
    for (int from : {n.main_from, n.skip_from}) {
      if (from >= 0 && last_use[static_cast<std::size_t>(from)] == i) {
        Map().swap(maps[static_cast<std::size_t>(from)]);
      }
    }
  }
  return std::move(maps.back());
}

}  // namespace perfbench
