#include "common.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/error.h"
#include "models/zoo.h"

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point process_start() { return g_process_start; }

Workload make_workload(const std::string& name) {
  // Paper per-image runtimes at 105 MHz (Fig. 5): ResNet-18 16.1 ms,
  // AlexNet 13.7 ms, VGG-like 32x32 0.8 ms.
  if (name == "stream-resnet18") {
    return {name, qnn::models::resnet18(224, 1000, 2), 4, 4, 16.1};
  }
  if (name == "serve-vgg32") {
    return {name, qnn::models::vgg_like(32, 10, 2), 16, 4, 0.8};
  }
  if (name == "linked-alexnet") {
    return {name, qnn::models::alexnet(224, 1000, 2), 4, 4, 13.7};
  }
  throw qnn::Error("unknown workload '" + name +
                   "' (stream-resnet18, serve-vgg32, linked-alexnet)");
}

std::uint64_t param_seed(std::uint64_t seed) {
  return SplitMix(seed ^ 0x5eedULL).next();
}

std::vector<qnn::IntTensor> make_images(const qnn::Shape& shape, int count,
                                        std::uint64_t seed) {
  SplitMix rng(seed);
  std::vector<qnn::IntTensor> images;
  images.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    qnn::IntTensor t(shape);
    for (std::int64_t j = 0; j < t.size(); ++j) {
      t[j] = static_cast<std::int32_t>(rng.next() & 0xffU);
    }
    images.push_back(std::move(t));
  }
  return images;
}

void write_expected(const std::string& path, const Expected& expected) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto put = [&](std::uint64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(expected.size());
  for (const auto& e : expected) {
    put(e.size());
    out.write(reinterpret_cast<const char*>(e.data()),
              static_cast<std::streamsize>(e.size() * sizeof(std::int32_t)));
  }
  QNN_CHECK(out.good(), "cannot write expected outputs to " + path);
}

Expected read_expected(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  QNN_CHECK(in.good(), "cannot read expected outputs from " + path);
  const auto get = [&] {
    std::uint64_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof v);
    QNN_CHECK(in.good(), "truncated expected-output file " + path);
    return v;
  };
  const std::uint64_t n = get();
  QNN_CHECK(n <= 1024, "bad expected-output file " + path);
  Expected expected(n);
  for (auto& e : expected) {
    const std::uint64_t size = get();
    QNN_CHECK(size <= (1U << 24), "bad expected-output file " + path);
    e.resize(size);
    in.read(reinterpret_cast<char*>(e.data()),
            static_cast<std::streamsize>(size * sizeof(std::int32_t)));
    QNN_CHECK(in.good(), "truncated expected-output file " + path);
  }
  return expected;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t edge_values_per_image(const qnn::Pipeline& p) {
  std::uint64_t total = 0;
  for (int producer = -1; producer < p.size(); ++producer) {
    std::uint64_t consumers = 0;
    for (const qnn::Node& n : p.nodes) {
      if (n.main_from == producer) ++consumers;
      if (producer >= 0 && n.skip_from == producer) ++consumers;
    }
    const auto elems = static_cast<std::uint64_t>(
        producer < 0 ? p.input.elems() : p.node(producer).out.elems());
    // No consumer: the output stream. One: a direct edge. More: a trunk
    // into the fork plus one branch per consumer port.
    total += consumers <= 1 ? elems : elems * (consumers + 1);
  }
  return total;
}

std::uint64_t conv_bitops_per_image(const qnn::Pipeline& p) {
  std::uint64_t total = 0;
  for (const qnn::Node& n : p.nodes) {
    if (n.kind != qnn::NodeKind::Conv) continue;
    total += static_cast<std::uint64_t>(n.out.elems()) *
             static_cast<std::uint64_t>(n.k * n.k * n.in.c * n.in_bits);
  }
  return total;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  QNN_CHECK(std::isfinite(value), "metric " + name + " is not finite");
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
  }
  return out;
}

std::string Metrics::json() const {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", value);
    out << (i ? ", " : "") << '"' << order_[i] << "\": {\"value\": " << num
        << ", \"unit\": \"" << unit << "\"}";
  }
  out << '}';
  return out.str();
}

}  // namespace perfbench
