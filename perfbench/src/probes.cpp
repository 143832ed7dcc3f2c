#include "probes.h"

#include <cstdlib>
#include <functional>

#include "common.h"
#include "core/bitops.h"
#include "core/simd/vec_ops.h"
#include "dataflow/engine.h"
#include "dataflow/linked_engine.h"
#include "partition/partitioner.h"
#include "plan/fifo_plan.h"
#include "sim/cycle_model.h"
#include "trace.h"
#include "verify/graph_check.h"

namespace perfbench {

namespace {

/// Median seconds of `reps` timed calls, each inside a span named `name`.
double median_seconds(int reps, const char* name,
                      const std::function<void()>& call) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const Span span(name);
    const auto t0 = Clock::now();
    call();
    samples.push_back(seconds_since(t0));
  }
  return median(std::move(samples));
}

/// Node `n` of a pipeline as a standalone one-node pipeline.
qnn::PipelineSegment lone_node(const qnn::Pipeline& pipeline,
                               const qnn::NetworkParams& params,
                               const qnn::Node& n) {
  qnn::PipelineSegment seg;
  seg.pipeline.name = pipeline.name + "/" + n.name;
  seg.pipeline.input = n.in;
  seg.pipeline.input_bits = n.in_bits;
  seg.pipeline.act_bits = pipeline.act_bits;
  qnn::Node copy = n;
  copy.main_from = -1;
  if (n.kind == qnn::NodeKind::Conv) {
    seg.params.convs.push_back(params.conv(n));
    copy.param = 0;
  } else if (n.kind == qnn::NodeKind::BnAct) {
    seg.params.bnacts.push_back(params.bnact(n));
    copy.param = 0;
  }
  seg.pipeline.num_conv_params = static_cast<int>(seg.params.convs.size());
  seg.pipeline.num_bnact_params = static_cast<int>(seg.params.bnacts.size());
  seg.pipeline.nodes.push_back(std::move(copy));
  seg.pipeline.validate();
  return seg;
}

}  // namespace

StaticProbe probe_static(const qnn::Pipeline& pipeline,
                         const qnn::NetworkParams& params) {
  StaticProbe p;
  p.verify_s = median_seconds(5, "probe.verify_graph", [&] {
    const qnn::Report r = qnn::verify_graph(pipeline, &params);
    QNN_CHECK(r.ok(), "verify_graph rejected the workload's network");
  });
  p.fifos_s = median_seconds(5, "probe.plan_fifos", [&] {
    const qnn::FifoPlan plan = qnn::plan_fifos(pipeline);
    QNN_CHECK(!plan.streams.empty(), "plan_fifos planned no stream");
  });
  p.partition_s = median_seconds(3, "probe.partition_optimal", [&] {
    const qnn::PartitionResult r = qnn::partition_optimal(pipeline);
    QNN_CHECK(r.num_dfes() >= 1, "partition_optimal placed nothing");
  });
  const qnn::SimConfig sim_config;
  qnn::SimResult sim;
  p.simulate_s = median_seconds(3, "probe.simulate", [&] {
    sim = qnn::simulate(pipeline, sim_config);
  });
  p.cycles_per_image = sim.steady_interval;
  p.total_cycles = sim.total_cycles;
  p.model_ms_per_image = sim.ms_per_image(sim_config);
  p.analytic_bottleneck = qnn::analytic_bottleneck_cycles(pipeline, sim_config);
  p.engine_build_s = median_seconds(3, "probe.engine_build", [&] {
    const qnn::StreamEngine engine(pipeline, params);
  });
  return p;
}

IsolationProbe probe_isolation(const qnn::Pipeline& pipeline,
                               const qnn::NetworkParams& params,
                               const qnn::IntTensor& image) {
  IsolationProbe probe;
  std::vector<qnn::IntTensor> outs(static_cast<std::size_t>(pipeline.size()));
  double slowest_conv = -1.0;
  for (int i = 0; i < pipeline.size(); ++i) {
    const qnn::Node& n = pipeline.node(i);
    const qnn::IntTensor& in =
        n.main_from < 0 ? image : outs[static_cast<std::size_t>(n.main_from)];
    if (n.kind == qnn::NodeKind::Add) {
      const qnn::IntTensor& skip = outs[static_cast<std::size_t>(n.skip_from)];
      qnn::IntTensor sum(n.out);
      for (std::int64_t j = 0; j < sum.size(); ++j) sum[j] = in[j] + skip[j];
      outs[static_cast<std::size_t>(i)] = std::move(sum);
      continue;
    }
    const qnn::PipelineSegment seg = lone_node(pipeline, params, n);
    qnn::EngineOptions options;
    options.pool_threads = 1;
    qnn::StreamEngine engine(seg.pipeline, seg.params, options);
    qnn::IntTensor out = engine.run_one(in);  // warm-up
    std::vector<double> ms;
    for (int r = 0; r < 3; ++r) {
      Span span("probe.kernel");
      span.note(n.name);
      const auto t0 = Clock::now();
      out = engine.run_one(in);
      ms.push_back(1e3 * seconds_since(t0));
    }
    const double t = median(std::move(ms));
    probe.sum_ms += t;
    if (t > probe.max_ms) {
      probe.max_ms = t;
      probe.bottleneck = n.name;
    }
    if (n.kind == qnn::NodeKind::Conv && t > slowest_conv) {
      slowest_conv = t;
      probe.bottleneck_conv = i;
    }
    outs[static_cast<std::size_t>(i)] = std::move(out);
  }
  const auto flat = outs.back().flat();
  probe.output.assign(flat.begin(), flat.end());
  return probe;
}

double probe_plane_gbitops(const qnn::Node& conv) {
  const Span span("probe.simd_plane");
  const std::int64_t bits = std::int64_t{conv.k} * conv.k * conv.in.c;
  const auto words = static_cast<std::size_t>(qnn::words_for_bits(bits));
  const auto filters = static_cast<std::size_t>(conv.out.c);
  SplitMix rng(0xb17b17);
  std::vector<qnn::Word> plane(words);
  std::vector<qnn::Word> weights(words * filters);
  for (auto& w : plane) w = rng.next();
  for (auto& w : weights) w = rng.next();
  if (bits % qnn::kWordBits != 0) {
    const qnn::Word tail = qnn::low_mask(static_cast<int>(bits % qnn::kWordBits));
    plane.back() &= tail;
    for (std::size_t f = 0; f < filters; ++f) weights[f * words + words - 1] &= tail;
  }
  std::vector<std::int64_t> acc(filters, 0);
  const qnn::simd::VecOps& ops = qnn::simd::vec_ops();
  const std::int64_t pop = static_cast<std::int64_t>(ops.popcount(plane.data(), words));
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.25) {
    for (int r = 0; r < 64; ++r) {
      ops.accumulate_plane(plane.data(), words, pop, weights.data(), words,
                           filters, 0, acc.data());
    }
    calls += 64;
    elapsed = seconds_since(t0);
  }
  // Keep the accumulators observable so the calls cannot be elided.
  std::int64_t check = 0;
  for (const std::int64_t a : acc) check ^= a;
  if (check == 0x7fffffffffffffffLL) std::abort();
  return static_cast<double>(calls) * static_cast<double>(filters) *
         static_cast<double>(bits) / elapsed / 1e9;
}

double probe_empty_run_us() {
  qnn::NetworkSpec spec;
  spec.name = "minimal";
  spec.input = qnn::Shape{2, 2, 1};
  spec.max_pool(2, 2);
  const qnn::Pipeline pipeline = qnn::expand(spec);
  const qnn::NetworkParams params;
  qnn::StreamEngine engine(pipeline, params);
  qnn::IntTensor image(spec.input, 1);
  for (int r = 0; r < 50; ++r) (void)engine.run_one(image);
  std::vector<double> us;
  for (int r = 0; r < 400; ++r) {
    const Span span("probe.empty_run");
    const auto t0 = Clock::now();
    (void)engine.run_one(image);
    us.push_back(1e6 * seconds_since(t0));
  }
  return median(std::move(us));
}

SegmentProbe probe_segments(const qnn::Pipeline& pipeline,
                            const qnn::NetworkParams& params,
                            const std::vector<int>& cuts,
                            const qnn::IntTensor& image) {
  SegmentProbe probe;
  qnn::IntTensor in = image;
  int first = 0;
  for (std::size_t s = 0; s <= cuts.size(); ++s) {
    const int last = s < cuts.size() ? cuts[s] : pipeline.size() - 1;
    const qnn::PipelineSegment seg =
        qnn::extract_segment(pipeline, params, first, last);
    qnn::StreamEngine engine(seg.pipeline, seg.params);
    qnn::IntTensor out = engine.run_one(in);  // warm-up
    std::vector<double> ms;
    for (int r = 0; r < 3; ++r) {
      const Span span("probe.segment");
      const auto t0 = Clock::now();
      out = engine.run_one(in);
      ms.push_back(1e3 * seconds_since(t0));
    }
    probe.ms.push_back(median(std::move(ms)));
    in = std::move(out);
    first = last + 1;
  }
  const auto flat = in.flat();
  probe.output.assign(flat.begin(), flat.end());
  return probe;
}

int middle_chain_cut(const qnn::Pipeline& pipeline) {
  const int n = pipeline.size();
  int best = -1;
  for (int c = 0; c + 1 < n; ++c) {
    // Node c's output must be the only stream over the cut: it has one
    // consumer, and no later node reads anything before c.
    bool chain = pipeline.consumers(c).size() == 1;
    for (int j = c + 1; j < n && chain; ++j) {
      const qnn::Node& node = pipeline.node(j);
      chain = node.main_from >= c && (node.skip_from < 0 || node.skip_from > c);
    }
    if (chain && (best < 0 || std::abs(2 * c - (n - 1)) < std::abs(2 * best - (n - 1)))) {
      best = c;
    }
  }
  return best;
}

}  // namespace perfbench
