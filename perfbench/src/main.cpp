// qnn-stream end-to-end benchmark.
//
//   perfbench oracle --workload W --seed N --out FILE
//       Generates the run's inputs and writes the oracle's expected output
//       for every distinct image (run it in its own process, so neither its
//       time nor its memory counts toward the measured run).
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --expect FILE [--trace-out FILE] [--commit ID]
//       Sets the workload up, measures it for S seconds, checks every output
//       against FILE and prints the result as the last line of stdout. With
//       --trace 1 it records spans, runs the per-layer probes and prints the
//       per-layer metrics instead of the end-to-end ones.
//
// Workloads (closed loops; the load comes from this one process):
//   stream-resnet18  DfeSession, ResNet-18 224x224: batched then single-image
//   serve-vgg32      2-replica DfeServer, VGG-like 32x32, 4 client threads
//   linked-alexnet   LinkedEngine, AlexNet 224x224, the default cut
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/error.h"
#include "core/simd/vec_ops.h"
#include "dataflow/engine.h"
#include "dataflow/linked_engine.h"
#include "host/session.h"
#include "oracle.h"
#include "probes.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench {
namespace {

using qnn::IntTensor;
using RunStats = qnn::StreamEngine::RunStats;

constexpr int kClients = 4;         // serve: closed-loop client threads
constexpr int kServeReplicas = 2;   // serve: DfeServer replicas
constexpr double kBatchedShare = 0.4;  // share of --seconds in phase A
constexpr double kSliceSeconds = 2.5;  // one batched + one single slice
constexpr double kServeSliceSeconds = 1.0;  // serve: ~150 requests a slice

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string expect;
  std::string out;
  std::string trace_out;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  QNN_CHECK(argc >= 2, "usage: perfbench oracle|run --workload W --seed N ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--expect") {
      a.expect = value;
    } else if (key == "--out") {
      a.out = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else {
      throw qnn::Error("unknown argument " + key);
    }
  }
  QNN_CHECK(a.mode == "oracle" || a.mode == "run", "mode must be oracle or run");
  QNN_CHECK(a.seconds > 0.0, "--seconds must be positive");
  return a;
}

/// Everything one run owns: inputs, expected outputs, counts and metrics.
struct Run {
  Workload w;
  qnn::Pipeline pipeline;
  qnn::NetworkParams params;
  std::vector<IntTensor> images;
  Expected expected;
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<bool> correct{true};
  std::mutex problems_mu;
  std::vector<std::string> problems;  // guarded by problems_mu

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    const std::lock_guard<std::mutex> lock(problems_mu);
    if (problems.size() < 20) problems.push_back(what);
  }
  void fail(std::uint64_t ops, const std::string& what) {
    failed += ops;
    const std::lock_guard<std::mutex> lock(problems_mu);
    if (problems.size() < 20) problems.push_back("failed: " + what);
  }
  [[nodiscard]] std::size_t distinct() const { return images.size(); }
};

/// Outcome of a batched phase followed by a single-image phase.
struct Phases {
  double setup_s = 0.0;  // the one cold compile or constructor call
  double batched_images_per_s = 0.0;
  double single_images_per_s = 0.0;
  std::vector<double> latency_ms;  // single-image phase, every call
  double latency_p50_ms = 0.0;     // slice_percentile of the single calls
  double latency_p90_ms = 0.0;
  std::uint64_t batched_images = 0;
  RunStats stats;  // summed over the timed batched calls
};

using BatchFn = std::function<std::vector<IntTensor>(std::span<const IntTensor>,
                                                     RunStats*)>;
using SingleFn = std::function<IntTensor(const IntTensor&)>;
using StatsCheck = std::function<void(const RunStats&, std::size_t)>;

void add_stats(RunStats& sum, const RunStats& s) {
  sum.values_streamed += s.values_streamed;
  sum.stream_transactions += s.stream_transactions;
  sum.push_stalls += s.push_stalls;
  sum.pop_stalls += s.pop_stalls;
  sum.link_frames += s.link_frames;
  sum.link_retransmits += s.link_retransmits;
  sum.link_failovers += s.link_failovers;
}

/// The median over the slices of each slice's p-th percentile (empty
/// slices skipped), so a burst of host contention inside a few slices does
/// not move it.
double slice_percentile(const std::vector<std::vector<double>>& slices, double p) {
  std::vector<double> per_slice;
  for (const std::vector<double>& s : slices) {
    if (!s.empty()) per_slice.push_back(percentile(s, p));
  }
  return median(std::move(per_slice));
}

/// Phase A repeats batched calls over a fixed rotation of the distinct
/// images for `batched_s` in all; phase B repeats single-image calls for
/// `single_s` in all (0 skips it). One untimed warm-up call of each kind
/// runs first. Every output is checked against the oracle and every batched
/// call's RunStats by `check_stats`.
Phases run_phases(Run& run, const std::string& label, const BatchFn& batch,
                  const SingleFn& single, double batched_s, double single_s,
                  const StatsCheck& check_stats) {
  Phases p;
  const auto b = static_cast<std::size_t>(run.w.batch);
  const std::string batch_span = label + ".batch";
  const std::string single_span = label + ".single";
  std::vector<std::size_t> ids(b);
  std::vector<IntTensor> inputs(b);
  std::size_t next = 0;

  const auto batched_call = [&](bool timed) {
    for (std::size_t j = 0; j < b; ++j) {
      ids[j] = next++ % run.distinct();
      inputs[j] = run.images[ids[j]];
    }
    run.attempted += b;
    RunStats st;
    double dt = 0.0;
    std::vector<IntTensor> out;
    try {
      const Span span(batch_span.c_str(), trace_new_request());
      const auto t0 = Clock::now();
      out = batch(inputs, &st);
      dt = seconds_since(t0);
    } catch (const std::exception& e) {
      run.fail(b, label + " batch: " + e.what());
      return 0.0;
    }
    run.check(out.size() == b, label + ": a batch of " + std::to_string(b) +
                                   " returned " + std::to_string(out.size()));
    for (std::size_t j = 0; j < std::min(b, out.size()); ++j) {
      run.check(matches(out[j], run.expected[ids[j]]),
                label + ": batched output of image " + std::to_string(ids[j]) +
                    " differs from the oracle");
    }
    check_stats(st, b);
    if (timed) {
      add_stats(p.stats, st);
      p.batched_images += b;
    }
    return dt;
  };
  const auto single_call = [&](std::size_t id) {
    run.attempted += 1;
    try {
      const Span span(single_span.c_str(), trace_new_request());
      const auto t0 = Clock::now();
      const IntTensor out = single(run.images[id]);
      const double dt = seconds_since(t0);
      run.check(matches(out, run.expected[id]),
                label + ": output of image " + std::to_string(id) +
                    " differs from the oracle");
      return dt;
    } catch (const std::exception& e) {
      run.fail(1, label + " single: " + e.what());
      return -1.0;
    }
  };

  (void)batched_call(false);
  if (single_s > 0.0) (void)single_call(0);

  // The two phases alternate in slices, so each samples the whole run
  // rather than one end of it. Batched throughput is the median of the
  // slices' throughputs and the latencies are slice_percentile()s, so a
  // burst of host contention inside one slice does not move them.
  const double total = batched_s + single_s;
  const int slices = std::max(1, static_cast<int>(std::lround(total / kSliceSeconds)));
  std::vector<double> slice_rates;
  std::vector<std::vector<double>> slice_latency_ms(static_cast<std::size_t>(slices));
  double single_busy = 0.0;
  std::size_t r = 0;
  for (int slice = 0; slice < slices; ++slice) {
    const std::uint64_t images_before = p.batched_images;
    double busy = 0.0;
    const auto a0 = Clock::now();
    while (seconds_since(a0) < batched_s / slices) busy += batched_call(true);
    if (busy > 0.0) {
      slice_rates.push_back(
          static_cast<double>(p.batched_images - images_before) / busy);
    }
    const auto b0 = Clock::now();
    while (seconds_since(b0) < single_s / slices) {
      const double dt = single_call(r++ % run.distinct());
      if (dt < 0.0) continue;
      single_busy += dt;
      p.latency_ms.push_back(1e3 * dt);
      slice_latency_ms[static_cast<std::size_t>(slice)].push_back(1e3 * dt);
    }
  }
  p.batched_images_per_s = median(std::move(slice_rates));
  p.latency_p50_ms = slice_percentile(slice_latency_ms, 50);
  p.latency_p90_ms = slice_percentile(slice_latency_ms, 90);
  p.single_images_per_s =
      single_busy > 0.0 ? static_cast<double>(p.latency_ms.size()) / single_busy
                        : 0.0;
  return p;
}

/// Values streamed per batched call must equal the node shapes' edge sizes.
StatsCheck engine_stats_check(Run& run) {
  const std::uint64_t per_image = edge_values_per_image(run.pipeline);
  return [&run, per_image](const RunStats& st, std::size_t images) {
    run.check(st.values_streamed == per_image * images,
              "engine: " + std::to_string(st.values_streamed) +
                  " values streamed for " + std::to_string(images) +
                  " images, the node shapes give " +
                  std::to_string(per_image * images));
  };
}

Phases session_phases(Run& run, double batched_s, double single_s) {
  std::optional<qnn::DfeSession> session;
  double setup_s = 0.0;
  {
    const Span span("setup.dfe_session");
    const auto t0 = Clock::now();
    session.emplace(qnn::DfeSession::compile(run.w.spec, run.params));
    setup_s = seconds_since(t0);
  }
  Phases p = run_phases(
      run, "dfe",
      [&](std::span<const IntTensor> in, RunStats* st) {
        return session->infer_batch(in, st);
      },
      [&](const IntTensor& in) { return session->infer(in); }, batched_s,
      single_s, engine_stats_check(run));
  p.setup_s = setup_s;
  return p;
}

/// One StreamEngine over the whole pipeline, batched only.
Phases engine_phases(Run& run, double batched_s) {
  qnn::StreamEngine engine(run.pipeline, run.params);
  return run_phases(
      run, "engine",
      [&](std::span<const IntTensor> in, RunStats* st) { return engine.run(in, st); },
      [&](const IntTensor& in) { return engine.run_one(in); }, batched_s, 0.0,
      engine_stats_check(run));
}

// ---- link layer -----------------------------------------------------------

/// Values per MaxRing frame: the engine's override, else its 256-value
/// default (the benchmark passes no planned bursts).
std::uint64_t frame_values() {
  const qnn::LinkedEngineOptions defaults;
  return defaults.frame_values != 0 ? defaults.frame_values : 256;
}

/// Frames one image must ship over `cuts`: each crossing tensor's values
/// over the frame size, rounded up.
std::uint64_t expected_frames_per_image(const qnn::Pipeline& p,
                                        const std::vector<int>& cuts) {
  const std::uint64_t frame = frame_values();
  std::uint64_t frames = 0;
  for (const int c : cuts) {
    const auto values = static_cast<std::uint64_t>(p.node(c).out.elems());
    frames += (values + frame - 1) / frame;
  }
  return frames;
}

/// Modelled wire time per image: every frame occupies its values' bits
/// rounded up to whole link words, at the fabric clock.
double wire_ms_per_image(const qnn::Pipeline& p, const std::vector<int>& cuts) {
  const qnn::PartitionConfig wire;
  const std::uint64_t frame = frame_values();
  const auto width = static_cast<std::uint64_t>(wire.link_bits_per_cycle);
  std::uint64_t cycles = 0;
  for (const int c : cuts) {
    const auto values = static_cast<std::uint64_t>(p.node(c).out.elems());
    const auto bits = static_cast<std::uint64_t>(p.node(c).out_bits);
    for (std::uint64_t v = 0; v < values; v += frame) {
      cycles += (std::min(frame, values - v) * bits + width - 1) / width;
    }
  }
  return 1e3 * static_cast<double>(cycles) / wire.clock_hz;
}

/// LinkedEngine phases over `cuts` (empty = the engine's default cut).
Phases linked_phases(Run& run, const std::vector<int>& cuts, double batched_s,
                     double single_s, std::vector<int>& used_cuts) {
  qnn::LinkedEngineOptions options;
  options.cut_after_nodes = cuts;
  std::optional<qnn::LinkedEngine> engine;
  double setup_s = 0.0;
  {
    const Span span("setup.linked_engine");
    const auto t0 = Clock::now();
    engine.emplace(run.pipeline, run.params, options);
    setup_s = seconds_since(t0);
  }
  // The cut the engine was built with; after a failover the engine's own
  // cut_after_nodes() names the degraded plan instead.
  used_cuts = engine->cut_after_nodes();
  const int segments = engine->segments();
  run.check(engine->links() == static_cast<int>(used_cuts.size()) &&
                segments == engine->links() + 1,
            "linked: link or segment count differs from the cut");
  const std::uint64_t frames_per_image =
      expected_frames_per_image(run.pipeline, used_cuts);
  // The links are in-process and healthy: every batch ships exactly the
  // frames of the built cut, with no retransmit, and the chain never fails
  // over. Exact outputs from a degraded chain are still a wrong run, since
  // its figures would measure another configuration.
  const StatsCheck check = [&](const RunStats& st, std::size_t images) {
    run.check(st.link_retransmits == 0 && st.link_failovers == 0,
              "linked: " + std::to_string(st.link_retransmits) +
                  " retransmits, " + std::to_string(st.link_failovers) +
                  " failovers in a batch on a healthy link");
    run.check(st.link_frames == images * frames_per_image,
              "linked: " + std::to_string(st.link_frames) + " frames for " +
                  std::to_string(images) + " images, the built cut gives " +
                  std::to_string(images * frames_per_image));
  };
  Phases p = run_phases(
      run, "linked",
      [&](std::span<const IntTensor> in, RunStats* st) { return engine->run(in, st); },
      [&](const IntTensor& in) {
        IntTensor out = engine->run_one(in);
        run.check(engine->plan_failovers() == 0 && engine->segments() == segments,
                  "linked: a single-image call failed over to " +
                      std::to_string(engine->segments()) + " segment(s)");
        return out;
      },
      batched_s, single_s, check);
  p.setup_s = setup_s;
  return p;
}

// ---- serving --------------------------------------------------------------

/// Closed-loop serving: kClients threads send single-image requests back to
/// back for `seconds`, after two untimed warm-up requests each.
struct Serving {
  double setup_s = 0.0;  // the DfeServer constructor, cold
  double images_per_s = 0.0;
  double latency_p50_ms = 0.0;  // slice_percentile of the client latencies
  double latency_p90_ms = 0.0;
  std::vector<double> latency_ms, queue_ms, form_ms, run_ms, handoff_ms;
  double batch_size_mean = 0.0;
  qnn::MetricsSnapshot snapshot;
};

Serving run_serving(Run& run, double seconds) {
  Serving s;
  qnn::ServerConfig config;
  config.replicas = kServeReplicas;
  std::optional<qnn::DfeServer> server;
  {
    const Span span("setup.dfe_server");
    const auto t0 = Clock::now();
    server.emplace(run.w.spec, run.params, config);
    s.setup_s = seconds_since(t0);
  }

  struct Sample {
    double client_us, queue_us, form_us, total_us;
    double end_s;  // completion, seconds into the window
  };
  std::vector<std::vector<Sample>> samples(kClients);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> sent{0};
  Clock::time_point window_start;

  const auto request = [&](int client, std::size_t id, bool timed) {
    run.attempted += 1;
    sent += 1;
    const Span span("serve.request", trace_new_request());
    const auto t0 = Clock::now();
    const qnn::InferenceResult r = server->submit(run.images[id], 0);
    const double client_us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (!r.ok()) {
      run.fail(1, std::string("serve: status ") + qnn::to_string(r.status) +
                      " " + r.error);
      return;
    }
    run.check(matches(r.logits, run.expected[id]),
              "serve: the reply for image " + std::to_string(id) +
                  " differs from the oracle");
    run.check(client_us >= r.total_us,
              "serve: client latency below the server's total_us");
    if (timed) {
      samples[static_cast<std::size_t>(client)].push_back(
          {client_us, r.queue_wait_us, r.batch_form_us, r.total_us,
           seconds_since(window_start)});
    }
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const auto image = [&](std::size_t k) {
        return (static_cast<std::size_t>(c) + kClients * k) % run.distinct();
      };
      request(c, image(0), false);
      request(c, image(1), false);
      ready += 1;
      while (!go.load()) std::this_thread::yield();
      for (std::size_t k = 2; seconds_since(window_start) < seconds; ++k) {
        request(c, image(k), true);
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  window_start = Clock::now();
  go = true;
  for (std::thread& t : clients) t.join();
  server->stop();
  s.snapshot = server->metrics().snapshot();

  for (const auto& per_client : samples) {
    for (const Sample& x : per_client) {
      s.latency_ms.push_back(x.client_us / 1e3);
      s.queue_ms.push_back(x.queue_us / 1e3);
      s.form_ms.push_back(x.form_us / 1e3);
      s.run_ms.push_back((x.total_us - x.queue_us - x.form_us) / 1e3);
      s.handoff_ms.push_back((x.client_us - x.total_us) / 1e3);
    }
  }
  // Throughput is the median over the window's slices of each slice's
  // completion rate (completions after its first over the time from its
  // first to its last), and the latencies are slice_percentile()s by
  // completion time, as for the batched and single-image phases.
  const auto slices = static_cast<std::size_t>(
      std::max(1L, std::lround(seconds / kServeSliceSeconds)));
  const double slice_s = seconds / static_cast<double>(slices);
  std::vector<std::vector<double>> slice_end_s(slices);
  std::vector<std::vector<double>> slice_latency_ms(slices);
  for (const auto& per_client : samples) {
    for (const Sample& x : per_client) {
      const auto slice = static_cast<std::size_t>(x.end_s / slice_s);
      if (slice >= slices) continue;
      slice_end_s[slice].push_back(x.end_s);
      slice_latency_ms[slice].push_back(x.client_us / 1e3);
    }
  }
  std::vector<double> slice_rates;
  for (const std::vector<double>& ends : slice_end_s) {
    if (ends.size() < 2) continue;
    const auto [first, last] = std::minmax_element(ends.begin(), ends.end());
    if (*last > *first) {
      slice_rates.push_back(static_cast<double>(ends.size() - 1) / (*last - *first));
    }
  }
  s.images_per_s = median(std::move(slice_rates));
  s.latency_p50_ms = slice_percentile(slice_latency_ms, 50);
  s.latency_p90_ms = slice_percentile(slice_latency_ms, 90);
  s.batch_size_mean = s.snapshot.mean_batch_size();

  // Every request completed exactly once, nothing was refused or retried,
  // and the engines streamed exactly what the node shapes imply.
  const qnn::MetricsSnapshot& m = s.snapshot;
  run.check(m.submitted == sent.load() && m.completed == sent.load(),
            "serve: " + std::to_string(sent.load()) + " requests sent, " +
                std::to_string(m.submitted) + " submitted, " +
                std::to_string(m.completed) + " completed");
  run.check(m.errors == 0 && m.rejected() == 0 && m.retries == 0,
            "serve: the server reported errors, rejections or retries");
  run.check(m.values_streamed ==
                m.batched_requests * edge_values_per_image(run.pipeline),
            "serve: values streamed differ from the node shapes' edge sizes");
  return s;
}

// ---- the run ----------------------------------------------------------------

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// What the workload's own measurement leaves for the per-layer metrics.
struct Measured {
  Phases phases;          // stream-resnet18, linked-alexnet
  Serving serving;        // serve-vgg32
  std::vector<int> cuts;  // linked-alexnet
  double images_per_s = 0.0;
  double latency_p50_ms = 0.0;
};

Measured measure(Run& run, double seconds, Metrics& e2e) {
  Measured m;
  double setup_s = 0.0;
  double p90 = 0.0;
  if (run.w.name == "serve-vgg32") {
    m.serving = run_serving(run, seconds);
    setup_s = m.serving.setup_s;
    m.images_per_s = m.serving.images_per_s;
    m.latency_p50_ms = m.serving.latency_p50_ms;
    p90 = m.serving.latency_p90_ms;
  } else {
    const double a = seconds * kBatchedShare;
    const double b = seconds - a;
    m.phases = run.w.name == "stream-resnet18"
                   ? session_phases(run, a, b)
                   : linked_phases(run, {}, a, b, m.cuts);
    setup_s = m.phases.setup_s;
    m.images_per_s = m.phases.batched_images_per_s;
    m.latency_p50_ms = m.phases.latency_p50_ms;
    p90 = m.phases.latency_p90_ms;
  }
  // Set-up is the one cold compile or constructor call that takes the
  // spec and parameters to ready-to-infer; the process's first.
  e2e.set("setup_s", setup_s, "s");
  e2e.set("images_per_s", m.images_per_s, "images/s");
  e2e.set("latency_p50_ms", m.latency_p50_ms, "ms");
  e2e.set("latency_p90_ms", p90, "ms");
  e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  return m;
}

constexpr double kProbeSeconds = 2.0;

void per_layer(Run& run, const Measured& m, Metrics& out) {
  const bool serve = run.w.name == "serve-vgg32";
  const bool linked = run.w.name == "linked-alexnet";

  const StaticProbe sp = probe_static(run.pipeline, run.params);
  run.check(sp.cycles_per_image >= sp.analytic_bottleneck,
            "sim: steady interval " + std::to_string(sp.cycles_per_image) +
                " below the analytic bottleneck " +
                std::to_string(sp.analytic_bottleneck));
  out.set("sim.simulate_s", sp.simulate_s, "s");
  out.set("sim.cycles_per_host_s",
          static_cast<double>(sp.total_cycles) / sp.simulate_s, "cycles/s");
  out.set("sim.cycles_per_image", static_cast<double>(sp.cycles_per_image),
          "cycles");
  out.set("sim.model_ms_per_image", sp.model_ms_per_image, "ms");
  out.set("sim.paper_error_pct",
          100.0 * (sp.model_ms_per_image - run.w.paper_ms) / run.w.paper_ms, "%");
  out.set("verify.graph_s", sp.verify_s, "s");
  out.set("plan.fifos_s", sp.fifos_s, "s");
  out.set("partition.optimal_s", sp.partition_s, "s");
  out.set("dataflow.engine_build_s", sp.engine_build_s, "s");

  // Engine figures: the workload's own phases, or (serve) a DfeSession on
  // the same network.
  const Phases engine = serve ? session_phases(run, kProbeSeconds, kProbeSeconds)
                              : m.phases;
  const double bitops = static_cast<double>(conv_bitops_per_image(run.pipeline));
  const double single_p50 = engine.latency_p50_ms;
  out.set("dataflow.bitops_per_image", bitops, "bitops");
  out.set("dataflow.gbitops_per_s", bitops * engine.batched_images_per_s / 1e9,
          "Gbitops/s");
  out.set("dataflow.batch_gain",
          engine.batched_images_per_s / engine.single_images_per_s, "x");

  std::uint64_t values = engine.stats.values_streamed;
  std::uint64_t transactions = engine.stats.stream_transactions;
  std::uint64_t push = engine.stats.push_stalls;
  std::uint64_t pop = engine.stats.pop_stalls;
  double images = static_cast<double>(engine.batched_images);
  if (serve) {
    const qnn::MetricsSnapshot& s = m.serving.snapshot;
    values = s.values_streamed;
    transactions = s.stream_transactions;
    push = s.push_stalls;
    pop = s.pop_stalls;
    images = static_cast<double>(s.batched_requests);
  }
  out.set("dataflow.values_per_image", static_cast<double>(values) / images,
          "values");
  out.set("dataflow.burst_occupancy",
          static_cast<double>(values) / static_cast<double>(transactions),
          "values");
  out.set("dataflow.push_stalls_per_image", static_cast<double>(push) / images,
          "count");
  out.set("dataflow.pop_stalls_per_image", static_cast<double>(pop) / images,
          "count");

  const IsolationProbe iso = probe_isolation(run.pipeline, run.params, run.images[0]);
  run.check(iso.output == run.expected[0],
            "isolated kernels: chained output differs from the oracle");
  std::cout << "# bottleneck kernel: " << iso.bottleneck << " " << iso.max_ms
            << " ms of " << iso.sum_ms << " ms\n";
  out.set("dataflow.kernel_cpu_ms", iso.sum_ms, "ms");
  out.set("dataflow.bottleneck_kernel_ms", iso.max_ms, "ms");
  out.set("dataflow.bottleneck_share", iso.max_ms / iso.sum_ms, "ratio");
  out.set("dataflow.parallel_speedup", iso.sum_ms / single_p50, "x");
  out.set("dataflow.empty_run_us", probe_empty_run_us(), "us");
  out.set("simd.plane_gbitops_per_s",
          probe_plane_gbitops(run.pipeline.node(iso.bottleneck_conv)),
          "Gbitops/s");

  const Serving serving = serve ? m.serving : run_serving(run, kProbeSeconds);
  out.set("serve.queue_wait_ms_p50", percentile(serving.queue_ms, 50), "ms");
  out.set("serve.batch_form_ms_p50", percentile(serving.form_ms, 50), "ms");
  out.set("serve.run_ms_p50", percentile(serving.run_ms, 50), "ms");
  out.set("serve.handoff_ms_p50", percentile(serving.handoff_ms, 50), "ms");
  out.set("serve.batch_size_mean", serving.batch_size_mean, "requests");
  out.set("serve.latency_p99_ms", percentile(serving.latency_ms, 99), "ms");

  // Link figures: the workload's own chain, or a 2-segment chain cut at the
  // middle chain boundary of the workload's network.
  std::vector<int> cuts = m.cuts;
  Phases chain;
  if (linked) {
    chain = m.phases;
  } else {
    const int cut = middle_chain_cut(run.pipeline);
    QNN_CHECK(cut >= 0, "no chain cut in " + run.pipeline.name);
    chain = linked_phases(run, {cut}, kProbeSeconds, 0.0, cuts);
  }
  const double chain_images = static_cast<double>(chain.batched_images);
  out.set("link.frames_per_image",
          static_cast<double>(chain.stats.link_frames) / chain_images, "frames");
  out.set("link.retransmits_per_image",
          static_cast<double>(chain.stats.link_retransmits) / chain_images,
          "count");
  out.set("link.failovers", static_cast<double>(chain.stats.link_failovers),
          "count");
  out.set("link.wire_ms_per_image", wire_ms_per_image(run.pipeline, cuts), "ms");
  const SegmentProbe seg = probe_segments(run.pipeline, run.params, cuts,
                                          run.images[0]);
  run.check(seg.output == run.expected[0],
            "segments: chained output differs from the oracle");
  double seg_sum = 0.0;
  for (const double ms : seg.ms) seg_sum += ms;
  const double seg_max = *std::max_element(seg.ms.begin(), seg.ms.end());
  out.set("link.segment_max_ms", seg_max, "ms");
  out.set("link.segment_imbalance",
          seg_max / (seg_sum / static_cast<double>(seg.ms.size())), "ratio");
  const Phases one = engine_phases(run, kProbeSeconds);
  out.set("link.chain_vs_single",
          chain.batched_images_per_s / one.batched_images_per_s, "x");

  out.set("trace.images_per_s", m.images_per_s, "images/s");
  out.set("trace.latency_p50_ms", m.latency_p50_ms, "ms");
  out.set("trace.spans", static_cast<double>(trace_span_count()), "count");
}

void print_fingerprint(const Args& a) {
  std::cout << "# host {\"cores\": " << std::thread::hardware_concurrency()
            << ", \"simd\": \"" << qnn::simd::vec_ops().name
            << "\", \"compiler\": \"" << json_escape(__VERSION__)
            << "\", \"build\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"commit\": \"" << json_escape(a.commit) << "\"}\n";
}

std::vector<std::vector<std::int32_t>> oracle_outputs(const Run& run) {
  const Oracle oracle(run.pipeline, run.params);
  Expected expected(run.distinct());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < expected.size(); i = next++) {
      expected[i] = oracle.run(run.images[i]);
    }
  };
  std::vector<std::thread> threads;
  const unsigned n = std::max(1U, std::min(4U, std::thread::hardware_concurrency()));
  for (unsigned t = 0; t < n; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  return expected;
}

int main_impl(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.trace != 0) trace_enable();
  Run run;
  run.w = make_workload(a.workload);
  {
    const Span span("setup.inputs");
    run.pipeline = qnn::expand(run.w.spec);
    run.params = qnn::NetworkParams::random(run.pipeline, param_seed(a.seed));
    run.images = make_images(run.w.spec.input, run.w.distinct_images, a.seed);
  }
  if (a.mode == "oracle") {
    QNN_CHECK(!a.out.empty(), "oracle needs --out");
    write_expected(a.out, oracle_outputs(run));
    return 0;
  }
  QNN_CHECK(!a.expect.empty(), "run needs --expect");
  run.expected = read_expected(a.expect);
  QNN_CHECK(run.expected.size() == run.distinct(),
            "expected-output file does not match the workload");
  print_fingerprint(a);

  Metrics e2e;
  Metrics layer;
  const Measured m = measure(run, a.seconds, e2e);
  if (a.trace != 0) {
    per_layer(run, m, layer);
    if (!a.trace_out.empty()) {
      trace_write(a.trace_out);
      std::cout << "# trace written to " << a.trace_out << "\n";
    }
  }
  for (const std::string& p : run.problems) std::cerr << "perfbench: " << p << "\n";
  std::cout << "{\"correct\": " << (run.correct ? "true" : "false")
            << ", \"attempted\": " << run.attempted.load()
            << ", \"failed\": " << run.failed.load()
            << ", \"metrics\": " << (a.trace != 0 ? layer : e2e).json() << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
