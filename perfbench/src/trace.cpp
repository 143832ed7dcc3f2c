#include "trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <vector>

#include "common.h"
#include "core/error.h"

namespace perfbench {

namespace {

struct Record {
  const char* name;
  std::string detail;
  double start_us;
  double end_us;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  std::uint64_t thread;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_request{1};
std::atomic<std::uint64_t> g_next_thread{1};
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu

thread_local std::uint64_t t_open = 0;  // innermost open span on this thread
thread_local std::uint64_t t_thread = 0;

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   process_start())
      .count();
}

}  // namespace

void trace_enable() { g_enabled.store(true); }
bool trace_enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t trace_new_request() { return g_next_request.fetch_add(1); }

std::size_t trace_span_count() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_records.size();
}

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  if (!trace_enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open;
  t_open = id_;
  start_us_ = now_us();
}

Span::~Span() {
  if (id_ == 0) return;
  const double end = now_us();
  t_open = parent_;
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
  const std::lock_guard<std::mutex> lock(g_mu);
  g_records.push_back(Record{name_, std::move(detail_), start_us_, end, id_,
                             parent_, request_, t_thread});
}

void Span::note(std::string detail) {
  if (id_ != 0) detail_ = std::move(detail);
}

void trace_write(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  QNN_CHECK(out.good(), "cannot write trace to " + path);
  const std::lock_guard<std::mutex> lock(g_mu);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\": %.3f, \"dur\": %.3f",
                  r.start_us, r.end_us - r.start_us);
    out << (i ? ",\n" : "") << "{\"name\": \"" << json_escape(r.name)
        << "\", \"ph\": \"X\", " << times << ", \"pid\": 1, \"tid\": "
        << r.thread << ", \"args\": {\"id\": " << r.id
        << ", \"parent\": " << r.parent << ", \"request\": " << r.request;
    if (!r.detail.empty()) {
      out << ", \"detail\": \"" << json_escape(r.detail) << '"';
    }
    out << "}}";
  }
  out << "\n]}\n";
  QNN_CHECK(out.good(), "cannot write trace to " + path);
}

}  // namespace perfbench
