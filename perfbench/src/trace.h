// In-memory span recorder around the benchmark's calls into the program.
//
// A Span records its name, start, end, the span open on the same thread
// when it began (its parent) and a request id shared by the spans of one
// request. Spans stay in memory and are written once, at exit, as Chrome
// trace-event JSON (open it in https://ui.perfetto.dev or
// chrome://tracing). While tracing is off a Span costs one branch.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Turns recording on for the rest of the process.
void trace_enable();
[[nodiscard]] bool trace_enabled();
/// A fresh request id (never 0; 0 means "no request").
[[nodiscard]] std::uint64_t trace_new_request();
/// Spans recorded so far.
[[nodiscard]] std::size_t trace_span_count();
/// Writes every recorded span as Chrome trace-event JSON.
void trace_write(const std::string& path);

class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Free-form detail stored with the span (e.g. a node name).
  void note(std::string detail);

 private:
  const char* name_;
  std::uint64_t request_ = 0;
  std::uint64_t id_ = 0;  // 0 = not recording
  std::uint64_t parent_ = 0;
  double start_us_ = 0.0;
  std::string detail_;
};

}  // namespace perfbench
