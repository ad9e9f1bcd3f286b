#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// \file trace.hpp
/// The benchmark's own span recorder.  Spans wrap the benchmark's calls into
/// the library's public functions; nothing inside the library is
/// instrumented.  Spans stay in memory and are written out at exit.

namespace perfbench {

/// One timed interval.  `key` groups the spans of one request (its id);
/// `parent` indexes the enclosing span, or is -1 for a request's root.
/// A span's name is "<layer>.<call>", the layer being a module of the
/// library (svc, api, runtime, exec, obs) or gen for the benchmark's own
/// work.
struct Span {
  std::uint64_t key = 0;
  std::int32_t parent = -1;
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] std::uint64_t duration() const { return end_ns - start_ns; }
};

/// Thread-safe append-only span log.  Child spans of one parent must not
/// overlap each other and must lie inside it.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  std::int32_t open(std::uint64_t key, const char* name,
                    std::int32_t parent = -1);
  void close(std::int32_t span);
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  [[nodiscard]] std::uint64_t now() const;

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Closes its span when it goes out of scope.
class Scoped {
 public:
  Scoped(Tracer& t, std::uint64_t key, const char* name,
         std::int32_t parent = -1)
      : tracer_(t), span_(t.open(key, name, parent)) {}
  ~Scoped() { tracer_.close(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::int32_t id() const { return span_; }

 private:
  Tracer& tracer_;
  std::int32_t span_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.  Over one request the self times sum exactly
/// to the root span's duration.
[[nodiscard]] std::vector<std::uint64_t> self_times(
    const std::vector<Span>& spans);

/// The layer a span belongs to: its name up to the first '.'.
[[nodiscard]] std::string_view layer_of(const Span& s);

/// Writes the spans as a Chrome trace (one track per request root).
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace perfbench
