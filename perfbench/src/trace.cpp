#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

std::uint64_t Tracer::now() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::int32_t Tracer::open(std::uint64_t key, const char* name,
                          std::int32_t parent) {
  const std::uint64_t t = now();
  std::lock_guard lock(mu_);
  spans_.push_back(Span{key, parent, name, t, t});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t span) {
  const std::uint64_t t = now();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_ns = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the span.
    std::uint64_t covered = 0;
    std::uint64_t reach = spans[i].start_ns;
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, spans[i].end_ns);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

std::string_view layer_of(const Span& s) {
  const std::string_view name(s.name);
  return name.substr(0, name.find('.'));
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  // Track = the request's root span index, so each request renders as
  // one row with its children nested under it.
  std::vector<std::int32_t> track(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    track[i] = p < 0 ? static_cast<std::int32_t>(i)
                     : track[static_cast<std::size_t>(p)];
  }
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i) out << ",";
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << layer_of(s)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << track[i]
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.duration()) / 1e3
        << ",\"args\":{\"key\":" << s.key << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
