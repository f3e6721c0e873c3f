// Measurement primitives of the load benchmark: exact-quantile sample
// sets, an in-memory span tracer, and process/host facts.
//
// Nothing here reaches into the library: quantiles are computed from
// every recorded sample (no histogram buckets), and spans are opened only
// by the benchmark's own client and handler code (ops.cpp, stack.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace loadbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns();

/// Quantiles of one sample set. `tail` is the highest integer percentile
/// (at most 99) that still has at least 10 samples beyond it, so a tail
/// figure is never read off a handful of outliers.
struct Quantiles {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  int tail_pct = 0;
  double mean = 0.0;
};

[[nodiscard]] Quantiles quantiles(std::vector<double> samples);

/// Median of a small vector (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

// --- Spans ------------------------------------------------------------------

/// One closed span. `parent` is the id of the span that was open on the
/// same thread when this one started (0 = root). `request` pairs a
/// client call span with the server handler span serving it (a hash of
/// the request body both sides see; 0 = none).
struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

/// Every span recorded so far, from all threads. Each thread appends to
/// its own buffer (no shared lock on the hot path); this gathers them once
/// the run ended.
[[nodiscard]] std::vector<Span> collect_spans();

/// RAII span on the calling thread. A null `name` records nothing.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  std::uint64_t saved_parent_ = 0;
};

/// Runs `fn` inside a span named `name` when `traced`, bare otherwise.
template <typename Fn>
decltype(auto) in_span(bool traced, const char* name, Fn&& fn) {
  ScopedSpan span(traced ? name : nullptr);
  return fn();
}

// --- Process and host -------------------------------------------------------

/// User + system CPU time of the whole process, in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of the process, in MiB.
[[nodiscard]] double peak_rss_mb();

struct HostFacts {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string cpu_flags;  // the subset this benchmark cares about
};

[[nodiscard]] HostFacts host_facts();

/// FNV-1a 64 over bytes, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n,
                                  std::uint64_t h = 1469598103934665603ull);
[[nodiscard]] std::uint64_t fnv_u64(std::uint64_t v, std::uint64_t h);

/// Pairs a client call span with the handler span serving it: both sides
/// hash the same request body.
[[nodiscard]] inline std::uint64_t request_key(std::span<const std::uint8_t> body) {
  return fnv1a(body.data(), body.size());
}

}  // namespace loadbench
