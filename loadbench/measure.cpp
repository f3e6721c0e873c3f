#include "measure.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>

namespace loadbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Quantiles quantiles(std::vector<double> samples) {
  Quantiles q;
  q.count = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank: the p-th percentile is the ceil(p/100 * n)-th sample.
  const auto rank = [n](int pct) {
    return static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  };
  q.p50 = samples[std::max<std::size_t>(rank(50), 1) - 1];
  q.tail_pct = 50;
  for (int pct = 99; pct > 50; --pct) {
    if (n - rank(pct) >= 10) {
      q.tail_pct = pct;
      break;
    }
  }
  q.tail = samples[std::max<std::size_t>(rank(q.tail_pct), 1) - 1];
  double sum = 0.0;
  for (double s : samples) sum += s;
  q.mean = sum / static_cast<double>(n);
  return q;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- Spans ------------------------------------------------------------------

namespace {

struct SpanBuffer {
  std::mutex mu;  // uncontended: only collect() shares it with the owner
  std::vector<Span> spans;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<SpanBuffer>>& buffers() {
  static std::vector<std::unique_ptr<SpanBuffer>> all;
  return all;
}

std::atomic<std::uint64_t> g_next_span_id{1};
thread_local std::uint64_t t_current_span = 0;
thread_local SpanBuffer* t_buffer = nullptr;

SpanBuffer& thread_buffer() {
  if (t_buffer == nullptr) {
    // Buffers are owned by the global list, so they outlive the threads
    // (server loops and pool workers exit before the run is reported).
    std::lock_guard lock(g_buffers_mu);
    buffers().push_back(std::make_unique<SpanBuffer>());
    t_buffer = buffers().back().get();
  }
  return *t_buffer;
}

}  // namespace

std::vector<Span> collect_spans() {
  std::vector<Span> out;
  std::lock_guard lock(g_buffers_mu);
  for (const auto& buffer : buffers()) {
    std::lock_guard buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request) {
  if (name == nullptr) return;
  span_.name = name;
  span_.request = request;
  span_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current_span;
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (span_.name == nullptr) return;
  span_.end_ns = now_ns();
  t_current_span = saved_parent_;
  SpanBuffer& buffer = thread_buffer();
  std::lock_guard lock(buffer.mu);
  buffer.spans.push_back(span_);
}

// --- Process and host -------------------------------------------------------

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostFacts host_facts() {
  HostFacts facts;
  facts.nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string flags;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && facts.cpu_model.empty()) facts.cpu_model = value;
    if (key == "flags" && flags.empty()) flags = " " + value + " ";
  }
  for (const char* flag : {"sha_ni", "aes", "vaes", "adx", "bmi2", "avx2"}) {
    if (flags.find(std::string(" ") + flag + " ") != std::string::npos) {
      if (!facts.cpu_flags.empty()) facts.cpu_flags += ' ';
      facts.cpu_flags += flag;
    }
  }
  return facts;
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n, std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv_u64(std::uint64_t v, std::uint64_t h) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fnv1a(buf, sizeof buf, h);
}

}  // namespace loadbench
