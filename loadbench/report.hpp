// Result reporting (human-readable lines plus the final JSON line) and
// the span analysis behind the per-layer breakdown.
#pragma once

#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "measure.hpp"

namespace loadbench {

/// Collects facts, gates and metrics of one run and prints them.
class Report {
 public:
  Report(const WorkloadSpec& spec, std::uint64_t seed, bool trace);

  void fact(const std::string& key, const std::string& value);
  void num(const std::string& key, double value);
  void hex(const std::string& key, std::uint64_t value);
  /// nproc, CPU model and flags, build type, SMATCH_OBS, deployment.
  void host();
  /// Per-kind latency lines (p50 and tail with sample counts).
  void section_kinds(const std::array<std::vector<double>, kNumKinds>& latency_ms);
  /// The blocking-path medians the path-sum check adds up.
  void path_terms(const std::vector<std::pair<std::string, double>>& terms);
  /// A correctness gate; any failed gate makes the run exit 1.
  void gate(const std::string& name, bool ok);
  /// One measured figure with its unit and sample count (tail_pct names
  /// the percentile actually reported for a tail figure).
  void figure(const std::string& name, double value, const std::string& unit,
              std::size_t samples, int tail_pct = 0);
  /// A figure that is also a result metric (in the final JSON line).
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples, int tail_pct = 0);

  /// Fatal harness error: message on stderr, exit code 1, no result line.
  int abort(const std::string& why);
  /// Prints the result line; returns the exit code.
  int finish(std::uint64_t attempted, std::uint64_t failed);

 private:
  void line(const std::string& text);

  std::string prefix_;
  bool ok_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Per-layer numbers derived from the traced ops' spans. Self time is a
/// span minus its same-thread children; a call span's self time is split
/// into the paired handler's engine/codec children (attributed to their
/// own layers) and net overhead: RTT minus that handler work, i.e.
/// framing, envelope, socket, event loop and dispatch-queue wait.
struct TraceBreakdown {
  std::size_t ops = 0;                      // traced ops (root spans)
  std::map<std::string, double> layer_us;   // layer -> summed self time
  Quantiles rtt;                            // per call, all kinds (us)
  Quantiles overhead;                       // per call, all kinds (us)
  std::vector<std::pair<std::string, double>> path_terms;  // median self us
  double path_sum_us = 0;

  [[nodiscard]] double layer_total(const std::string& layer) const {
    const auto it = layer_us.find(layer);
    return it == layer_us.end() ? 0.0 : it->second;
  }
};

[[nodiscard]] TraceBreakdown analyse_trace(const std::vector<Span>& spans, Kind primary);

}  // namespace loadbench
