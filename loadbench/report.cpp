#include "report.hpp"

#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace loadbench {

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Report::Report(const WorkloadSpec& spec, std::uint64_t seed, bool trace)
    : prefix_("[" + spec.name + " seed=" + std::to_string(seed) + (trace ? " traced" : "") + "] ") {
  num("offered_rate_ops_s", spec.offered_ops_s);
  num("population", static_cast<double>(spec.population));
  if (spec.update_share > 0) num("update_share", spec.update_share);
}

void Report::line(const std::string& text) {
  std::printf("%s%s\n", prefix_.c_str(), text.c_str());
}

void Report::fact(const std::string& key, const std::string& value) { line(key + " = " + value); }
void Report::num(const std::string& key, double value) { line(key + " = " + fmt(value)); }

void Report::hex(const std::string& key, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  fact(key, buf);
}

void Report::host() {
  const HostFacts h = host_facts();
  num("host.nproc", h.nproc);
  fact("host.cpu_model", h.cpu_model);
  fact("host.cpu_flags", h.cpu_flags.empty() ? "(none)" : h.cpu_flags);
  fact("build.type", LOADBENCH_BUILD_TYPE);
  fact("build.smatch_obs", LOADBENCH_OBS);
  fact("deployment",
       "group=rfc3526_2048 attribute_bits=" + std::to_string(Deployment::kAttributeBits) +
           " attributes=" + std::to_string(Deployment::kAttributes) +
           " rs_threshold=" + std::to_string(Deployment::kRsThreshold) +
           " quant_width=" + std::to_string(Deployment::kQuantWidth) +
           " rsa_bits=" + std::to_string(Deployment::kRsaBits) +
           " top_k=" + std::to_string(Deployment::kTopK) +
           " engine_shards=" + std::to_string(Deployment::kEngineShards) +
           " io_threads=" + std::to_string(Deployment::kIoThreads) +
           " dispatch_workers=" + std::to_string(Deployment::kDispatchWorkers) +
           " client_threads=" + std::to_string(Deployment::kClientThreads));
}

void Report::section_kinds(const std::array<std::vector<double>, kNumKinds>& latency_ms) {
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    if (latency_ms[k].empty()) continue;
    const Quantiles q = quantiles(latency_ms[k]);
    const std::string name = kind_name(static_cast<Kind>(k));
    line(name + "_p50_ms = " + fmt(q.p50) + " ms (n=" + std::to_string(q.count) + ")");
    line(name + "_p99_ms = " + fmt(q.tail) + " ms (n=" + std::to_string(q.count) +
         ", p" + std::to_string(q.tail_pct) + ")");
    line(name + "_mean_ms = " + fmt(q.mean) + " ms (n=" + std::to_string(q.count) + ")");
  }
}

void Report::path_terms(const std::vector<std::pair<std::string, double>>& terms) {
  for (const auto& [name, us] : terms) line("path." + name + "_us.p50 = " + fmt(us));
}

void Report::gate(const std::string& name, bool ok) {
  line("gate " + name + " = " + (ok ? "pass" : "FAIL"));
  ok_ = ok_ && ok;
}

void Report::figure(const std::string& name, double value, const std::string& unit,
                    std::size_t samples, int tail_pct) {
  std::string text = name + " = " + fmt(value) + " " + unit + " (n=" + std::to_string(samples);
  if (tail_pct > 0) text += ", p" + std::to_string(tail_pct);
  line(text + ")");
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples, int tail_pct) {
  figure("metric " + name, value, unit, samples, tail_pct);
  metrics_.push_back({name, {value, unit}});
}

int Report::abort(const std::string& why) {
  std::fprintf(stderr, "loadbench: %s\n", why.c_str());
  return 1;
}

int Report::finish(std::uint64_t attempted, std::uint64_t failed) {
  std::string out = "{\"correct\": " + std::string(ok_ ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    out += (i ? ", " : "") + json_string(name) + ": {\"value\": " + fmt(vu.first) +
           ", \"unit\": " + json_string(vu.second) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
  return ok_ ? 0 : 1;
}

// --- Span analysis ------------------------------------------------------------

namespace {

bool starts_with(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

/// Layer a non-call span's self time is attributed to.
std::string layer_of(const char* name) {
  return starts_with(name, "wire.") ? "wire.codec" : name;
}

}  // namespace

TraceBreakdown analyse_trace(const std::vector<Span>& spans, Kind primary) {
  TraceBreakdown tb;
  std::unordered_map<std::uint64_t, double> children_us;  // span id -> summed child time
  for (const Span& s : spans) {
    if (s.parent != 0) children_us[s.parent] += static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
  }
  struct Handler {
    std::uint64_t start_ns;
    double inner_us;
    bool used;
  };
  std::unordered_multimap<std::uint64_t, Handler> handlers;  // by request key
  for (const Span& s : spans) {
    if (starts_with(s.name, "server.")) {
      handlers.insert({s.request, {s.start_ns, children_us[s.id], false}});
    }
  }

  std::map<std::string, std::vector<double>> self_samples;
  std::vector<double> rtt, overhead;
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    if (starts_with(s.name, "op.")) {
      ++tb.ops;
    } else if (starts_with(s.name, "server.")) {
      // Only pairs with its call span; its time is inside that RTT.
    } else if (starts_with(s.name, "net.call.")) {
      // Pair with the earliest unused handler of this request that
      // started inside the call.
      Handler* best = nullptr;
      auto [lo, hi] = handlers.equal_range(s.request);
      for (auto it = lo; it != hi; ++it) {
        Handler& h = it->second;
        if (h.used || h.start_ns < s.start_ns || h.start_ns > s.end_ns) continue;
        if (best == nullptr || h.start_ns < best->start_ns) best = &h;
      }
      const double inner = best != nullptr ? best->inner_us : 0.0;
      if (best != nullptr) best->used = true;
      rtt.push_back(dur);
      overhead.push_back(dur - inner);
      const char* kind = s.name + std::strlen("net.call.");
      self_samples[std::string("net.overhead.") + kind].push_back(dur - inner);
      tb.layer_us["net.overhead"] += dur - inner;
    } else {
      const double self = dur - children_us[s.id];
      self_samples[s.name].push_back(self);
      tb.layer_us[layer_of(s.name)] += self;
    }
  }
  tb.rtt = quantiles(rtt);
  tb.overhead = quantiles(overhead);

  // The blocking path of the primary op kind, in call order.
  const std::vector<const char*> join_path = {
      "client.create",      "keygen.request",    "net.overhead.oprf",  "keyserver.handle",
      "keygen.finalize",    "client.install_key", "client.init_data",  "client.encrypt_chain",
      "client.auth_token",  "wire.upload_encode", "net.overhead.upload", "wire.upload_decode",
      "match.ingest"};
  const std::vector<const char*> query_path = {
      "wire.query_encode", "net.overhead.query", "wire.query_decode", "match.match",
      "wire.result_encode", "wire.result_decode", "client.verify"};
  const auto& path = primary == Kind::kJoin ? join_path : query_path;
  for (const char* name : path) {
    const double m = quantiles(self_samples[name]).p50;
    tb.path_terms.emplace_back(name, m);
    tb.path_sum_us += m;
  }
  return tb;
}

}  // namespace loadbench
