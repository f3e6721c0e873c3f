// S-MATCH load benchmark. Usage:
//
//   loadbench --workload <join_wave|query_skew|update_mix> --seed <n>
//             --seconds <s> --trace <0|1> --tmp <dir>
//             [--tiny] [--tamper] [--commit <id>]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
// correctness gate fails (Vf rejection, kNN mismatch, failed op, a late
// generator, a set-up that emitted different bytes), 2 on bad usage.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "measure.hpp"
#include "net/tcp_transport.hpp"
#include "obs/registry.hpp"
#include "report.hpp"

namespace loadbench {
namespace {

using namespace smatch;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool tamper = false;
  std::string tmp;
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (k == "--tamper") {
      a.tamper = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "loadbench: '%s' needs a value\n", k.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--tmp") {
      a.tmp = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      std::fprintf(stderr, "loadbench: unknown argument '%s'\n", k.c_str());
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && !a.tmp.empty();
}

/// Generator bound: the run is invalid when ops started later than this
/// after their intended send time at p99, or the achieved rate fell below
/// kMinAchievedShare of the offered rate. A backlog that grows over the
/// run trips it; a slow stretch of the host that the 4 client threads
/// absorb does not.
constexpr double kMaxLagP99Ms = 1000.0;
constexpr double kMinAchievedShare = 0.8;
/// Set-up repetitions in an untraced run (setup_s is their median).
constexpr int kSetupReps = 3;
/// Closed-loop throughput is the median completion rate over windows of
/// this length.
constexpr double kPeakWindowS = 0.5;
/// The open loop's steady-state figures are medians over up to this many
/// equal windows of at least kMinWindowOps ops each (enough for a p99
/// with 10 samples beyond it).
constexpr std::size_t kMaxOpenWindows = 10;
constexpr std::size_t kMinWindowOps = 1000;
/// Traced join_wave: blocking-path self-time medians must sum to within
/// this share of the untraced join p50 (checked from this many ops on).
constexpr double kPathSumTolerance = 0.15;
constexpr std::size_t kMinPathSamples = 200;

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

void sleep_until_ns(std::uint64_t t) {
  const timespec ts{static_cast<time_t>(t / 1000000000ull),
                    static_cast<long>(t % 1000000000ull)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

/// Counters read before and after the open loop.
struct Counters {
  std::uint64_t bytes_up = 0, bytes_down = 0;
  std::uint64_t comparisons = 0;
  KeyServerMetrics keys;
  store::StoreMetrics store;
  std::uint64_t fsyncs = 0, shed = 0, calls = 0, wal_appends = 0, wal_bytes = 0;
};

Counters read_counters(const Stack& s, const std::vector<Worker>& workers) {
  Counters c;
  for (const Worker& w : workers) {
    for (const Transport* t : {w.conn.get(), w.traced_conn.get()}) {
      if (t == nullptr) continue;
      const TransportStats st = t->stats();
      c.bytes_up += st.bytes_sent;
      c.bytes_down += st.bytes_received;
    }
  }
  c.comparisons = s.match_server->comparisons();
  c.keys = s.key_server->metrics();
  if (s.match_server->store() != nullptr) c.store = s.match_server->store()->metrics();
  auto& reg = obs::Registry::global();
  c.fsyncs = reg.counter("smatch_store_fsyncs_total")->load();
  c.shed = reg.counter("smatch_net_shed_requests_total")->load();
  c.calls = reg.counter("smatch_net_calls_total")->load();
  c.wal_appends = reg.counter("smatch_store_wal_appends_total")->load();
  c.wal_bytes = reg.counter("smatch_store_wal_bytes_total")->load();
  return c;
}

// --- Open loop ------------------------------------------------------------------

struct Sample {
  bool traced = false;
  bool done = false;
  std::uint64_t intended = 0, start = 0, end = 0;
  OpResult res;
};

/// Runs the Poisson schedule from the worker threads: each takes the next
/// op, sleeps until its intended send time, and runs it (span-wrapped when
/// `trace` and the op index is even). `cpu_at` receives the process CPU
/// time at each of the `windows` equal window boundaries of `open_ns`
/// (the last one once every op completed).
std::vector<Sample> run_open_loop(const OpContext& ctx, std::vector<Worker>& workers,
                                  const std::vector<Op>& ops, bool trace, std::uint64_t t0,
                                  std::uint64_t open_ns, std::size_t windows,
                                  std::vector<double>& cpu_at) {
  std::vector<Sample> samples(ops.size());
  cpu_at.assign(windows + 1, 0.0);
  std::thread sampler([&] {
    for (std::size_t k = 0; k < windows; ++k) {
      sleep_until_ns(t0 + open_ns * k / windows);
      cpu_at[k] = process_cpu_s();
    }
  });
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (Worker& w : workers) {
    threads.emplace_back([&, &w = w] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time, not 50 us late
      for (std::size_t i; (i = next.fetch_add(1)) < ops.size();) {
        Sample& smp = samples[i];
        smp.traced = trace && i % 2 == 0;
        smp.intended = t0 + ops[i].at_ns;
        sleep_until_ns(smp.intended);
        smp.start = now_ns();
        smp.res = run_op(ctx, w, ops[i], i, smp.traced);
        smp.end = now_ns();
        smp.done = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  sampler.join();
  cpu_at[windows] = process_cpu_s();
  return samples;
}

/// Steady-state figures of the open loop: each window (by intended send
/// time) gets its own mean, tail and CPU per op, and the run reports the
/// median over windows, so a host stall inside one window does not set
/// the run's number.
struct Steady {
  double mean_ms = 0, tail_ms = 0, cpu_ms_per_op = 0;
  int tail_pct = 0;
  std::size_t samples = 0;
};

Steady steady_state(const std::vector<Sample>& samples, const std::vector<Op>& ops,
                    std::uint64_t open_ns, const std::vector<double>& cpu_at) {
  const std::size_t windows = cpu_at.size() - 1;
  std::vector<std::vector<double>> latency_ms(windows);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!samples[i].done || !samples[i].res.ok) continue;
    const std::size_t w = std::min<std::size_t>(ops[i].at_ns * windows / open_ns, windows - 1);
    latency_ms[w].push_back(static_cast<double>(samples[i].end - samples[i].intended) * 1e-6);
  }
  std::vector<double> means, tails, cpu;
  Steady st;
  st.tail_pct = 99;
  for (std::size_t w = 0; w < windows; ++w) {
    const Quantiles q = quantiles(latency_ms[w]);
    means.push_back(q.mean);
    tails.push_back(q.tail);
    cpu.push_back(per((cpu_at[w + 1] - cpu_at[w]) * 1e3, static_cast<double>(q.count)));
    st.tail_pct = std::min(st.tail_pct, q.tail_pct);
    st.samples += q.count;
  }
  st.mean_ms = median(means);
  st.tail_ms = median(tails);
  st.cpu_ms_per_op = median(cpu);
  return st;
}

/// What the open loop's samples add up to.
struct OpenLoop {
  std::size_t done = 0;
  std::uint64_t failed = 0, rejected = 0, knn_checked = 0, knn_bad = 0, retries = 0;
  std::uint64_t ope_hits = 0, ope_misses = 0, update_bytes = 0;
  std::array<std::size_t, kNumKinds> kind_done{};
  std::array<std::vector<double>, kNumKinds> latency_ms;   // per kind, all ops
  std::array<std::vector<double>, kNumKinds> untraced_ms;  // per kind, untraced ops
  std::vector<double> traced_ms, untraced_all_ms, lag_us, group_sizes;
  double traced_latency_us = 0, traced_wait_us = 0;
  double achieved_ops_s = 0;
};

OpenLoop summarize(const std::vector<Sample>& samples, const std::vector<Op>& ops,
                   std::uint64_t t0, const KnnReference* groups, bool knn_checked) {
  OpenLoop o;
  std::uint64_t last_end = t0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& smp = samples[i];
    if (!smp.done || !smp.res.ok) {
      ++o.failed;
      continue;
    }
    ++o.done;
    const auto k = static_cast<std::size_t>(ops[i].kind);
    ++o.kind_done[k];
    const double ms = static_cast<double>(smp.end - smp.intended) * 1e-6;
    const double wait_us = static_cast<double>(smp.start - smp.intended) * 1e-3;
    o.latency_ms[k].push_back(ms);
    o.lag_us.push_back(wait_us);
    if (smp.traced) {
      o.traced_ms.push_back(ms);
      o.traced_latency_us += ms * 1e3;
      o.traced_wait_us += wait_us;
    } else {
      o.untraced_all_ms.push_back(ms);
      o.untraced_ms[k].push_back(ms);
    }
    last_end = std::max(last_end, smp.end);
    o.rejected += smp.res.rejected;
    o.retries += smp.res.retries;
    o.ope_hits += smp.res.ope_hits;
    o.ope_misses += smp.res.ope_misses;
    o.update_bytes += smp.res.upload_bytes;
    if (ops[i].kind == Kind::kQuery && groups != nullptr) {
      o.group_sizes.push_back(static_cast<double>(groups->group_size(ops[i].arg + 1)));
      if (knn_checked && i % kKnnSampleEvery == 0) {
        ++o.knn_checked;
        o.knn_bad += smp.res.knn_mismatch ? 1 : 0;
      }
    }
  }
  o.achieved_ops_s = per(static_cast<double>(o.done), static_cast<double>(last_end - t0) * 1e-9);
  return o;
}

// --- Closed loop ------------------------------------------------------------------

struct ClosedLoop {
  double peak_ops_s = 0;
  std::uint64_t attempted = 0, failed = 0;
};

/// Runs ops back to back on every connection for `seconds`. Peak
/// throughput is the median of the completion rates of kPeakWindowS
/// windows, so a host stall in a few windows does not set it.
ClosedLoop run_closed_loop(const OpContext& ctx, std::vector<Worker>& workers,
                           const WorkloadSpec& spec, const Inputs& inputs, double seconds) {
  const std::size_t base = inputs.open_ops.size();  // op indices continue past the open loop
  const std::uint64_t c0 = now_ns();
  const auto span_ns = static_cast<std::uint64_t>(seconds * 1e9);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::vector<std::uint64_t>> completions(workers.size());
  std::vector<std::thread> threads;
  for (std::size_t wi = 0; wi < workers.size(); ++wi) {
    threads.emplace_back([&, wi] {
      while (now_ns() < c0 + span_ns) {
        const std::size_t i = next.fetch_add(1);
        const Op op = spec.joins ? Op{0, Kind::kJoin, static_cast<std::uint32_t>(base + i)}
                                 : inputs.closed_ops[i % inputs.closed_ops.size()];
        const OpResult r = run_op(ctx, workers[wi], op, base + i, false);
        if (!r.ok || r.rejected != 0 || r.knn_mismatch) failed.fetch_add(1);
        completions[wi].push_back(now_ns());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const auto windows = std::max<std::uint64_t>(1, std::llround(seconds / kPeakWindowS));
  std::vector<double> rates;
  for (std::uint64_t win = 0; win < windows; ++win) {
    const std::uint64_t lo = c0 + span_ns * win / windows;
    const std::uint64_t hi = c0 + span_ns * (win + 1) / windows;
    std::size_t n = 0;
    for (const auto& times : completions) {
      n += static_cast<std::size_t>(std::count_if(
          times.begin(), times.end(), [&](std::uint64_t t) { return t >= lo && t < hi; }));
    }
    rates.push_back(static_cast<double>(n) * static_cast<double>(windows) / seconds);
  }
  return {median(rates), next.load(), failed.load()};
}

// --- Reports ------------------------------------------------------------------------

void report_end_to_end(Report& report, const OpenLoop& o, const Steady& st,
                       const Counters& before, const Counters& after, const ClosedLoop& closed,
                       const std::vector<double>& setup_times) {
  const auto done = static_cast<double>(o.done);
  // Latency and peak throughput are reported but are not result metrics:
  // on a shared VM host they can double for whole runs at random,
  // while CPU time per op, bytes and set-up hold (README.md).
  report.figure("mean_ms", st.mean_ms, "ms", st.samples);
  report.figure("p99_ms", st.tail_ms, "ms", st.samples, st.tail_pct);
  report.figure("peak_ops_s", closed.peak_ops_s, "ops/s", closed.attempted);
  report.metric("setup_s", median(setup_times), "s", setup_times.size());
  report.metric("cpu_ms_per_op", st.cpu_ms_per_op, "ms", st.samples);
  report.metric("bytes_per_op",
                per(static_cast<double>(after.bytes_up - before.bytes_up + after.bytes_down -
                                        before.bytes_down),
                    done),
                "B", o.done);
  report.metric("rss_peak_mb", peak_rss_mb(), "MB", 1);
}

void report_per_layer(Report& report, const WorkloadSpec& spec, const OpenLoop& o,
                      const Counters& before, const Counters& after, double open_wall_s) {
  const TraceBreakdown tb = analyse_trace(collect_spans(), spec.primary);
  const auto traced = static_cast<double>(tb.ops);
  const auto done = static_cast<double>(o.done);
  const auto queries = o.kind_done[static_cast<std::size_t>(Kind::kQuery)];
  const auto updates = o.kind_done[static_cast<std::size_t>(Kind::kUpdate)];
  const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };

  // The blocking path of the primary op kind against its untraced p50.
  const Quantiles primary = quantiles(o.untraced_ms[static_cast<std::size_t>(spec.primary)]);
  const double path_ratio = per(tb.path_sum_us * 1e-3, primary.p50);
  report.num("traced_ops", traced);
  report.path_terms(tb.path_terms);
  report.num("path_sum_ms", tb.path_sum_us * 1e-3);
  report.num("primary_untraced_p50_ms", primary.p50);
  if (spec.joins && tb.ops >= kMinPathSamples) {
    report.gate("path_sum_within_15pct", std::fabs(path_ratio - 1.0) <= kPathSumTolerance);
  } else if (spec.joins) {
    report.fact("gate path_sum_within_15pct",
                "skipped (fewer than " + std::to_string(kMinPathSamples) + " traced ops)");
  }

  const Quantiles lag = quantiles(o.lag_us);
  report.metric("net.rtt_us.p50", tb.rtt.p50, "us", tb.rtt.count);
  report.metric("net.rtt_us.p99", tb.rtt.tail, "us", tb.rtt.count, tb.rtt.tail_pct);
  report.metric("net.overhead_us.p50", tb.overhead.p50, "us", tb.overhead.count);
  report.metric("net.overhead_us.p99", tb.overhead.tail, "us", tb.overhead.count,
                tb.overhead.tail_pct);
  report.metric("gen.lag_us.p99", lag.tail, "us", lag.count, lag.tail_pct);
  for (const char* layer : {"client.create", "keygen.request", "keyserver.handle",
                            "keygen.finalize", "client.install_key", "client.init_data",
                            "client.encrypt_chain", "client.auth_token", "client.verify",
                            "match.ingest", "match.match", "wire.codec", "net.overhead"}) {
    report.metric(std::string(layer) + ".us_per_op", per(tb.layer_total(layer), traced), "us/op",
                  tb.ops);
  }
  report.metric("gen.wait.us_per_op", per(o.traced_wait_us, traced), "us/op", tb.ops);

  const std::uint64_t lookups = o.ope_hits + o.ope_misses;
  report.metric("client.ope_cache_hit_ratio",
                per(static_cast<double>(o.ope_hits), static_cast<double>(lookups)), "ratio",
                lookups);
  report.metric("client.ope_cache_lookups_per_op", per(static_cast<double>(lookups), done), "count",
                o.done);
  report.metric("keyserver.evaluations_per_op",
                per(delta(after.keys.evaluations, before.keys.evaluations), done), "count", o.done);
  report.metric("keyserver.rejections",
                delta(after.keys.budget_rejections, before.keys.budget_rejections), "count",
                o.done);
  const Quantiles gs = quantiles(o.group_sizes);
  report.metric("match.comparisons_per_query",
                per(delta(after.comparisons, before.comparisons), static_cast<double>(queries)),
                "count", queries);
  report.metric("match.group_size_seen.p50", gs.p50, "count", gs.count);
  report.metric("match.group_size_seen.p99", gs.tail, "count", gs.count, gs.tail_pct);
  report.metric("net.calls_per_op", per(delta(after.calls, before.calls), done), "count", o.done);
  report.metric("net.retries", static_cast<double>(o.retries), "count", o.done);
  report.metric("net.shed", delta(after.shed, before.shed), "count", o.done);
  report.metric("net.bytes_up_per_op", per(delta(after.bytes_up, before.bytes_up), done), "B",
                o.done);
  report.metric("net.bytes_down_per_op", per(delta(after.bytes_down, before.bytes_down), done), "B",
                o.done);

  const store::StoreMetrics& sb = before.store;
  const store::StoreMetrics& sa = after.store;
  report.metric("store.wal_appends_per_update",
                per(delta(after.wal_appends, before.wal_appends), static_cast<double>(updates)),
                "count", updates);
  report.metric("store.wal_bytes_per_update_byte",
                per(delta(after.wal_bytes, before.wal_bytes), static_cast<double>(o.update_bytes)),
                "ratio", updates);
  report.metric("store.fsyncs_per_s", per(delta(after.fsyncs, before.fsyncs), open_wall_s), "1/s",
                o.done);
  report.metric("store.maintenance_cycles", delta(sa.maintenance_cycles, sb.maintenance_cycles),
                "count", o.done);
  report.metric("store.snapshots", delta(sa.snapshots, sb.snapshots), "count", o.done);
  report.metric("store.gc_bytes_reclaimed", delta(sa.gc_bytes_reclaimed, sb.gc_bytes_reclaimed),
                "B", o.done);

  // Each workload's dominant layer group, as a share of traced op latency.
  const auto share = [&](std::initializer_list<const char*> layers) {
    double sum = 0;
    for (const char* layer : layers) sum += tb.layer_total(layer);
    return 100.0 * per(sum, o.traced_latency_us);
  };
  report.metric("share.client_crypto_pct",
                share({"client.create", "keygen.request", "keygen.finalize", "client.install_key",
                       "client.init_data", "client.encrypt_chain", "client.auth_token",
                       "client.verify"}),
                "%", tb.ops);
  report.metric("share.match_net_pct", share({"match.match", "net.overhead", "wire.codec"}), "%",
                tb.ops);
  report.metric("share.store_ingest_pct", share({"match.ingest"}), "%", tb.ops);
  const Quantiles traced_q = quantiles(o.traced_ms);
  const Quantiles untraced_q = quantiles(o.untraced_all_ms);
  report.metric("trace.overhead_pct", 100.0 * per(traced_q.p50 - untraced_q.p50, untraced_q.p50),
                "%", traced_q.count);
  report.metric("trace.path_sum_ratio", path_ratio, "ratio", tb.ops);
}

// --- The run ------------------------------------------------------------------------

int run(const Args& args) {
  const std::optional<WorkloadSpec> found = find_workload(args.workload, args.tiny);
  if (!found) {
    std::fprintf(stderr, "loadbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  // An untraced run spends a quarter of its time in the closed loop; a
  // traced run is open loop only.
  const double open_s = args.trace ? args.seconds : 0.75 * args.seconds;
  const double closed_s = args.seconds - open_s;

  Report report(spec, args.seed, args.trace);
  report.fact("commit", args.commit);
  report.host();

  const Inputs inputs = make_inputs(spec, args.seed, open_s);
  report.hex("input_digest", inputs.digest);
  report.num("open_loop_ops", static_cast<double>(inputs.open_ops.size()));

  // Set-up is timed and repeated; the last stack serves.
  std::filesystem::create_directories(args.tmp);
  const int reps = args.trace || args.tamper ? 1 : kSetupReps;
  std::vector<double> setup_times;
  std::unique_ptr<Stack> stack;
  std::uint64_t wire_digest = 0;
  bool setup_stable = true;
  for (int rep = 0; rep < reps; ++rep) {
    stack.reset();  // tear the previous one down (and its store) first
    StackOptions so;
    so.trace = args.trace;
    so.tamper = args.tamper;
    so.store_dir = args.tmp + "/smatch_store_" + std::to_string(rep);
    const std::uint64_t t0 = now_ns();
    stack = build_stack(spec, inputs, so);
    setup_times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (!stack) return 1;
    setup_stable = setup_stable && (rep == 0 || stack->wire_digest == wire_digest);
    wire_digest = stack->wire_digest;
  }
  report.gate("setup_bytes_stable", setup_stable);
  report.hex("setup_wire_digest", wire_digest);
  Stack& s = *stack;

  // Group sizes for every query workload; the kNN check only where the
  // set-up uploads are still the served state.
  std::optional<KnnReference> reference;
  if (!spec.joins) reference.emplace(s.uploads);
  const bool check_knn = reference && spec.update_share == 0;

  OpContext ctx;
  ctx.inputs = &inputs;
  ctx.stack = &s;
  ctx.knn = check_knn ? &*reference : nullptr;

  std::vector<Worker> workers(Deployment::kClientThreads);
  for (Worker& w : workers) {
    auto conn = TcpTransport::connect("127.0.0.1", s.net->port(), std::chrono::milliseconds(5000));
    if (!conn.is_ok()) return report.abort("connect: " + conn.status().to_string());
    w.conn = std::move(*conn);
    if (s.traced_net) {
      auto traced = TcpTransport::connect("127.0.0.1", s.traced_net->port(),
                                          std::chrono::milliseconds(5000));
      if (!traced.is_ok()) return report.abort("connect: " + traced.status().to_string());
      w.traced_conn = std::move(*traced);
    }
  }

  const std::vector<Op>& ops = inputs.open_ops;
  const auto open_ns = static_cast<std::uint64_t>(open_s * 1e9);
  const std::size_t windows =
      std::clamp<std::size_t>(ops.size() / kMinWindowOps, 1, kMaxOpenWindows);
  std::vector<double> cpu_at;
  const Counters before = read_counters(s, workers);
  const std::uint64_t t0 = now_ns() + 20'000'000;  // let the workers park first
  const std::vector<Sample> samples =
      run_open_loop(ctx, workers, ops, args.trace, t0, open_ns, windows, cpu_at);
  const double open_wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const Counters after = read_counters(s, workers);
  const ClosedLoop closed = closed_s > 0 ? run_closed_loop(ctx, workers, spec, inputs, closed_s)
                                         : ClosedLoop{};
  for (Worker& w : workers) {
    if (w.conn) (void)w.conn->close();
    if (w.traced_conn) (void)w.traced_conn->close();
  }

  const OpenLoop o = summarize(samples, ops, t0, reference ? &*reference : nullptr, check_knn);
  const double offered = static_cast<double>(ops.size()) / open_s;
  const Quantiles lag = quantiles(o.lag_us);
  report.section_kinds(o.latency_ms);
  report.num("offered_ops_s", offered);
  report.num("achieved_ops_s", o.achieved_ops_s);
  report.num("gen_lag_us_p" + std::to_string(lag.tail_pct), lag.tail);
  report.num("fail_ratio", per(static_cast<double>(o.failed + closed.failed),
                               static_cast<double>(ops.size() + closed.attempted)));
  report.num("retries", static_cast<double>(o.retries));
  report.num("shed", static_cast<double>(after.shed - before.shed));
  report.num("keyserver_rejections",
             static_cast<double>(after.keys.budget_rejections - before.keys.budget_rejections));

  // join_wave: the wire digest also covers the first join uploads.
  if (spec.joins) {
    bool complete = true;
    for (std::size_t i = 0; i < std::min(Stack::kDigestOps, ops.size()); ++i) {
      const std::uint64_t d = s.join_digests[i].load(std::memory_order_relaxed);
      complete = complete && d != 0;
      wire_digest = fnv_u64(d, wire_digest);
    }
    report.gate("join_bytes_seen", complete);
  }
  report.hex("wire_digest", wire_digest);

  report.gate("no_failed_ops", o.failed == 0 && closed.failed == 0);
  report.gate("vf_rejected_zero", o.rejected == 0);
  if (check_knn) {
    report.num("knn_checked", static_cast<double>(o.knn_checked));
    report.gate("knn_matches_reference", o.knn_bad == 0 && o.knn_checked > 0);
  }
  report.gate("generator_on_time",
              lag.tail <= kMaxLagP99Ms * 1e3 && o.achieved_ops_s >= kMinAchievedShare * offered);

  if (args.trace) {
    report_per_layer(report, spec, o, before, after, open_wall_s);
  } else {
    report.num("open_loop_windows", static_cast<double>(windows));
    report_end_to_end(report, o, steady_state(samples, ops, open_ns, cpu_at), before, after, closed,
                      setup_times);
  }
  return report.finish(ops.size() + closed.attempted, o.failed + closed.failed);
}

}  // namespace
}  // namespace loadbench

int main(int argc, char** argv) {
  loadbench::Args args;
  if (!loadbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: loadbench --workload <join_wave|query_skew|update_mix> --seed <n> "
                 "--seconds <s> --trace <0|1> --tmp <dir> [--tiny] [--tamper] [--commit <id>]\n");
    return 2;
  }
  try {
    return loadbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadbench: %s\n", e.what());
    return 1;
  }
}
