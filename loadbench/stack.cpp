// Inputs, set-up and the serving stack of the load benchmark.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

#include "bench.hpp"
#include "core/service.hpp"
#include "crypto/drbg.hpp"
#include "group/modp_group.hpp"
#include "measure.hpp"

namespace loadbench {

using namespace smatch;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kJoin: return "join";
    case Kind::kQuery: return "query";
    case Kind::kUpdate: return "update";
  }
  return "?";
}

std::optional<WorkloadSpec> find_workload(const std::string& name, bool tiny) {
  WorkloadSpec s;
  s.name = name;
  if (name == "join_wave") {
    s.population = tiny ? 16 : 256;
    s.offered_ops_s = tiny ? 20 : 50;
    s.joins = true;
    s.primary = Kind::kJoin;
  } else if (name == "query_skew") {
    s.population = tiny ? 32 : 800;
    s.offered_ops_s = tiny ? 40 : 600;
    s.primary = Kind::kQuery;
  } else if (name == "update_mix") {
    s.population = tiny ? 32 : 800;
    s.offered_ops_s = tiny ? 40 : 400;
    s.update_share = 0.3;
    s.store = true;
    s.reupload_pool = tiny ? 8 : 128;
    s.primary = Kind::kQuery;
  } else {
    return std::nullopt;
  }
  return s;
}

namespace {

double uniform01(RandomSource& rng) {
  return static_cast<double>(rng.u64() >> 11) * 0x1.0p-53;
}

Drbg labelled_rng(std::uint64_t seed, const std::string& label) {
  return Drbg(to_bytes("loadbench/" + std::to_string(seed) + "/" + label));
}

scenario::WorkloadConfig population_config(const std::string& name, std::size_t users,
                                           std::uint64_t seed) {
  return {.name = name,
          .num_users = users,
          .num_attributes = Deployment::kAttributes,
          .cardinality = Deployment::kCardinality,
          .zipf_exponent = Deployment::kZipfExponent,
          .churn_fraction = 0.0,
          .seed = seed};
}

/// `n` querier indices, Zipf(kQuerierZipf) over a seeded permutation of
/// the population: a few users query far more than the rest, while the
/// share of queries landing in each key group stays close to its share
/// of users from seed to seed.
std::vector<std::uint32_t> zipf_queriers(std::size_t users, std::size_t n, Drbg rng) {
  std::vector<std::uint32_t> perm(users);
  for (std::size_t i = 0; i < users; ++i) perm[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = users; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  std::vector<double> cdf(users);
  double sum = 0.0;
  for (std::size_t r = 0; r < users; ++r) {
    sum += std::pow(static_cast<double>(r + 1), -Deployment::kQuerierZipf);
    cdf[r] = sum;
  }
  std::vector<std::uint32_t> out(n);
  for (std::uint32_t& q : out) {
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), uniform01(rng) * sum);
    q = perm[std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()), users - 1)];
  }
  return out;
}

/// Joiner profiles drawn per seed, independent of the run length (so a
/// traced and an untraced run join the same users); cycled beyond, with
/// unique ids.
constexpr std::size_t kJoinerProfiles = 4096;
/// Length of the cycled closed-loop query/update sequence.
constexpr std::size_t kClosedOps = 8192;

}  // namespace

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, double open_seconds) {
  Inputs in;
  in.seed = seed;
  in.population = scenario::Workload::generate(population_config(spec.name, spec.population, seed));

  // Seeded Poisson arrivals: exponential gaps at the offered rate.
  Drbg arrivals = labelled_rng(seed, "arrivals");
  std::vector<std::uint64_t> times;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - uniform01(arrivals)) / spec.offered_ops_s;
    if (t >= open_seconds) break;
    times.push_back(static_cast<std::uint64_t>(t * 1e9));
  }

  if (spec.joins) {
    in.joiners = scenario::Workload::generate(
        population_config(spec.name + "-joiners", kJoinerProfiles, seed + 1));
    for (std::size_t i = 0; i < times.size(); ++i) {
      in.open_ops.push_back({times[i], Kind::kJoin, static_cast<std::uint32_t>(i)});
    }
  } else {
    const std::vector<std::uint32_t> queriers =
        zipf_queriers(spec.population, times.size() + kClosedOps, labelled_rng(seed, "queriers"));
    Drbg mix = labelled_rng(seed, "mix");
    if (spec.reupload_pool > 0) {
      // Re-uploading users: a seeded sample without replacement.
      std::vector<std::uint32_t> order(spec.population);
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
      const std::size_t n = std::min(spec.reupload_pool, order.size());
      for (std::size_t i = 0; i < n; ++i) {
        std::swap(order[i], order[i + mix.below(order.size() - i)]);
      }
      in.reupload_users.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n));
    }
    const auto next_op = [&](std::size_t i) {
      Op op;
      if (!in.reupload_users.empty() && uniform01(mix) < spec.update_share) {
        op.kind = Kind::kUpdate;
        op.arg = static_cast<std::uint32_t>(mix.below(in.reupload_users.size()));
      } else {
        op.kind = Kind::kQuery;
        op.arg = static_cast<std::uint32_t>(queriers[i]);
      }
      return op;
    };
    for (std::size_t i = 0; i < times.size(); ++i) {
      Op op = next_op(i);
      op.at_ns = times[i];
      in.open_ops.push_back(op);
    }
    for (std::size_t i = 0; i < kClosedOps; ++i) in.closed_ops.push_back(next_op(times.size() + i));
  }

  std::uint64_t h = fnv_u64(in.population->digest(), fnv_u64(seed, 1469598103934665603ull));
  if (in.joiners) h = fnv_u64(in.joiners->digest(), h);
  for (const auto* ops : {&in.open_ops, &in.closed_ops}) {
    for (const Op& op : *ops) {
      h = fnv_u64(op.at_ns, h);
      h = fnv_u64(static_cast<std::uint64_t>(op.kind) << 32 | op.arg, h);
    }
  }
  for (std::uint32_t u : in.reupload_users) h = fnv_u64(u, h);
  in.digest = h;
  return in;
}

// --- Serving stack ----------------------------------------------------------

namespace {

/// Upload tap shared by both servers: digests the first upload bodies of
/// the open loop's joiners (ids kJoinIdBase + op index), so a run proves
/// which protocol bytes it emitted. Reads the big-endian user id right
/// after the 3-byte wire header instead of parsing the message.
void note_upload(Stack& stack, BytesView body) {
  if (body.size() < 7) return;
  const std::uint32_t id = static_cast<std::uint32_t>(body[3]) << 24 |
                           static_cast<std::uint32_t>(body[4]) << 16 |
                           static_cast<std::uint32_t>(body[5]) << 8 | body[6];
  if (id < Deployment::kJoinIdBase) return;
  const std::uint32_t slot = id - Deployment::kJoinIdBase;
  if (slot < Stack::kDigestOps) {
    stack.join_digests[slot].store(request_key(body), std::memory_order_relaxed);
  }
}

struct DispatcherMode {
  bool traced = false;  // wrap every handler call in a span
  bool tamper = false;  // forge auth tokens in query results (self-test)
};

/// The benchmark's own dispatcher: the same calls SmatchService's
/// handlers make, each wrapped in a span when traced, and optionally a
/// forged query result (the Vf gate's self-test).
FrameDispatcher make_dispatcher(Stack& stack, DispatcherMode mode) {
  FrameDispatcher d;
  const bool t = mode.traced;
  d.register_handler(MessageKind::kUpload, [&stack, t](BytesView body) -> StatusOr<Bytes> {
    ScopedSpan span(t ? "server.upload" : nullptr, t ? request_key(body) : 0);
    note_upload(stack, body);
    StatusOr<UploadMessage> upload =
        in_span(t, "wire.upload_decode", [&] { return UploadMessage::parse(body); });
    if (!upload.is_ok()) return upload.status();
    if (Status s = in_span(t, "match.ingest", [&] { return stack.match_server->ingest(*upload); });
        !s.is_ok()) {
      return s;
    }
    return Bytes{};
  });
  d.register_handler(MessageKind::kQuery, [&stack, t, mode](BytesView body) -> StatusOr<Bytes> {
    ScopedSpan span(t ? "server.query" : nullptr, t ? request_key(body) : 0);
    StatusOr<QueryRequest> query =
        in_span(t, "wire.query_decode", [&] { return QueryRequest::parse(body); });
    if (!query.is_ok()) return query.status();
    StatusOr<QueryResult> result = in_span(
        t, "match.match", [&] { return stack.match_server->match(*query, Deployment::kTopK); });
    if (!result.is_ok()) return result.status();
    if (mode.tamper) {
      Drbg rng(request_key(body));
      *result = tamper_result(*result, ServerAttack::kForgeToken, rng);
    }
    return in_span(t, "wire.result_encode", [&] { return result->serialize(); });
  });
  d.register_handler(MessageKind::kOprf, [&stack, t](BytesView body) -> StatusOr<Bytes> {
    ScopedSpan span(t ? "server.oprf" : nullptr, t ? request_key(body) : 0);
    return in_span(t, "keyserver.handle", [&] { return stack.key_server->handle(body); });
  });
  return d;
}

ServerConfig server_config() {
  ServerConfig c;
  c.tcp_port = 0;  // ephemeral loopback port
  c.io_threads = Deployment::kIoThreads;
  c.dispatch_workers = Deployment::kDispatchWorkers;
  return c;
}

void fail(const std::string& what, const Status& s) {
  std::fprintf(stderr, "loadbench: set-up failed: %s: %s\n", what.c_str(),
               s.to_string().c_str());
}

}  // namespace

Stack::~Stack() {
  // Servers first (their handlers reference the engines), then the
  // engine that owns the store, then the store's files.
  traced_net.reset();
  net.reset();
  match_server.reset();
  key_server.reset();
  if (!store_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
  }
}

std::unique_ptr<Stack> build_stack(const WorkloadSpec& spec, const Inputs& inputs,
                                   const StackOptions& options) {
  auto stack = std::make_unique<Stack>();
  Stack& s = *stack;

  SchemeParams params;
  params.attribute_bits = Deployment::kAttributeBits;
  params.rs_threshold = Deployment::kRsThreshold;
  params.quant_width = Deployment::kQuantWidth;
  s.config = make_client_config(inputs.population->spec(), params,
                                std::make_shared<const ModpGroup>(ModpGroup::rfc3526_2048()));

  Drbg key_rng(Deployment::kRsaSeed);
  s.key_server = std::make_unique<KeyServer>(
      RsaKeyPair::generate(key_rng, Deployment::kRsaBits),
      KeyServerOptions{.num_shards = Deployment::kEngineShards,
                       .batch_threads = Deployment::kEngineThreads});
  s.match_server = std::make_unique<MatchServer>(ServerOptions{
      .num_shards = Deployment::kEngineShards, .batch_threads = Deployment::kEngineThreads});

  if (spec.store) {
    store::StoreOptions so;
    so.directory = options.store_dir;
    so.durability.fsync = store::FsyncPolicy::kBatch;
    // No residency budget: under a per-shard budget the shard holding the
    // ~48% key group evicts and re-reads it on nearly every touch of
    // another group in that shard, and that thrash rate depends on the
    // seed's group-to-shard layout more than on the code under test.
    store::MaintenancePolicy& policy = so.maintenance.policy;
    policy.background = true;
    policy.rotate_segment_bytes = 16 * 1024;
    policy.checkpoint_sealed_segments = 2;
    policy.min_interval = std::chrono::milliseconds(1000);
    policy.poll_interval = std::chrono::milliseconds(20);
    s.store_dir = options.store_dir;  // removed by ~Stack on every path
    if (Status st = s.match_server->attach_store(so); !st.is_ok()) {
      fail("attach_store", st);
      return nullptr;
    }
  }

  // Bulk-load the resident population: one batched OPRF round, then one
  // batched ingest.
  ThreadPool pool(Deployment::kEngineThreads);
  const scenario::Workload& pop = *inputs.population;
  s.clients.reserve(pop.num_users());
  std::vector<Client*> ptrs;
  for (std::size_t u = 0; u < pop.num_users(); ++u) {
    StatusOr<Client> c = Client::create(static_cast<UserId>(u + 1), pop.profile(u), s.config);
    if (!c.is_ok()) {
      fail("Client::create", c.status());
      return nullptr;
    }
    s.clients.push_back(std::make_unique<Client>(std::move(*c)));
    ptrs.push_back(s.clients.back().get());
  }
  Drbg enroll_rng = labelled_rng(inputs.seed, "population");
  for (StatusOr<UploadMessage>& up :
       enroll_and_upload_batch(ptrs, *s.key_server, enroll_rng, &pool)) {
    if (!up.is_ok()) {
      fail("enroll_and_upload_batch", up.status());
      return nullptr;
    }
    s.uploads.push_back(std::move(*up));
  }
  for (const Status& st : s.match_server->ingest_batch(s.uploads)) {
    if (!st.is_ok()) {
      fail("ingest_batch", st);
      return nullptr;
    }
  }

  // Re-upload wire bytes are built here, so the timed update path only
  // ships bytes.
  s.reuploads.resize(inputs.reupload_users.size());
  pool.parallel_for(s.reuploads.size(), [&](std::size_t i) {
    Drbg rng = labelled_rng(inputs.seed, "reupload-" + std::to_string(i));
    s.reuploads[i] = s.clients[inputs.reupload_users[i]]->make_upload(rng).serialize();
  });

  std::uint64_t h = 1469598103934665603ull;
  for (const UploadMessage& up : s.uploads) {
    const Bytes wire = up.serialize();
    h = fnv1a(wire.data(), wire.size(), h);
  }
  for (const Bytes& wire : s.reuploads) h = fnv1a(wire.data(), wire.size(), h);
  s.wire_digest = h;

  Stack* raw = stack.get();
  SmatchService service(*s.match_server, *s.key_server, Deployment::kTopK,
                        [raw](BytesView body) { note_upload(*raw, body); });
  s.net = std::make_unique<NetServer>(
      options.tamper ? make_dispatcher(s, {.traced = false, .tamper = true})
                     : service.dispatcher());
  if (Status st = s.net->start(server_config()); !st.is_ok()) {
    fail("NetServer::start", st);
    return nullptr;
  }
  if (options.trace) {
    s.traced_net = std::make_unique<NetServer>(make_dispatcher(s, {.traced = true}));
    if (Status st = s.traced_net->start(server_config()); !st.is_ok()) {
      fail("NetServer::start (traced)", st);
      return nullptr;
    }
  }
  return stack;
}

// --- kNN reference ----------------------------------------------------------

KnnReference::KnnReference(const std::vector<UploadMessage>& uploads) {
  std::map<Bytes, std::vector<const UploadMessage*>> groups;
  for (const UploadMessage& up : uploads) groups[up.key_index].push_back(&up);
  members_.resize(uploads.size());
  for (auto& [key, members] : groups) {
    std::sort(members.begin(), members.end(), [](const UploadMessage* a, const UploadMessage* b) {
      if (a->chain_cipher != b->chain_cipher) return a->chain_cipher < b->chain_cipher;
      return a->user_id < b->user_id;
    });
    std::vector<UserId> ids;
    for (std::size_t pos = 0; pos < members.size(); ++pos) {
      ids.push_back(members[pos]->user_id);
      members_[members[pos]->user_id - 1] = {members[pos]->user_id, sorted_groups_.size(), pos};
    }
    sorted_groups_.push_back(std::move(ids));
  }
}

std::vector<UserId> KnnReference::expected(UserId querier) const {
  // Algorithm Match: alternate down/up from the querier, widening to the
  // other side when one runs out, until k entries.
  const Member& m = members_.at(querier - 1);
  const std::vector<UserId>& sorted = sorted_groups_[m.group];
  std::vector<UserId> out;
  std::size_t lo = m.position, hi = m.position;
  while (out.size() < Deployment::kTopK && (lo > 0 || hi + 1 < sorted.size())) {
    if (lo > 0) {
      out.push_back(sorted[--lo]);
      if (out.size() >= Deployment::kTopK) break;
    }
    if (hi + 1 < sorted.size()) out.push_back(sorted[++hi]);
  }
  return out;
}

std::size_t KnnReference::group_size(UserId querier) const {
  return sorted_groups_[members_.at(querier - 1).group].size();
}

}  // namespace loadbench
