// Client side of one benchmark op. The untraced path is the library's
// connected client (RemoteClient, or a bare SessionClient for prebuilt
// re-upload bytes). The traced path makes the same public calls
// RemoteClient makes, in the same order and with the same randomness, so
// it emits the same protocol bytes, and wraps each in a span.
#include <cstdio>

#include "bench.hpp"
#include "core/service.hpp"
#include "crypto/drbg.hpp"
#include "measure.hpp"

namespace loadbench {

using namespace smatch;

namespace {

/// Generous per-attempt deadline: a slow op is measured, not retried.
const RetryPolicy kPolicy{.attempt_timeout = std::chrono::milliseconds(5000)};

/// Session seed of one op: distinct per op, so request ids never collide
/// in the server's per-connection replay cache.
std::uint64_t session_seed(std::uint64_t seed, std::uint64_t index) {
  return fnv_u64(index, fnv_u64(seed, 0x6c6f616462656e63ull));
}

/// SessionClient::call inside a "net.call.<kind>" span keyed by the body.
StatusOr<Bytes> traced_call(SessionClient& session, MessageKind kind, const char* name,
                            const Bytes& body) {
  ScopedSpan span(name, request_key(body));
  return session.call(kind, body);
}

OpResult join(const OpContext& ctx, Worker& w, const Op& op, std::uint64_t index, bool traced) {
  OpResult r;
  const Inputs& in = *ctx.inputs;
  const auto id = static_cast<UserId>(Deployment::kJoinIdBase + op.arg);
  const ProfileVec& profile = in.joiners->profile(op.arg % in.joiners->num_users());
  Drbg rng(to_bytes("loadbench/" + std::to_string(in.seed) + "/join-" +
                    std::to_string(op.arg)));
  const RsaPublicKey& pk = ctx.stack->key_server->public_key();
  const std::uint64_t sseed = session_seed(in.seed, index);
  ScopedSpan root(traced ? "op.join" : nullptr);

  StatusOr<Client> created = in_span(traced, "client.create", [&] {
    return Client::create(id, profile, ctx.stack->config);
  });
  if (!created.is_ok()) return r;
  Client& client = *created;

  if (!traced) {
    RemoteClient remote(client, *w.conn, pk, kPolicy, sseed);
    r.ok = remote.enroll(rng).is_ok() && remote.upload(rng).is_ok();
    r.retries = remote.session_stats().retries;
  } else {
    // RemoteClient::enroll
    SessionClient session(*w.traced_conn, kPolicy, sseed);
    std::optional<KeygenSession> keygen;
    const Bytes request = in_span(true, "keygen.request", [&] {
      keygen.emplace(client.keygen(), client.profile(), pk, client.id(), rng);
      return keygen->request_wire();
    });
    StatusOr<Bytes> response = traced_call(session, MessageKind::kOprf, "net.call.oprf", request);
    if (!response.is_ok()) return r;
    StatusOr<ProfileKey> key =
        in_span(true, "keygen.finalize", [&] { return keygen->finalize(*response); });
    if (!key.is_ok()) return r;
    in_span(true, "client.install_key", [&] {
      client.set_profile_key(std::move(*key), client.auth().random_secret(rng));
    });
    // RemoteClient::upload (Client::make_upload, call by call)
    UploadMessage up;
    up.user_id = client.id();
    up.key_index = client.profile_key().index;
    const std::vector<BigInt> mapped =
        in_span(true, "client.init_data", [&] { return client.init_data(rng); });
    up.chain_cipher =
        in_span(true, "client.encrypt_chain", [&] { return client.encrypt_chain(mapped); });
    up.chain_cipher_bits = static_cast<std::uint32_t>(client.chain_cipher_bits());
    up.auth_token =
        in_span(true, "client.auth_token", [&] { return client.make_auth_token(rng); });
    const Bytes wire = in_span(true, "wire.upload_encode", [&] { return up.serialize(); });
    r.ok = traced_call(session, MessageKind::kUpload, "net.call.upload", wire).is_ok();
    r.retries = session.stats().retries;
  }
  const ClientMetrics m = client.metrics();
  r.ope_hits = m.ope_cache_hits;
  r.ope_misses = m.ope_cache_misses;
  return r;
}

OpResult query(const OpContext& ctx, Worker& w, const Op& op, std::uint64_t index, bool traced) {
  OpResult r;
  Client& client = *ctx.stack->clients.at(op.arg);
  const auto query_id = static_cast<std::uint32_t>(index + 1);
  const std::uint64_t timestamp = 1700000000 + index;
  const std::uint64_t sseed = session_seed(ctx.inputs->seed, index);
  ScopedSpan root(traced ? "op.query" : nullptr);

  StatusOr<Client::VerifiedResult> verified = Status(StatusCode::kTimeout, "not run");
  if (!traced) {
    RemoteClient remote(client, *w.conn, ctx.stack->key_server->public_key(), kPolicy, sseed);
    verified = remote.query(query_id, timestamp);
    r.retries = remote.session_stats().retries;
  } else {
    // RemoteClient::query
    SessionClient session(*w.traced_conn, kPolicy, sseed);
    const QueryRequest request = client.make_query(query_id, timestamp);
    const Bytes body = in_span(true, "wire.query_encode", [&] { return request.serialize(); });
    StatusOr<Bytes> response = traced_call(session, MessageKind::kQuery, "net.call.query", body);
    r.retries = session.stats().retries;
    if (response.is_ok()) {
      StatusOr<QueryResult> result =
          in_span(true, "wire.result_decode", [&] { return QueryResult::parse(*response); });
      if (result.is_ok()) {
        verified = in_span(true, "client.verify",
                           [&] { return client.verify_result(request, *result); });
      }
    }
  }
  if (!verified.is_ok()) return r;
  r.ok = true;
  r.rejected = verified->rejected;
  if (ctx.knn != nullptr && index % kKnnSampleEvery == 0) {
    const std::vector<UserId> want = ctx.knn->expected(client.id());
    bool same = want.size() == verified->verified.size();
    for (std::size_t i = 0; same && i < want.size(); ++i) {
      same = want[i] == verified->verified[i].user_id;
    }
    r.knn_mismatch = !same;
  }
  return r;
}

OpResult update(const OpContext& ctx, Worker& w, const Op& op, std::uint64_t index, bool traced) {
  OpResult r;
  const Bytes& wire = ctx.stack->reuploads.at(op.arg);
  const std::uint64_t sseed = session_seed(ctx.inputs->seed, index);
  ScopedSpan root(traced ? "op.update" : nullptr);
  SessionClient session(traced ? *w.traced_conn : *w.conn, kPolicy, sseed);
  const StatusOr<Bytes> ack =
      traced ? traced_call(session, MessageKind::kUpload, "net.call.upload", wire)
             : session.call(MessageKind::kUpload, wire);
  r.ok = ack.is_ok();
  r.retries = session.stats().retries;
  r.upload_bytes = wire.size();
  return r;
}

}  // namespace

OpResult run_op(const OpContext& ctx, Worker& worker, const Op& op, std::uint64_t index,
                bool traced) {
  // Runs on the benchmark's worker threads: an exception becomes a failed op
  // (and so a failed gate), never a terminate.
  try {
    switch (op.kind) {
      case Kind::kJoin: return join(ctx, worker, op, index, traced);
      case Kind::kQuery: return query(ctx, worker, op, index, traced);
      case Kind::kUpdate: return update(ctx, worker, op, index, traced);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadbench: op %llu: %s\n", static_cast<unsigned long long>(index),
                 e.what());
  }
  return {};
}

}  // namespace loadbench
