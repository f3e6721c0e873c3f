// The S-MATCH load benchmark: one process stands up the real serving
// stack (NetServer -> SmatchService -> MatchServer/KeyServer, plus a
// durable ProfileStore where the workload needs one) and drives it over
// loopback TCP from a few client threads running Client/RemoteClient.
//
// Three workloads (see README.md for the full table):
//   join_wave   new users arrive: Client::create -> enroll (kOprf) ->
//               upload (kUpload) against a small resident population;
//   query_skew  Zipf-skewed queriers send kQuery + Vf against a
//               bulk-loaded population;
//   update_mix  re-uploads and queries against a store-backed engine with
//               background maintenance and a residency budget.
//
// Every run is: inputs from the seed (untimed) -> set-up (timed) ->
// seeded Poisson open loop (latency from intended send time) -> closed
// loop at full speed (peak throughput). A traced run (--trace 1) serves
// half of the open-loop ops through span-wrapped copies of the client
// and handler calls and reports the per-layer breakdown instead.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/key_server.hpp"
#include "core/server.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "scenario/workload.hpp"

namespace loadbench {

using smatch::Bytes;

/// Fixed deployment: the paper's parameters, sized for a 4-core host.
struct Deployment {
  static constexpr std::size_t kAttributes = 6;
  static constexpr std::size_t kCardinality = 32;   // Zipf support per attribute
  static constexpr double kZipfExponent = 1.1;       // attribute values
  static constexpr double kQuerierZipf = 0.4;        // query popularity over users
  static constexpr std::size_t kAttributeBits = 64;
  static constexpr std::uint32_t kRsThreshold = 8;
  static constexpr std::uint32_t kQuantWidth = 8;
  static constexpr std::size_t kRsaBits = 1024;
  static constexpr std::uint64_t kRsaSeed = 0x534d41544348ull;  // fixed OPRF key
  static constexpr std::size_t kTopK = 5;
  static constexpr std::size_t kEngineShards = 8;
  static constexpr std::size_t kEngineThreads = 4;
  static constexpr std::size_t kIoThreads = 2;
  static constexpr std::size_t kDispatchWorkers = 4;
  static constexpr std::size_t kClientThreads = 4;   // = connections
  static constexpr std::uint32_t kJoinIdBase = 1u << 24;  // joiner ids
};

enum class Kind : std::uint8_t { kJoin = 0, kQuery = 1, kUpdate = 2 };
inline constexpr std::size_t kNumKinds = 3;
[[nodiscard]] const char* kind_name(Kind kind);

/// One named workload. Rates are constants: they never adapt per commit.
struct WorkloadSpec {
  std::string name;
  std::size_t population = 0;     // users bulk-loaded at set-up
  double offered_ops_s = 0.0;     // open-loop Poisson rate
  double update_share = 0.0;      // fraction of ops that are re-uploads
  bool joins = false;             // ops are new-user joins
  bool store = false;             // durable store under the engine
  std::size_t reupload_pool = 0;  // prebuilt re-upload messages
  Kind primary = Kind::kQuery;    // the op kind the path-sum check follows
};

/// Known workloads; `tiny` shrinks population and rates for self-tests.
[[nodiscard]] std::optional<WorkloadSpec> find_workload(const std::string& name, bool tiny);

/// One scheduled operation. `at_ns` is the intended send time relative
/// to the start of the open loop (closed-loop ops ignore it); `arg` is
/// the joiner, querier or re-upload slot.
struct Op {
  std::uint64_t at_ns = 0;
  Kind kind = Kind::kQuery;
  std::uint32_t arg = 0;
};

/// Everything derived from the seed before any timing starts.
struct Inputs {
  std::uint64_t seed = 0;
  std::optional<smatch::scenario::Workload> population;
  std::optional<smatch::scenario::Workload> joiners;  // join_wave only
  std::vector<Op> open_ops;    // Poisson schedule over the open loop
  std::vector<Op> closed_ops;  // cycled by the closed loop
  std::vector<std::uint32_t> reupload_users;  // population index per slot
  std::uint64_t digest = 0;
};

[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                                 double open_seconds);

/// The serving stack plus the resident population's client state.
struct Stack {
  smatch::ClientConfig config;
  std::unique_ptr<smatch::KeyServer> key_server;
  std::unique_ptr<smatch::MatchServer> match_server;
  std::unique_ptr<smatch::NetServer> net;         // production dispatcher
  std::unique_ptr<smatch::NetServer> traced_net;  // span-wrapped (trace runs)
  std::vector<std::unique_ptr<smatch::Client>> clients;  // keys installed
  std::vector<smatch::UploadMessage> uploads;            // set-up uploads
  std::vector<Bytes> reuploads;  // prebuilt re-upload wire bytes per slot
  std::string store_dir;
  std::uint64_t wire_digest = 0;  // set-up upload + re-upload bytes

  // Digests of the first kDigestOps upload bodies the open loop sends
  // (joins), filled by the upload tap on either server's handler threads.
  static constexpr std::size_t kDigestOps = 16;
  std::array<std::atomic<std::uint64_t>, kDigestOps> join_digests{};

  ~Stack();
};

struct StackOptions {
  bool trace = false;   // also start the traced server
  bool tamper = false;  // production server forges query results
  std::string store_dir;  // required when the workload has a store
};

/// Builds the stack and bulk-loads the population. This is the timed
/// set-up. Returns null (and prints why) on failure.
[[nodiscard]] std::unique_ptr<Stack> build_stack(const WorkloadSpec& spec, const Inputs& inputs,
                                                 const StackOptions& options);

/// kNN reference from the set-up uploads: per user, the ids Match must
/// return (group sorted by (ciphertext, user id), then the k nearest).
class KnnReference {
 public:
  explicit KnnReference(const std::vector<smatch::UploadMessage>& uploads);
  [[nodiscard]] std::vector<smatch::UserId> expected(smatch::UserId querier) const;
  [[nodiscard]] std::size_t group_size(smatch::UserId querier) const;

 private:
  struct Member {
    smatch::UserId id;
    std::size_t group;
    std::size_t position;
  };
  std::vector<std::vector<smatch::UserId>> sorted_groups_;
  std::vector<Member> members_;  // indexed by user id - 1
};

/// Per-thread client endpoints.
struct Worker {
  std::unique_ptr<smatch::Transport> conn;         // to the production server
  std::unique_ptr<smatch::Transport> traced_conn;  // to the traced server
};

/// What one op observed.
struct OpResult {
  bool ok = false;
  std::size_t rejected = 0;     // Vf rejections in a query result
  bool knn_mismatch = false;    // sampled kNN answer differed from reference
  std::uint64_t retries = 0;    // session retransmits
  std::uint64_t ope_hits = 0;   // joiner's OPE node-cache hits
  std::uint64_t ope_misses = 0;
  std::uint64_t upload_bytes = 0;  // re-upload body bytes sent
};

/// Shared read-only context of the op runners.
struct OpContext {
  const Inputs* inputs = nullptr;
  Stack* stack = nullptr;
  const KnnReference* knn = nullptr;  // null: no kNN check
};

/// Runs one op. `index` is unique per op of the run (request ids, query
/// ids, per-op randomness); `traced` picks the span-wrapped call path.
[[nodiscard]] OpResult run_op(const OpContext& ctx, Worker& worker, const Op& op,
                              std::uint64_t index, bool traced);

/// Every Nth query is checked against the kNN reference.
inline constexpr std::uint64_t kKnnSampleEvery = 8;

}  // namespace loadbench
