// parsched — the serve request model: one Request, one dispatcher, one
// Reply interface.
//
//   NDJSON line  --decode_line-->   Request  --dispatch-->  Reply
//   PBIN frame   --decode_frame-->  Request  --dispatch-->  Reply
//
// Every serve verb is implemented once, in dispatch(), the only code
// that talks to the Cluster. The NDJSON codec (serve/protocol.cpp) and
// the PBIN codec (serve/binproto.cpp) decode into the same Request and
// implement Reply, the encode side, so the two wires agree by
// construction. A new verb is one BinOp code, one verb-table row, one
// dispatcher case, and one Reply method per codec if it has a new
// outcome.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "serve/binproto.hpp"
#include "serve/cluster.hpp"

namespace parsched::serve {

/// One request: the verb, the request id and the union of the verb
/// fields; a verb's Verb::fields mask says which it carries. Every member
/// has a default, so a designated initializer names only what it sets.
struct Request {
  BinOp op = BinOp::kPing;
  std::uint64_t rid = 0;
  SessionId session = 0;  ///< kFieldSession
  std::string policy{};   ///< kFieldOpen: policy, machines, speed, key
  int machines = 0;
  double speed = 0.0;
  std::uint64_t key = 0;
  Job job{};              ///< kFieldJob
  double to = 0.0;        ///< kFieldTo
  std::string path{};     ///< kFieldPath ("" means none)
  int shard = 0;          ///< kFieldShard

  friend bool operator==(const Request&, const Request&) = default;
};

/// Request field groups; both codecs read a verb's groups in this order.
enum VerbField : std::uint8_t {
  kFieldSession = 1u << 0,
  kFieldOpen = 1u << 1,
  kFieldJob = 1u << 2,
  kFieldTo = 1u << 3,
  kFieldPath = 1u << 4,
  kFieldShard = 1u << 5,
};

/// One verb: its code, its NDJSON name and the field groups it carries.
struct Verb {
  BinOp op;
  const char* name;
  std::uint8_t fields;
};

[[nodiscard]] const Verb& verb(BinOp op);
/// The verb named `name`; nullptr when there is none.
[[nodiscard]] const Verb* find_verb(std::string_view name);

/// The encode side of a codec: one method per outcome, exactly one call
/// per request. Session verbs answer later, from a pool thread, through
/// a clone().
class Reply {
 public:
  virtual ~Reply() = default;
  virtual void ok() = 0;
  virtual void error(const std::string& message) = 0;
  /// Retryable backpressure: any Submit verdict but kAccepted.
  virtual void reject(Submit verdict) = 0;
  virtual void session(SessionId sid, int shard) = 0;  ///< open/restore
  virtual void query(const Session& s) = 0;
  /// Encodes on the session's strand, from its own result (no copy).
  virtual void finish(const SimResult& result) = 0;
  virtual void stats(const obs::MetricsSnapshot& snapshot) = 0;
  virtual void dump(const std::string& jsonl) = 0;  ///< dump without path
  virtual void evacuated(int shard, int migrated) = 0;
  virtual void cluster(const Cluster& cluster) = 0;
  [[nodiscard]] virtual std::shared_ptr<Reply> clone() const = 0;
};

/// Execute `req` against `cluster` and answer through `reply`: at once
/// for cluster-level verbs, from the session's strand for session verbs.
/// A failure answers error(), a refused Submit reject(). Returns false
/// once a shutdown has been served (the cluster is drained).
bool dispatch(Cluster& cluster, Request req, Reply& reply);

}  // namespace parsched::serve
