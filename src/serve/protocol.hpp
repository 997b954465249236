// parsched — ProtocolHandler, the serve front door, and the NDJSON codec.
//
// One request per line, one JSON object per request; every response is a
// single compact JSON line carrying the request's "id" back. Grammar
// (docs/API.md §serve/ has the full field tables):
//
//   {"op":"open","id":1,"policy":"equi","machines":4,"speed":1,"key":42}
//     -> {"id":1,"ok":true,"session":7,"shard":2}
//   {"op":"admit","id":2,"session":7,
//    "job":{"id":0,"release":0,"size":2.5,"curve":"pow:0.5"}}
//   {"op":"advance","id":3,"session":7,"to":10.5}
//   {"op":"query","id":4,"session":7}
//   {"op":"snapshot","id":5,"session":7,"path":"s.psnp"}
//   {"op":"restore","id":6,"path":"s.psnp"} -> fresh session id
//   {"op":"finish","id":7,"session":7}      -> final result + records
//   {"op":"close","id":8,"session":7}
//   {"op":"ping","id":9}
//   {"op":"stats","id":10}    -> "exposition": Prometheus text
//   {"op":"dump","id":11}     -> inline flight-recorder JSONL in "dump";
//                                with "path", written to that file
//   {"op":"shutdown","id":13} -> drains, then stops serving
//   {"op":"migrate","id":14,"session":7,"shard":1}
//   {"op":"evacuate","id":15,"shard":0} -> {...,"shard":0,"migrated":5}
//   {"op":"cluster","id":16}  -> "shards", "sessions", "shard_sessions",
//                                "in_ring"
//
// Failures answer {"id":..,"ok":false,"error":"..."}; load rejections
// (queue full, draining, session cap, unknown session) additionally
// carry {"reject":"queue_full"} so clients can tell backpressure from
// caller bugs. Integral fields (session, machines, key, shard, job.id)
// must be integer literals in their type's range, and at most 2^53 in
// magnitude: JSON numbers are doubles, which round a longer integer or
// a fraction to a whole neighbour (2^53 + 1 reads as 2^53,
// 1.0000000000000001 as 1), so such a value is an error, not a
// different id. A whole nonnegative "id" is the request id, under the
// same rule; any other number is only echoed. Curve specs are
// "par", "seq", or "pow:<alpha>".
//
// The handler speaks both wires: handle_line() decodes an NDJSON line,
// handle_frame() a PBIN frame (serve/binproto.hpp), into the same
// Request, and serve::dispatch() (serve/dispatch.hpp) executes it
// against the handler's Cluster and answers through the codec's Reply.
// Clients use the mirror image: encode_line() / encode_frame() write a
// Request in the groups and order their decoders read, and
// decode_reply_line() reads an NDJSON reply into the BinResponse that
// parse_bin_response() gives a PBIN one, so a client handles one reply
// type whichever wire it speaks.
// Session verbs answer from pool threads via the WriteFn, which must
// therefore be thread-safe (the transports wrap a mutex around the
// output). Per session, responses arrive in request order; across
// sessions they interleave.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "serve/cluster.hpp"
#include "serve/dispatch.hpp"

namespace parsched::serve {

/// The NDJSON codec's decode half: the Request one line carries. Throws
/// std::invalid_argument with the message the error response carries.
[[nodiscard]] Request decode_line(std::string_view line);

/// The NDJSON codec's encode half, the mirror of decode_line(): the
/// verb's field groups in verb-table order, every field of a group
/// written. decode_line(encode_line(r)) == r when, besides that, the
/// request's doubles are finite. Throws std::invalid_argument, as the
/// decoder would, for a rid, session or key above 2^53 (JSON numbers are
/// doubles), and for a piecewise-linear job or phase curve, which NDJSON
/// cannot spell.
[[nodiscard]] std::string encode_line(const Request& req);

/// The NDJSON codec's reply reader: one reply line in the shape
/// parse_bin_response() gives a PBIN reply. The line carries no op
/// (`op` stays kPing) and a reject carries its verdict code but no
/// error text, as on PBIN; an evacuate reply also fills `shard`. Throws
/// std::invalid_argument when the line is not a reply.
[[nodiscard]] BinResponse decode_reply_line(std::string_view line);

/// The PBIN codec's decode half (serve/binproto.cpp): fills `req` from a
/// request frame payload, op and request id first, so a throw
/// (std::invalid_argument) leaves what the error response echoes.
void decode_frame(std::string_view payload, Request& req);

/// The PBIN codec's encode half (serve/binproto.cpp), the mirror of
/// decode_frame(): u8 op, u64 rid, then the verb's field groups in
/// verb-table order. decode_frame(encode_frame(r)) == r for every
/// request whose fields outside the verb's groups are at their
/// defaults.
[[nodiscard]] std::string encode_frame(const Request& req);

class ProtocolHandler {
 public:
  /// Thread-safe sink for one complete response line (NDJSON, no
  /// trailing '\n') or one response frame payload (PBIN, unframed).
  using WriteFn = std::function<void(const std::string&)>;

  explicit ProtocolHandler(Cluster::Config cfg) : cluster_(cfg) {}

  /// Process one NDJSON request line. Responses (possibly deferred to a
  /// pool thread) go to `write`, which is retained until the response
  /// is emitted. Returns false once a "shutdown" request has been
  /// served — the transport should stop reading and tear down.
  bool handle_line(std::string_view line, WriteFn write);

  /// Process one PBIN request frame payload. `write` receives the
  /// response payload, unframed — the transport adds the length prefix.
  /// Same shutdown contract as handle_line.
  bool handle_frame(std::string_view payload, WriteFn write);

  [[nodiscard]] Cluster& cluster() { return cluster_; }

  /// Flush every queued response and stop accepting work (the
  /// transports call this on EOF).
  void drain() { cluster_.drain(); }

 private:
  Cluster cluster_;
};

}  // namespace parsched::serve
