// parsched — PBIN, the compact binary serve protocol.
//
// PBIN is the second codec of the serve request model (serve/dispatch.hpp):
// a frame decodes into the same Request an NDJSON line does, the one
// dispatcher executes it, and a PBIN Reply encodes the outcome. So the
// verbs, verdicts and strand semantics are NDJSON's by construction; what
// differs is the encoding — length-prefixed frames instead of lines, and
// doubles as raw IEEE-754 bits (the serve/wire codec shared with the PSNP
// snapshots) instead of decimal text, which makes PBIN the protocol of
// choice for bit-identity checks.
//
// Connection life cycle on a Unix-socket transport:
//
//   client                              server
//   ------ "PBIN" + u32 version ----->         (8-byte hello)
//   <----- "PBIN" + u32 negotiated ---         (0 = rejected, closes)
//   ------ frame(request) ----------->
//   <----- frame(response) ----------         (any order across
//   ...                                        sessions, FIFO within)
//
// The transport decides NDJSON vs PBIN per connection by the first
// byte: '{' (or whitespace) opens an NDJSON line stream, 'P' opens the
// PBIN hello. The server answers min(client_version, kBinProtoVersion),
// or 0 when it cannot speak anything the client proposed (then closes).
//
// Framing: u32 LE payload length, then the payload. FrameBuffer is the
// one framer of both wires: it cuts NDJSON lines and PBIN frames torn at
// any byte offset, caps either at kMaxFramePayload bytes, and wraps a
// payload for the writer; the transport and the Client both use it.
// Payload layout (WireWriter encoding, all little-endian):
//
//   request:   u8 op, u64 request_id, the verb's field groups in
//              Request order (serve/dispatch.hpp kField*); written by
//              encode_frame() and read by decode_frame(), the one
//              encode/decode pair (serve/protocol.hpp)
//   response:  u8 status (0 ok / 1 error / 2 reject), u64 request_id,
//              u8 op, then the ok fields of the outcome, an error's str
//              message, or a reject's u8 Submit verdict code
//
// Clients build a serve::Request and encode it with encode_frame(); the
// bin_* functions below are shorthands for the verbs a closed-loop
// client sends most. parse_bin_response() reads a reply, and
// decode_reply_line() reads an NDJSON reply into the same BinResponse.
// docs/API.md §serve/ has the field tables. Unknown ops and corrupt
// payloads answer status=error; a frame or NDJSON line longer than
// kMaxFramePayload kills the connection (it cannot be resynchronized).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "simcore/job.hpp"

namespace parsched::serve {

inline constexpr char kBinMagic[4] = {'P', 'B', 'I', 'N'};
inline constexpr std::uint32_t kBinProtoVersion = 1;
inline constexpr std::size_t kBinHelloSize = 8;
/// Upper bound on one frame payload or NDJSON line (without its '\n');
/// a longer one is corruption (the stream cannot be resynchronized past
/// it).
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// The serve verbs. Values are the PBIN wire codes — append only.
enum class BinOp : std::uint8_t {
  kPing = 0,
  kOpen = 1,
  kAdmit = 2,
  kAdvance = 3,
  kQuery = 4,
  kSnapshot = 5,
  kRestore = 6,
  kFinish = 7,
  kClose = 8,
  kStats = 9,
  kDump = 10,
  kShutdown = 11,
  kMigrate = 12,
  kEvacuate = 13,
  kCluster = 14,
};

/// Response status byte.
enum class BinStatus : std::uint8_t {
  kOk = 0,
  kError = 1,
  kReject = 2,
};

// ---- framing --------------------------------------------------------------

/// Length-prefix one payload: u32 LE size + bytes.
[[nodiscard]] std::string frame(std::string_view payload);

/// The 8-byte hello ("PBIN" + u32 LE version).
[[nodiscard]] std::string encode_hello(std::uint32_t version);

/// Parse an 8-byte hello; throws std::invalid_argument on bad magic.
[[nodiscard]] std::uint32_t decode_hello(std::string_view hello);

/// The two serve wires: NDJSON lines and PBIN frames.
enum class Wire : std::uint8_t { kLine, kFrame };

/// The framer of one wire. feed() takes arbitrary byte chunks; next()
/// yields complete payloads in order: a line without its '\n' (empty
/// lines are skipped) or a frame payload, torn at any byte offset. Each
/// byte is scanned once, however the stream is chunked. next() throws
/// std::invalid_argument for a frame length or a line longer than
/// kMaxFramePayload, or for more than kMaxFramePayload bytes without a
/// '\n'. wrap() gives the bytes a writer sends for one payload.
class FrameBuffer {
 public:
  explicit FrameBuffer(Wire wire = Wire::kFrame) : wire_(wire) {}

  [[nodiscard]] Wire wire() const { return wire_; }

  void feed(std::string_view data);

  /// Extract the next complete payload into `payload`; false when more
  /// bytes are needed.
  bool next(std::string& payload);

  /// `payload` framed for this wire: with '\n' appended, or frame().
  [[nodiscard]] std::string wrap(std::string_view payload) const;

 private:
  Wire wire_;
  std::string buf_;
  std::size_t head_ = 0;     ///< start of the bytes next() has not taken
  std::size_t scanned_ = 0;  ///< bytes past head_ known to hold no '\n'
};

// ---- request encoders (client side) ---------------------------------------

// Shorthands for encode_frame() (serve/protocol.hpp) of the verbs a
// closed-loop client sends most; any other request is a Request passed
// to encode_frame() itself.
[[nodiscard]] std::string bin_open(std::uint64_t rid,
                                   const std::string& policy, int machines,
                                   double speed, std::uint64_t key = 0);
[[nodiscard]] std::string bin_admit(std::uint64_t rid, std::uint64_t session,
                                    const Job& job);
[[nodiscard]] std::string bin_advance(std::uint64_t rid,
                                      std::uint64_t session, double to);
[[nodiscard]] std::string bin_stats(std::uint64_t rid);
[[nodiscard]] std::string bin_finish(std::uint64_t rid,
                                     std::uint64_t session);
[[nodiscard]] std::string bin_close(std::uint64_t rid,
                                    std::uint64_t session);

// ---- response decoder (client side) ---------------------------------------

/// One parsed response payload. Which fields are meaningful depends on
/// (status, op); unset fields keep their zero values.
struct BinResponse {
  BinStatus status = BinStatus::kError;
  std::uint64_t rid = 0;
  BinOp op = BinOp::kPing;
  std::string error;        ///< status == kError
  std::uint8_t verdict = 0; ///< status == kReject: Submit code

  std::uint64_t session = 0;  ///< open/restore
  int shard = -1;             ///< open/restore

  // query/finish result block
  std::string policy;
  double time = 0.0;
  double frontier = 0.0;
  std::uint64_t alive = 0;
  std::uint64_t pending = 0;
  bool finished = false;
  std::uint64_t jobs = 0;
  double total_flow = 0.0;
  double weighted_flow = 0.0;
  double fractional_flow = 0.0;
  double makespan = 0.0;
  std::uint64_t decisions = 0;
  std::uint64_t events = 0;

  struct Record {
    std::uint32_t job = 0;
    double release = 0.0;
    double completion = 0.0;
  };
  std::vector<Record> records;  ///< finish

  std::string text;       ///< stats exposition / dump JSONL
  int migrated = 0;       ///< evacuate
  int shards = 0;         ///< cluster
  std::uint64_t sessions = 0;          ///< cluster (total)
  std::vector<std::uint32_t> shard_sessions;  ///< cluster, per shard
  std::vector<bool> in_ring;                  ///< cluster, per shard
};

/// Parse a response payload; throws std::invalid_argument on corruption.
[[nodiscard]] BinResponse parse_bin_response(std::string_view payload);

}  // namespace parsched::serve
