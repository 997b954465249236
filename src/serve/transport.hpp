// parsched — transports for the serve protocols.
//
// Two server transports share one ProtocolHandler:
//
//   serve_stdio()        NDJSON lines on stdin, responses on stdout. One
//                        client, trivially debuggable
//                        (`echo '{"op":"ping"}' |
//                        parsched serve --stdio`).
//   serve_unix_socket()  a poll(2) loop on a Unix-domain listener; many
//                        concurrent clients. Each connection speaks
//                        NDJSON *or* PBIN (serve/binproto.hpp), decided
//                        by its first byte: 'P' opens the PBIN hello,
//                        anything else an NDJSON line stream.
//
// Both return once a client's "shutdown" request has been served (or on
// EOF / listener error), after draining the cluster so every queued
// response is flushed. On the socket, each connection cuts its requests
// with one FrameBuffer of its wire (serve/binproto.hpp) and writes every
// reply through one path that frames it for that wire. Responses are
// produced on pool threads; each connection serializes its writes
// behind a mutex, so concurrent sessions interleave whole lines/frames,
// never bytes. A line or frame longer than kMaxFramePayload, a bad PBIN
// hello or a rejected version drops that connection alone.
//
// The accept loop is hardened against transient failures: EINTR,
// ECONNABORTED and load-shedding errnos (EMFILE/ENFILE/ENOBUFS) skip
// the failed accept and keep listening (accept_should_retry()); only a
// genuinely broken listener (EBADF, EINVAL) stops the loop.
//
// Client is the matching blocking client of either wire (used by
// parsched loadgen and ctl, and the socket tests): connect with retry —
// the server may still be binding — then, on PBIN, the hello, then
// strict request/response. serve_stdio reads its own pipe with
// std::getline and does not use the framer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/binproto.hpp"
#include "serve/protocol.hpp"

namespace parsched::serve {

/// Serve NDJSON over stdin/stdout until shutdown or EOF.
void serve_stdio(ProtocolHandler& handler);

/// Serve NDJSON + PBIN over a Unix-domain socket at `path` (unlinked
/// and re-created). Throws std::runtime_error when the listener cannot
/// be set up; returns after a shutdown request.
void serve_unix_socket(ProtocolHandler& handler, const std::string& path);

/// True when an ::accept() failure with this errno is transient — the
/// aborted/interrupted connection is skipped and the listener keeps
/// accepting. False means the listener itself is broken.
[[nodiscard]] bool accept_should_retry(int error);

/// Connect to a Unix-domain socket, retrying (the server may still be
/// binding) until `timeout_seconds` elapses; throws std::runtime_error
/// on timeout. Returns the connected fd (caller owns/closes).
[[nodiscard]] int connect_unix_client(const std::string& path,
                                      double timeout_seconds);

/// Write the whole buffer, riding out EINTR and partial writes; false
/// when the peer vanished (EPIPE surfaces as a return, never a signal).
bool send_all(int fd, const char* data, std::size_t len);

/// Blocking client of either wire over a Unix-domain socket. Not
/// thread-safe: one client per thread (loadgen opens one per worker).
class Client {
 public:
  /// Connect, retrying (the server may still be starting) until
  /// `timeout_seconds` elapses; throws std::runtime_error on timeout. On
  /// Wire::kFrame, proposes `version` in the PBIN hello and throws
  /// std::runtime_error when the server rejects it.
  explicit Client(const std::string& path, double timeout_seconds = 10.0,
                  Wire wire = Wire::kLine,
                  std::uint32_t version = kBinProtoVersion);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request payload (a line without '\n', or an unframed
  /// frame payload), block for the next reply payload. Strict
  /// request/response: never issue a second request before the first
  /// reply arrived (replies carry no framing besides order).
  std::string request(const std::string& payload);

  /// Stamp `req.rid` from this client's counter (0, 1, ... — a retry
  /// takes the next one), encode it for the wire, and decode the reply.
  [[nodiscard]] BinResponse call(Request req);

  /// The PBIN version the hello settled on; 0 on Wire::kLine.
  [[nodiscard]] std::uint32_t negotiated() const { return negotiated_; }

 private:
  int fd_ = -1;
  FrameBuffer framer_;
  std::uint32_t negotiated_ = 0;
  std::uint64_t rid_ = 0;
};

}  // namespace parsched::serve
