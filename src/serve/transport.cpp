#include "serve/transport.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "serve/binproto.hpp"

namespace parsched::serve {

namespace {

/// Bytes one read(2)/recv(2) of a serve loop asks for: a 64 MiB stream
/// takes ~1k wakeups.
constexpr std::size_t kReadBytes = 64 * 1024;

void sleep_seconds(double seconds) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec =
      static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  nanosleep(&ts, nullptr);
}

/// One accepted connection. Pool threads write responses through
/// write() while the poll loop reads requests, so writes serialize
/// behind `mu` and survive the connection being closed (they become
/// no-ops). The first byte the client sends picks the wire: 'P' opens
/// the PBIN hello, anything else an NDJSON line stream.
struct Connection {
  explicit Connection(int sock) : fd(sock) {}

  /// One reply payload, framed for this connection's wire. Pool threads
  /// read only the framer's wire, which is set before the first request.
  void write(const std::string& payload) { write_raw(framer->wrap(payload)); }

  /// Bytes as they are: the PBIN hello answer, or a framed reply.
  void write_raw(const std::string& bytes) {
    std::lock_guard<std::mutex> lock(mu);
    if (closed) return;
    if (!send_all(fd, bytes.data(), bytes.size())) closed = true;
  }

  void close() {
    std::lock_guard<std::mutex> lock(mu);
    if (!closed) {
      closed = true;
      ::close(fd);
    }
  }

  std::mutex mu;
  int fd;
  bool closed = false;
  std::optional<FrameBuffer> framer;  // set by the first byte (poll loop)
  std::string hello;                  // PBIN hello bytes (poll loop only)
};

/// Feed bytes the client sent and serve every complete request. Returns
/// false once a shutdown request has been served. Throws
/// std::invalid_argument when the stream cannot be read on — a bad or
/// rejected PBIN hello, or a line or frame over kMaxFramePayload — and
/// the caller drops the connection.
bool pump(ProtocolHandler& handler, const std::shared_ptr<Connection>& conn,
          std::string_view bytes) {
  if (!conn->framer) {
    conn->framer.emplace(bytes.front() == kBinMagic[0] ? Wire::kFrame
                                                       : Wire::kLine);
  }
  const bool frames = conn->framer->wire() == Wire::kFrame;
  if (frames && conn->hello.size() < kBinHelloSize) {
    const std::size_t take =
        std::min(bytes.size(), kBinHelloSize - conn->hello.size());
    conn->hello.append(bytes.substr(0, take));
    bytes.remove_prefix(take);
    if (conn->hello.size() < kBinHelloSize) return true;
    const std::uint32_t negotiated =
        std::min(decode_hello(conn->hello), kBinProtoVersion);
    conn->write_raw(encode_hello(negotiated));
    if (negotiated == 0) {
      throw std::invalid_argument("no PBIN version in common");
    }
  }
  conn->framer->feed(bytes);
  const ProtocolHandler::WriteFn write = [conn](const std::string& reply) {
    conn->write(reply);
  };
  std::string payload;
  while (conn->framer->next(payload)) {
    if (!(frames ? handler.handle_frame(payload, write)
                 : handler.handle_line(payload, write))) {
      return false;
    }
  }
  return true;
}

/// Block for at most `max` bytes, riding out EINTR; throws
/// std::runtime_error once the server is gone.
std::size_t recv_some(int fd, char* out, std::size_t max) {
  for (;;) {
    const ssize_t n = ::recv(fd, out, max, 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("server connection lost (recv)");
  }
}

}  // namespace

bool send_all(int fd, const char* data, std::size_t len) {
  // MSG_NOSIGNAL: a vanished client must surface as EPIPE, not SIGPIPE.
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool accept_should_retry(int error) {
  switch (error) {
    case EINTR:         // signal during accept — just try again
    case ECONNABORTED:  // client gave up while queued — not our problem
#if defined(EPROTO)
    case EPROTO:  // protocol hiccup on the nascent socket
#endif
    case EAGAIN:  // raced another accept / spurious wakeup
#if EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case EMFILE:   // fd exhaustion: shed this client, keep listening
    case ENFILE:
    case ENOBUFS:
    case ENOMEM:
      return true;
    default:
      return false;  // EBADF/EINVAL/...: the listener itself is broken
  }
}

void serve_stdio(ProtocolHandler& handler) {
  auto out_mu = std::make_shared<std::mutex>();
  const ProtocolHandler::WriteFn write = [out_mu](const std::string& line) {
    std::lock_guard<std::mutex> lock(*out_mu);
    std::cout << line << '\n' << std::flush;
  };
  FrameBuffer lines(Wire::kLine);
  std::vector<char> buf(kReadBytes);
  std::string line;
  try {
    for (bool eof = false; !eof;) {
      const ssize_t n = ::read(STDIN_FILENO, buf.data(), buf.size());
      if (n < 0 && errno == EINTR) continue;
      eof = n <= 0;
      // At EOF (or a read error) a last line without its '\n' is served
      // as it stands.
      lines.feed(eof ? std::string_view("\n")
                     : std::string_view(buf.data(),
                                        static_cast<std::size_t>(n)));
      while (lines.next(line)) {
        if (!handler.handle_line(line, write)) return;
      }
    }
  } catch (const std::invalid_argument&) {
    // A line over kMaxFramePayload ends the session; the requests before
    // it are still answered.
    handler.drain();
    throw;
  }
  // EOF: flush every queued response before returning.
  handler.drain();
}

void serve_unix_socket(ProtocolHandler& handler, const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    throw std::runtime_error("socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(listener);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listener);
    throw std::runtime_error("cannot listen on " + path + ": " + why);
  }

  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  std::vector<char> buf(kReadBytes);
  bool running = true;
  while (running) {
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listener, POLLIN, 0});
    for (const auto& [fd, conn] : conns) {
      fds.push_back(pollfd{fd, POLLIN, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd >= 0) {
        conns.emplace(fd, std::make_shared<Connection>(fd));
      } else if (!accept_should_retry(errno)) {
        break;  // the listener is broken; drain and tear down below
      }
      // Transient accept failure: the aborted client is gone, the
      // listener keeps serving everyone else.
    }
    std::vector<int> dead;
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const auto it = conns.find(fds[i].fd);
      if (it == conns.end()) continue;
      const ssize_t n = ::recv(fds[i].fd, buf.data(), buf.size(), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        dead.push_back(fds[i].fd);
        continue;
      }
      try {
        running = pump(
            handler, it->second,
            std::string_view(buf.data(), static_cast<std::size_t>(n)));
      } catch (const std::invalid_argument&) {
        dead.push_back(fds[i].fd);  // framing error: cannot resynchronize
      }
      if (!running) break;
    }
    for (const int fd : dead) {
      const auto it = conns.find(fd);
      if (it != conns.end()) {
        it->second->close();
        conns.erase(it);
      }
    }
  }

  // Shutdown already drained the cluster (every response is out); now
  // the endpoints can go.
  for (auto& [fd, conn] : conns) conn->close();
  ::close(listener);
  ::unlink(path.c_str());
}

int connect_unix_client(const std::string& path, double timeout_seconds) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const double deadline = obs::monotonic_seconds() + timeout_seconds;
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error("socket() failed: " +
                               std::string(std::strerror(errno)));
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    if (obs::monotonic_seconds() >= deadline) {
      throw std::runtime_error("cannot connect to " + path + " within " +
                               std::to_string(timeout_seconds) + "s");
    }
    sleep_seconds(0.02);  // the server may still be binding
  }
}

Client::Client(const std::string& path, double timeout_seconds, Wire wire,
               std::uint32_t version)
    : fd_(connect_unix_client(path, timeout_seconds)), framer_(wire) {
  if (wire == Wire::kLine) return;
  try {
    const std::string hello = encode_hello(version);
    if (!send_all(fd_, hello.data(), hello.size())) {
      throw std::runtime_error("server connection lost (hello)");
    }
    char reply[kBinHelloSize];
    for (std::size_t got = 0; got < sizeof(reply);) {
      got += recv_some(fd_, reply + got, sizeof(reply) - got);
    }
    negotiated_ = decode_hello(std::string_view(reply, sizeof(reply)));
    if (negotiated_ == 0) {
      throw std::runtime_error("server rejected PBIN version " +
                               std::to_string(version));
    }
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

Client::~Client() { ::close(fd_); }

std::string Client::request(const std::string& payload) {
  const std::string bytes = framer_.wrap(payload);
  if (!send_all(fd_, bytes.data(), bytes.size())) {
    throw std::runtime_error("server connection lost (send)");
  }
  std::string reply;
  while (!framer_.next(reply)) {
    char buf[4096];
    framer_.feed(std::string_view(buf, recv_some(fd_, buf, sizeof(buf))));
  }
  return reply;
}

BinResponse Client::call(Request req) {
  req.rid = rid_++;
  if (framer_.wire() == Wire::kFrame) {
    return parse_bin_response(request(encode_frame(req)));
  }
  return decode_reply_line(request(encode_line(req)));
}

}  // namespace parsched::serve
