#include "serve/binproto.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/expose.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"

namespace parsched::serve {

namespace {

// ---- job codec (PSNP's without the tag) ----------------------------------

void put_job(WireWriter& w, const Job& j) {
  w.u32(j.id);
  w.f64(j.release);
  w.f64(j.size);
  w.f64(j.weight);
  put_curve(w, j.curve);
  put_phases(w, j.phases);
}

Job get_job(WireReader& r) {
  Job j;
  j.id = r.u32();
  j.release = r.f64();
  j.size = r.f64();
  j.weight = r.f64();
  j.curve = get_curve(r);
  j.phases = get_phases(r);
  return j;
}

void put_result_block(WireWriter& w, const SimResult& r) {
  w.u64(static_cast<std::uint64_t>(r.records.size()));
  w.f64(r.total_flow);
  w.f64(r.weighted_flow);
  w.f64(r.fractional_flow);
  w.f64(r.makespan);
  w.u64(r.decisions);
  w.u64(r.events);
}

/// The PBIN encode side: u8 status, u64 request id, u8 op, then the
/// outcome's fields (docs/API.md §serve/ has the tables).
class FrameReply final : public Reply {
 public:
  FrameReply(std::uint64_t rid, BinOp op, ProtocolHandler::WriteFn write)
      : rid_(rid), op_(op), write_(std::move(write)) {}

  void ok() override {
    WireWriter w = head(BinStatus::kOk);
    send(w);
  }
  void error(const std::string& message) override {
    WireWriter w = head(BinStatus::kError);
    w.str(message);
    send(w);
  }
  void reject(Submit verdict) override {
    WireWriter w = head(BinStatus::kReject);
    w.u8(static_cast<std::uint8_t>(verdict));
    send(w);
  }
  void session(SessionId sid, int shard) override {
    WireWriter w = head(BinStatus::kOk);
    w.u64(sid);
    w.u32(static_cast<std::uint32_t>(shard));
    send(w);
  }
  void query(const Session& s) override {
    WireWriter w = head(BinStatus::kOk);
    w.str(s.policy_name());
    w.f64(s.time());
    w.f64(s.frontier());
    w.u64(static_cast<std::uint64_t>(s.alive_count()));
    w.u64(static_cast<std::uint64_t>(s.pending_count()));
    w.u8(s.finished() ? 1 : 0);
    put_result_block(w, s.partial());
    send(w);
  }
  void finish(const SimResult& r) override {
    WireWriter w = head(BinStatus::kOk);
    put_result_block(w, r);
    w.size(r.records.size());
    for (const JobRecord& rec : r.records) {
      w.u32(rec.job.id);
      w.f64(rec.job.release);
      w.f64(rec.completion);
    }
    send(w);
  }
  void stats(const obs::MetricsSnapshot& snap) override {
    dump(obs::exposition_text(snap));
  }
  void dump(const std::string& text) override {
    WireWriter w = head(BinStatus::kOk);
    w.str(text);
    send(w);
  }
  void evacuated(int /*shard*/, int migrated) override {
    WireWriter w = head(BinStatus::kOk);
    w.u32(static_cast<std::uint32_t>(migrated));
    send(w);
  }
  void cluster(const Cluster& c) override {
    WireWriter w = head(BinStatus::kOk);
    const int n = c.shards();
    w.u32(static_cast<std::uint32_t>(n));
    w.u64(static_cast<std::uint64_t>(c.session_count()));
    for (int i = 0; i < n; ++i) {
      w.u32(static_cast<std::uint32_t>(c.session_count(i)));
      w.u8(c.shard_in_ring(i) ? 1 : 0);
    }
    send(w);
  }
  [[nodiscard]] std::shared_ptr<Reply> clone() const override {
    return std::make_shared<FrameReply>(*this);
  }

 private:
  WireWriter head(BinStatus status) const {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(status));
    w.u64(rid_);
    w.u8(static_cast<std::uint8_t>(op_));
    return w;
  }
  void send(WireWriter& w) { write_(w.take()); }

  std::uint64_t rid_;
  BinOp op_;
  ProtocolHandler::WriteFn write_;
};

}  // namespace

// ---- framing --------------------------------------------------------------

std::string frame(std::string_view payload) {
  WireWriter w;
  w.str(payload);  // u32 length prefix + bytes — exactly the frame shape
  return w.take();
}

std::string encode_hello(std::uint32_t version) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(kBinMagic[0]));
  w.u8(static_cast<std::uint8_t>(kBinMagic[1]));
  w.u8(static_cast<std::uint8_t>(kBinMagic[2]));
  w.u8(static_cast<std::uint8_t>(kBinMagic[3]));
  w.u32(version);
  return w.take();
}

std::uint32_t decode_hello(std::string_view hello) {
  WireReader r(hello, "hello");
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.u8());
  if (std::memcmp(magic, kBinMagic, sizeof(kBinMagic)) != 0) {
    r.fail("bad magic (not a PBIN hello)");
  }
  return r.u32();
}

void FrameBuffer::feed(std::string_view data) {
  if (head_ > 0) {  // drop what next() took; a byte moves at most once
    buf_.erase(0, head_);
    head_ = 0;
  }
  buf_.append(data.data(), data.size());
}

bool FrameBuffer::next(std::string& payload) {
  if (wire_ == Wire::kLine) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', head_ + scanned_);
      const std::size_t len =
          (nl == std::string::npos ? buf_.size() : nl) - head_;
      if (len > kMaxFramePayload) {
        throw std::invalid_argument("line longer than the " +
                                    std::to_string(kMaxFramePayload) +
                                    "-byte cap");
      }
      if (nl == std::string::npos) {
        scanned_ = len;
        return false;
      }
      const std::size_t start = head_;
      head_ = nl + 1;
      scanned_ = 0;
      if (len > 0) {
        payload.assign(buf_, start, len);
        return true;
      }
    }
  }
  const std::size_t avail = buf_.size() - head_;
  if (avail < 4) return false;
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(buf_[head_ + i]))
           << (8 * i);
  }
  if (len > kMaxFramePayload) {
    throw std::invalid_argument("frame payload of " + std::to_string(len) +
                                " bytes exceeds the " +
                                std::to_string(kMaxFramePayload) +
                                "-byte cap");
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return false;
  payload.assign(buf_, head_ + 4, len);
  head_ += 4 + static_cast<std::size_t>(len);
  return true;
}

std::string FrameBuffer::wrap(std::string_view payload) const {
  if (wire_ == Wire::kFrame) return frame(payload);
  std::string out;
  out.reserve(payload.size() + 1);
  out.append(payload);
  out.push_back('\n');
  return out;
}

// ---- request encoders -----------------------------------------------------

std::string encode_frame(const Request& req) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(req.op));
  w.u64(req.rid);
  const std::uint8_t fields = verb(req.op).fields;
  if ((fields & kFieldSession) != 0) w.u64(req.session);
  if ((fields & kFieldOpen) != 0) {
    w.str(req.policy);
    w.u32(static_cast<std::uint32_t>(req.machines));
    w.f64(req.speed);
    w.u64(req.key);
  }
  if ((fields & kFieldJob) != 0) put_job(w, req.job);
  if ((fields & kFieldTo) != 0) w.f64(req.to);
  if ((fields & kFieldPath) != 0) w.str(req.path);
  if ((fields & kFieldShard) != 0) w.u32(static_cast<std::uint32_t>(req.shard));
  return w.take();
}

std::string bin_open(std::uint64_t rid, const std::string& policy,
                     int machines, double speed, std::uint64_t key) {
  return encode_frame({.op = BinOp::kOpen, .rid = rid, .policy = policy,
                       .machines = machines, .speed = speed, .key = key});
}

std::string bin_admit(std::uint64_t rid, std::uint64_t session,
                      const Job& job) {
  return encode_frame(
      {.op = BinOp::kAdmit, .rid = rid, .session = session, .job = job});
}

std::string bin_advance(std::uint64_t rid, std::uint64_t session,
                        double to) {
  return encode_frame(
      {.op = BinOp::kAdvance, .rid = rid, .session = session, .to = to});
}

std::string bin_stats(std::uint64_t rid) {
  return encode_frame({.op = BinOp::kStats, .rid = rid});
}

std::string bin_finish(std::uint64_t rid, std::uint64_t session) {
  return encode_frame({.op = BinOp::kFinish, .rid = rid, .session = session});
}

std::string bin_close(std::uint64_t rid, std::uint64_t session) {
  return encode_frame({.op = BinOp::kClose, .rid = rid, .session = session});
}

// ---- response decoder -----------------------------------------------------

BinResponse parse_bin_response(std::string_view payload) {
  WireReader r(payload, "frame");
  BinResponse out;
  out.status = static_cast<BinStatus>(r.u8());
  out.rid = r.u64();
  out.op = static_cast<BinOp>(r.u8());
  if (out.status == BinStatus::kError) {
    out.error = r.str();
    return out;
  }
  if (out.status == BinStatus::kReject) {
    out.verdict = r.u8();
    return out;
  }
  switch (out.op) {
    case BinOp::kPing:
    case BinOp::kAdmit:
    case BinOp::kAdvance:
    case BinOp::kSnapshot:
    case BinOp::kClose:
    case BinOp::kShutdown:
    case BinOp::kMigrate:
      break;
    case BinOp::kOpen:
    case BinOp::kRestore:
      out.session = r.u64();
      out.shard = static_cast<int>(r.u32());
      break;
    case BinOp::kQuery:
    case BinOp::kFinish: {
      if (out.op == BinOp::kQuery) {
        out.policy = r.str();
        out.time = r.f64();
        out.frontier = r.f64();
        out.alive = r.u64();
        out.pending = r.u64();
        out.finished = r.u8() != 0;
      }
      out.jobs = r.u64();
      out.total_flow = r.f64();
      out.weighted_flow = r.f64();
      out.fractional_flow = r.f64();
      out.makespan = r.f64();
      out.decisions = r.u64();
      out.events = r.u64();
      if (out.op == BinOp::kQuery) break;
      const std::size_t n = r.size();
      out.records.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        BinResponse::Record rec;
        rec.job = r.u32();
        rec.release = r.f64();
        rec.completion = r.f64();
        out.records.push_back(rec);
      }
      break;
    }
    case BinOp::kStats:
    case BinOp::kDump:
      out.text = r.str();
      break;
    case BinOp::kEvacuate:
      out.migrated = static_cast<int>(r.u32());
      break;
    case BinOp::kCluster: {
      out.shards = static_cast<int>(r.u32());
      out.sessions = r.u64();
      for (int i = 0; i < out.shards; ++i) {
        out.shard_sessions.push_back(r.u32());
        out.in_ring.push_back(r.u8() != 0);
      }
      break;
    }
  }
  if (!r.done()) r.fail("trailing bytes after response payload");
  return out;
}

// ---- server-side decode + handler ----------------------------------------

void decode_frame(std::string_view payload, Request& req) {
  WireReader r(payload, "frame");
  const std::uint8_t op = r.u8();
  req.rid = r.u64();
  if (op > static_cast<std::uint8_t>(BinOp::kCluster)) {
    throw std::invalid_argument("unknown op: " + std::to_string(op));
  }
  req.op = static_cast<BinOp>(op);
  const std::uint8_t fields = verb(req.op).fields;
  if ((fields & kFieldSession) != 0) req.session = r.u64();
  if ((fields & kFieldOpen) != 0) {
    req.policy = r.str();
    req.machines = static_cast<int>(r.u32());
    req.speed = r.f64();
    req.key = r.u64();
  }
  if ((fields & kFieldJob) != 0) req.job = get_job(r);
  if ((fields & kFieldTo) != 0) req.to = r.f64();
  if ((fields & kFieldPath) != 0) req.path = r.str();
  if ((fields & kFieldShard) != 0) req.shard = static_cast<int>(r.u32());
}

bool ProtocolHandler::handle_frame(std::string_view payload, WriteFn write) {
  Request req;
  std::optional<std::string> error;
  try {
    decode_frame(payload, req);
  } catch (const std::exception& e) {
    error = e.what();
  }
  FrameReply reply(req.rid, req.op, std::move(write));
  if (error) {
    reply.error(*error);
    return true;
  }
  return dispatch(cluster_, std::move(req), reply);
}

}  // namespace parsched::serve
