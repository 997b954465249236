#include "serve/snapshot.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "serve/wire.hpp"
#include "util/fsio.hpp"

namespace parsched::serve {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'N', 'P'};

// The byte-level codec and the curve/phase field codecs live in
// serve/wire.hpp, shared with the PBIN binary protocol (serve/binproto)
// so both formats carry doubles as raw IEEE-754 bits.
using Writer = WireWriter;
using Reader = WireReader;

// ---- field codecs ---------------------------------------------------------

void put_tag(Writer& w, const JobTag& t) {
  w.i64(t.phase);
  w.u8(static_cast<std::uint8_t>(t.cls));
  w.i64(t.index);
}

JobTag get_tag(Reader& r) {
  JobTag t;
  t.phase = static_cast<int>(r.i64());
  const std::uint8_t cls = r.u8();
  if (cls > static_cast<std::uint8_t>(JobTag::Class::kStream)) {
    r.fail("unknown job-tag class");
  }
  t.cls = static_cast<JobTag::Class>(cls);
  t.index = r.i64();
  return t;
}

void put_job(Writer& w, const Job& j) {
  w.u32(j.id);
  w.f64(j.release);
  w.f64(j.size);
  w.f64(j.weight);
  put_curve(w, j.curve);
  put_tag(w, j.tag);
  put_phases(w, j.phases);
}

Job get_job(Reader& r) {
  Job j;
  j.id = r.u32();
  j.release = r.f64();
  j.size = r.f64();
  j.weight = r.f64();
  j.curve = get_curve(r);
  j.tag = get_tag(r);
  j.phases = get_phases(r);
  return j;
}

void put_alive(Writer& w, const AliveJob& a) {
  w.u32(a.id);
  w.f64(a.release);
  w.f64(a.size);
  w.f64(a.remaining);
  w.f64(a.weight);
  put_curve(w, a.curve);
  w.i64(a.arrival_seq);
  put_tag(w, a.tag);
  put_phases(w, a.phases);
  w.u64(a.phase);
  w.f64(a.phase_remaining);
}

AliveJob get_alive(Reader& r) {
  AliveJob a;
  a.id = r.u32();
  a.release = r.f64();
  a.size = r.f64();
  a.remaining = r.f64();
  a.weight = r.f64();
  a.curve = get_curve(r);
  a.arrival_seq = r.i64();
  a.tag = get_tag(r);
  a.phases = get_phases(r);
  a.phase = static_cast<std::size_t>(r.u64());
  a.phase_remaining = r.f64();
  return a;
}

void put_result(Writer& w, const SimResult& res) {
  w.size(res.records.size());
  for (const JobRecord& rec : res.records) {
    put_job(w, rec.job);
    w.f64(rec.completion);
  }
  w.f64(res.total_flow);
  w.f64(res.weighted_flow);
  w.f64(res.fractional_flow);
  w.f64(res.makespan);
  w.u64(res.decisions);
  w.u64(res.events);
}

SimResult get_result(Reader& r) {
  SimResult res;
  const std::size_t n = r.size();
  res.records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    JobRecord rec;
    rec.job = get_job(r);
    rec.completion = r.f64();
    res.records.push_back(std::move(rec));
  }
  res.total_flow = r.f64();
  res.weighted_flow = r.f64();
  res.fractional_flow = r.f64();
  res.makespan = r.f64();
  res.decisions = r.u64();
  res.events = r.u64();
  return res;
}

}  // namespace

std::string encode_snapshot(const SessionSnapshot& snap) {
  Writer w;
  w.str(std::string_view(kMagic, sizeof(kMagic)));
  // (the magic is length-prefixed too — uniformity beats 4 saved bytes)
  Writer body;
  body.u32(kSnapshotVersion);
  body.str(snap.policy);
  body.str(snap.scheduler_state);

  const EngineState& e = snap.engine;
  body.i64(e.machines);
  body.f64(e.config.speed);
  body.f64(e.config.completion_tol);
  body.f64(e.config.time_tol);
  body.u64(e.config.max_decisions);
  body.u8(e.config.validate_allocations ? 1 : 0);
  body.f64(e.now);
  body.f64(e.frontier);
  body.i64(e.arrival_seq);
  body.size(e.alive.size());
  for (const AliveJob& a : e.alive) put_alive(body, a);
  body.size(e.completed.size());
  for (const JobId id : e.completed) body.u32(id);
  body.size(e.pending.size());
  for (const Job& j : e.pending) put_job(body, j);
  body.u8(e.has_cached_alloc ? 1 : 0);
  body.size(e.cached_alloc.size());
  for (const double s : e.cached_alloc.shares()) body.f64(s);
  body.f64(e.cached_alloc.reconsider_at);
  put_result(body, e.result);

  std::string out = w.take();
  out += body.take();
  return out;
}

SessionSnapshot decode_snapshot(std::string_view blob) {
  Reader r(blob, "snapshot");
  const std::string magic = r.str();
  if (magic != std::string_view(kMagic, sizeof(kMagic))) {
    r.fail("bad magic (not a parsched snapshot)");
  }
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    std::ostringstream os;
    os << "unsupported snapshot version " << version << " (expected "
       << kSnapshotVersion << ")";
    throw std::invalid_argument(os.str());
  }

  SessionSnapshot snap;
  snap.policy = r.str();
  snap.scheduler_state = r.str();

  EngineState& e = snap.engine;
  e.machines = static_cast<int>(r.i64());
  e.config.speed = r.f64();
  e.config.completion_tol = r.f64();
  e.config.time_tol = r.f64();
  e.config.max_decisions = r.u64();
  e.config.validate_allocations = r.u8() != 0;
  e.now = r.f64();
  e.frontier = r.f64();
  e.arrival_seq = r.i64();
  const std::size_t n_alive = r.size();
  e.alive.reserve(n_alive);
  for (std::size_t i = 0; i < n_alive; ++i) e.alive.push_back(get_alive(r));
  const std::size_t n_done = r.size();
  e.completed.reserve(n_done);
  for (std::size_t i = 0; i < n_done; ++i) e.completed.push_back(r.u32());
  const std::size_t n_pending = r.size();
  e.pending.reserve(n_pending);
  for (std::size_t i = 0; i < n_pending; ++i) {
    e.pending.push_back(get_job(r));
  }
  e.has_cached_alloc = r.u8() != 0;
  const std::size_t n_shares = r.size();
  std::vector<double> shares;
  shares.reserve(n_shares);
  for (std::size_t i = 0; i < n_shares; ++i) shares.push_back(r.f64());
  e.cached_alloc.assign(std::move(shares));
  e.cached_alloc.reconsider_at = r.f64();
  e.result = get_result(r);

  if (!r.done()) r.fail("trailing bytes after snapshot payload");
  return snap;
}

void write_snapshot_file(const std::string& path, std::string_view blob) {
  auto out = open_output(path, "session snapshot");
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  finish_output(out, path);
}

SessionSnapshot read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open session snapshot: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error("read failed for session snapshot: " + path);
  }
  return decode_snapshot(buf.str());
}

}  // namespace parsched::serve
