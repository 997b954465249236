#include "serve/dispatch.hpp"

#include <array>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "serve/snapshot.hpp"
#include "util/fsio.hpp"

namespace parsched::serve {

namespace {

constexpr std::array<Verb, 15> kVerbs{{
    {BinOp::kPing, "ping", 0},
    {BinOp::kOpen, "open", kFieldOpen},
    {BinOp::kAdmit, "admit", kFieldSession | kFieldJob},
    {BinOp::kAdvance, "advance", kFieldSession | kFieldTo},
    {BinOp::kQuery, "query", kFieldSession},
    {BinOp::kSnapshot, "snapshot", kFieldSession | kFieldPath},
    {BinOp::kRestore, "restore", kFieldPath},
    {BinOp::kFinish, "finish", kFieldSession},
    {BinOp::kClose, "close", kFieldSession},
    {BinOp::kStats, "stats", 0},
    {BinOp::kDump, "dump", kFieldPath},
    {BinOp::kShutdown, "shutdown", 0},
    {BinOp::kMigrate, "migrate", kFieldSession | kFieldShard},
    {BinOp::kEvacuate, "evacuate", kFieldShard},
    {BinOp::kCluster, "cluster", 0},
}};

static_assert([] {
  for (std::size_t i = 0; i < kVerbs.size(); ++i) {
    if (static_cast<std::size_t>(kVerbs[i].op) != i) return false;
  }
  return true;
}(), "kVerbs rows must follow BinOp codes");

void require_path(const Request& req) {
  if (req.path.empty()) {
    throw std::invalid_argument(std::string(verb(req.op).name) +
                                " requires path");
  }
}

/// True when `verdict` accepted the request; otherwise answers the reject.
bool accepted(Reply& reply, Submit verdict) {
  if (verdict != Submit::kAccepted) reply.reject(verdict);
  return verdict == Submit::kAccepted;
}

/// Queue `op(session, reply)` on the session's strand as one task. A
/// failure there answers the request instead of vanishing in the strand.
template <class Op>
void on_strand(Cluster& cluster, SessionId sid, Reply& reply, Op op) {
  auto task = [r = reply.clone(), op = std::move(op)](Session& s) {
    try {
      op(s, *r);
    } catch (const std::exception& e) {
      r->error(e.what());
    }
  };
  (void)accepted(reply, cluster.submit(sid, std::move(task)));
}

}  // namespace

const Verb& verb(BinOp op) {
  return kVerbs.at(static_cast<std::size_t>(op));
}

const Verb* find_verb(std::string_view name) {
  for (const Verb& v : kVerbs) {
    if (name == v.name) return &v;
  }
  return nullptr;
}

bool dispatch(Cluster& cluster, Request req, Reply& reply) {
  try {
    switch (req.op) {
      case BinOp::kPing:
        reply.ok();
        break;
      case BinOp::kStats:
        // stats and dump answer here, never on a strand: the telemetry
        // plane must respond even when every session is wedged.
        if (cluster.config().metrics == nullptr) {
          throw std::invalid_argument(
              "stats: server has no metrics registry");
        }
        reply.stats(cluster.merged_snapshot());
        break;
      case BinOp::kDump: {
        const obs::FlightRecorder* rec = cluster.config().recorder;
        if (rec == nullptr) {
          throw std::invalid_argument(
              "dump: server has no flight recorder");
        }
        std::ostringstream dump;
        rec->dump_jsonl(dump, "dump_verb");
        if (req.path.empty()) {
          reply.dump(dump.str());
          break;
        }
        auto out = open_output(req.path, "flight-recorder dump");
        out << dump.str();
        finish_output(out, req.path);
        reply.ok();
        break;
      }
      case BinOp::kShutdown:
        cluster.drain();  // flushes every queued response first
        reply.ok();
        return false;
      case BinOp::kCluster:
        reply.cluster(cluster);
        break;
      case BinOp::kEvacuate:
        reply.evacuated(req.shard, cluster.evacuate(req.shard));
        break;
      case BinOp::kOpen: {
        Session::Config scfg;
        scfg.policy = std::move(req.policy);
        scfg.machines = req.machines;
        scfg.speed = req.speed;
        SessionId sid = 0;
        int shard = -1;
        if (accepted(reply, cluster.open(scfg, sid, req.key, &shard))) {
          reply.session(sid, shard);
        }
        break;
      }
      case BinOp::kRestore: {
        require_path(req);
        SessionId sid = 0;
        int shard = -1;
        if (accepted(reply, cluster.adopt(read_snapshot_file(req.path), sid,
                                          0, &shard))) {
          reply.session(sid, shard);
        }
        break;
      }
      case BinOp::kClose:
        if (accepted(reply, cluster.close(req.session))) reply.ok();
        break;
      case BinOp::kMigrate:
        if (accepted(reply, cluster.migrate(req.session, req.shard))) {
          reply.ok();
        }
        break;
      case BinOp::kAdmit:
        on_strand(cluster, req.session, reply,
                  [job = std::move(req.job)](Session& s, Reply& r) {
                    s.admit(job);
                    r.ok();
                  });
        break;
      case BinOp::kAdvance:
        on_strand(cluster, req.session, reply,
                  [to = req.to](Session& s, Reply& r) {
                    s.advance(to);
                    r.ok();
                  });
        break;
      case BinOp::kQuery:
        on_strand(cluster, req.session, reply,
                  [](Session& s, Reply& r) { r.query(s); });
        break;
      case BinOp::kSnapshot:
        require_path(req);
        on_strand(cluster, req.session, reply,
                  [path = std::move(req.path)](Session& s, Reply& r) {
                    write_snapshot_file(path, s.snapshot());
                    r.ok();
                  });
        break;
      case BinOp::kFinish:
        on_strand(cluster, req.session, reply, [](Session& s, Reply& r) {
          s.finish();
          r.finish(s.result());
        });
        break;
    }
  } catch (const std::exception& e) {
    reply.error(e.what());
  }
  return true;
}

}  // namespace parsched::serve
