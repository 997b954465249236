#include "serve/protocol.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "obs/expose.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "speedup/curve.hpp"

namespace parsched::serve {

namespace {

using obs::JsonValue;
using obs::JsonWriter;

/// The largest integer an integral member of type T carries: T's
/// maximum, cut to 2^53, below which a double (every JSON number) holds
/// each integer. Signed members are narrower than 2^53, so their lowest
/// value needs no cut.
template <class T>
constexpr T whole_max() {
  static_assert(std::is_unsigned_v<T> ||
                std::numeric_limits<T>::digits <= 53);
  if constexpr (std::numeric_limits<T>::digits > 53) return T{1} << 53;
  return std::numeric_limits<T>::max();
}

/// `v`, a number, as a T when it was written as an integer literal
/// (JsonValue::integer) in [T's lowest, whole_max<T>()]. Only the literal
/// tells: a fraction or exponent can round to a whole double
/// (1.0000000000000001 parses to 1, 9007199254740993 to 2^53).
template <class T>
bool whole(const JsonValue& v, T& out) {
  const double x = v.number;
  if (!(v.integer &&
        x >= static_cast<double>(std::numeric_limits<T>::lowest()) &&
        x <= static_cast<double>(whole_max<T>()))) {
    return false;
  }
  out = static_cast<T>(x);
  return true;
}

/// The error of an integral member that whole() does not take, thrown
/// by the decoder and by encode_line alike.
template <class T>
std::invalid_argument out_of_range(const char* field) {
  return std::invalid_argument(
      std::string(field) + " must be an integer in [" +
      std::to_string(std::numeric_limits<T>::lowest()) + ", " +
      std::to_string(whole_max<T>()) + "]");
}

/// The one reader of integral request fields.
template <class T>
T integral(const JsonValue& v, const char* field) {
  T out{};
  if (!whole(v, out)) throw out_of_range<T>(field);
  return out;
}

/// An optional integral member: absent or not a number falls back.
template <class T>
T integral_or(const JsonValue& obj, const char* field, T fallback) {
  const JsonValue* v = obj.find(field);
  return (v != nullptr && v->is_number()) ? integral<T>(*v, field) : fallback;
}

/// A required numeric member; throws `missing` when absent.
const JsonValue& number_field(const JsonValue& obj, const char* field,
                              const std::string& missing) {
  const JsonValue* v = obj.find(field);
  if (v == nullptr || !v->is_number()) throw std::invalid_argument(missing);
  return *v;
}

SpeedupCurve parse_curve(const std::string& spec) {
  if (spec.empty() || spec == "par") return SpeedupCurve::fully_parallel();
  if (spec == "seq") return SpeedupCurve::sequential();
  if (spec.rfind("pow:", 0) == 0) {
    std::size_t used = 0;
    double alpha = 0.0;
    try {
      alpha = std::stod(spec.substr(4), &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != spec.size() - 4 || !(alpha >= 0.0) ||
        !(alpha <= 1.0)) {
      throw std::invalid_argument("bad power-law curve spec: " + spec);
    }
    return SpeedupCurve::power_law(alpha);
  }
  throw std::invalid_argument("unknown curve spec: " + spec +
                              " (expected par|seq|pow:<alpha>)");
}

Job parse_job(const JsonValue& jv) {
  if (!jv.is_object()) throw std::invalid_argument("job must be an object");
  Job job;
  job.id = integral<JobId>(
      number_field(jv, "id", "job.id (number) is required"), "job.id");
  job.release = jv.number_or("release", 0.0);
  job.size = jv.number_or("size", 1.0);
  job.weight = jv.number_or("weight", 1.0);
  job.curve = parse_curve(jv.string_or("curve", "par"));
  if (const JsonValue* phases = jv.find("phases"); phases != nullptr) {
    if (!phases->is_array()) {
      throw std::invalid_argument("job.phases must be an array");
    }
    for (const JsonValue& pv : phases->array) {
      if (!pv.is_object()) {
        throw std::invalid_argument("job phase must be an object");
      }
      JobPhase phase;
      phase.work = pv.number_or("work", 0.0);
      phase.curve = parse_curve(pv.string_or("curve", "par"));
      job.phases.push_back(std::move(phase));
    }
  }
  return job;
}

Request decode(const JsonValue& json) {
  if (!json.is_object()) {
    throw std::invalid_argument("request must be a JSON object");
  }
  const std::string name = json.string_or("op", "");
  if (name.empty()) throw std::invalid_argument("missing op");
  const Verb* v = find_verb(name);
  if (v == nullptr) throw std::invalid_argument("unknown op: " + name);
  Request req;
  req.op = v->op;
  // Any number is echoed back verbatim; a whole nonnegative one is also
  // the rid, and an error unless it is an integer literal of at most
  // 2^53 (past that, or written with a fraction or exponent, the double
  // may have been rounded to it).
  if (const JsonValue* id = json.find("id");
      id != nullptr && id->is_number() && id->number >= 0.0 &&
      id->number == std::trunc(id->number)) {  // lint: float-eq-ok
    req.rid = integral<std::uint64_t>(*id, "id");
  }
  if ((v->fields & kFieldSession) != 0) {
    req.session = integral<SessionId>(
        number_field(json, "session", "missing session"), "session");
  }
  if ((v->fields & kFieldOpen) != 0) {
    req.policy = json.string_or("policy", "equi");
    req.machines = integral_or<int>(json, "machines", 1);
    req.speed = json.number_or("speed", 1.0);
    req.key = integral_or<std::uint64_t>(json, "key", 0);
  }
  if ((v->fields & kFieldJob) != 0) {
    const JsonValue* job = json.find("job");
    if (job == nullptr) throw std::invalid_argument(name + " requires job");
    req.job = parse_job(*job);
  }
  if ((v->fields & kFieldTo) != 0) {
    req.to = number_field(json, "to", name + " requires to (number)").number;
  }
  if ((v->fields & kFieldPath) != 0) req.path = json.string_or("path", "");
  if ((v->fields & kFieldShard) != 0) {
    req.shard = integral<int>(
        number_field(json, "shard", name + " requires shard (number)"),
        "shard");
  }
  return req;
}

/// The spec parse_curve() reads back as `c`; NDJSON has none for a
/// piecewise-linear curve.
std::string curve_spec(const SpeedupCurve& c) {
  switch (c.kind()) {
    case SpeedupCurve::Kind::kFullyParallel: return "par";
    case SpeedupCurve::Kind::kSequential: return "seq";
    case SpeedupCurve::Kind::kPowerLaw:
      return "pow:" + obs::json_number(c.alpha());
    case SpeedupCurve::Kind::kPiecewiseLinear: break;
  }
  throw std::invalid_argument(
      "NDJSON cannot spell a piecewise-linear curve (use PBIN)");
}

void write_job(JsonWriter& w, const Job& job) {
  w.begin_object();
  w.kv("id", static_cast<std::uint64_t>(job.id));
  w.kv("release", job.release);
  w.kv("size", job.size);
  w.kv("weight", job.weight);
  w.kv("curve", curve_spec(job.curve));
  if (!job.phases.empty()) {
    w.key("phases");
    w.begin_array();
    for (const JobPhase& phase : job.phases) {
      w.begin_object();
      w.kv("work", phase.work);
      w.kv("curve", curve_spec(phase.curve));
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

/// Shared shape of the query/finish payloads.
void write_result_fields(JsonWriter& w, const SimResult& r) {
  w.kv("jobs", static_cast<std::uint64_t>(r.records.size()));
  w.kv("total_flow", r.total_flow);
  w.kv("weighted_flow", r.weighted_flow);
  w.kv("fractional_flow", r.fractional_flow);
  w.kv("makespan", r.makespan);
  w.kv("decisions", r.decisions);
  w.kv("events", r.events);
}

/// The NDJSON encode side: one JSON object per answer, echoing the
/// request's "id" verbatim (omitted when the request had none).
class LineReply final : public Reply {
 public:
  LineReply(const JsonValue* id, BinOp op, ProtocolHandler::WriteFn write)
      : has_id_(id != nullptr && id->is_number()),
        id_integer_(has_id_ && id->integer),
        id_(has_id_ ? id->number : 0.0),
        op_(op),
        write_(std::move(write)) {}

  void ok() override { emit(true, [](JsonWriter&) {}); }
  void error(const std::string& message) override { fail(message, nullptr); }
  void reject(Submit verdict) override {
    fail(std::string(verb(op_).name) + " rejected", to_string(verdict));
  }
  void session(SessionId sid, int shard) override {
    emit(true, [&](JsonWriter& w) {
      w.kv("session", static_cast<std::uint64_t>(sid));
      w.kv("shard", static_cast<std::uint64_t>(shard < 0 ? 0 : shard));
    });
  }
  void query(const Session& s) override {
    emit(true, [&](JsonWriter& w) {
      w.kv("policy", s.policy_name());
      w.kv("time", s.time());
      w.kv("frontier", s.frontier());
      w.kv("alive", static_cast<std::uint64_t>(s.alive_count()));
      w.kv("pending", static_cast<std::uint64_t>(s.pending_count()));
      w.kv("finished", s.finished());
      write_result_fields(w, s.partial());
    });
  }
  void finish(const SimResult& r) override {
    emit(true, [&](JsonWriter& w) {
      write_result_fields(w, r);
      w.key("records");
      w.begin_array();
      for (const JobRecord& rec : r.records) {
        w.begin_object();
        w.kv("job", static_cast<std::uint64_t>(rec.job.id));
        w.kv("release", rec.job.release);
        w.kv("completion", rec.completion);
        w.end_object();
      }
      w.end_array();
    });
  }
  void stats(const obs::MetricsSnapshot& snap) override {
    emit(true, [&](JsonWriter& w) {
      w.kv("format", "prometheus");
      w.kv("metrics", static_cast<std::uint64_t>(snap.samples.size()));
      w.kv("exposition", obs::exposition_text(snap));
    });
  }
  void dump(const std::string& jsonl) override {
    emit(true, [&](JsonWriter& w) {
      w.kv("kind", "parsched-flight-record");
      w.kv("dump", jsonl);
    });
  }
  void evacuated(int shard, int migrated) override {
    emit(true, [&](JsonWriter& w) {
      w.kv("shard", static_cast<std::uint64_t>(shard));
      w.kv("migrated", static_cast<std::uint64_t>(migrated));
    });
  }
  void cluster(const Cluster& c) override {
    emit(true, [&](JsonWriter& w) {
      const int n = c.shards();
      w.kv("shards", static_cast<std::uint64_t>(n));
      w.kv("sessions", static_cast<std::uint64_t>(c.session_count()));
      w.key("shard_sessions");
      w.begin_array();
      for (int i = 0; i < n; ++i) {
        w.value(static_cast<std::uint64_t>(c.session_count(i)));
      }
      w.end_array();
      w.key("in_ring");
      w.begin_array();
      for (int i = 0; i < n; ++i) w.value(c.shard_in_ring(i));
      w.end_array();
    });
  }
  [[nodiscard]] std::shared_ptr<Reply> clone() const override {
    return std::make_shared<LineReply>(*this);
  }

 private:
  template <class Fields>
  void emit(bool ok, Fields fields) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    if (has_id_) {
      // An id written as an integer literal echoes as one: the shortest
      // double form of 100000 is 1e+05, which a client matching replies
      // by id would not recognise. Such a literal is at most 2^53, so the
      // double holds it exactly.
      if (id_integer_) {
        w.kv("id", static_cast<std::int64_t>(id_));
      } else {
        w.kv("id", id_);
      }
    }
    w.kv("ok", ok);
    fields(w);
    w.end_object();
    write_(os.str());
  }
  void fail(const std::string& message, const char* reject) {
    emit(false, [&](JsonWriter& w) {
      w.kv("error", message);
      if (reject != nullptr) w.kv("reject", reject);
    });
  }

  bool has_id_;
  bool id_integer_;  ///< the id was an integer literal (JsonValue::integer)
  double id_;
  BinOp op_;
  ProtocolHandler::WriteFn write_;
};

JsonValue parse_line(std::string_view line) {
  JsonValue json;
  std::string error;
  if (!obs::json_parse(line, json, &error)) {
    throw std::invalid_argument("bad JSON: " + error);
  }
  return json;
}

}  // namespace

Request decode_line(std::string_view line) {
  return decode(parse_line(line));
}

std::string encode_line(const Request& req) {
  const Verb& v = verb(req.op);
  // What decode_line would reject, or read back rounded, is not sent.
  const auto check = [](std::uint64_t x, const char* field) {
    if (x > whole_max<std::uint64_t>()) {
      throw out_of_range<std::uint64_t>(field);
    }
  };
  check(req.rid, "id");
  if ((v.fields & kFieldSession) != 0) check(req.session, "session");
  if ((v.fields & kFieldOpen) != 0) check(req.key, "key");
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("op", v.name);
  w.kv("id", req.rid);
  if ((v.fields & kFieldSession) != 0) w.kv("session", req.session);
  if ((v.fields & kFieldOpen) != 0) {
    w.kv("policy", req.policy);
    w.kv("machines", req.machines);
    w.kv("speed", req.speed);
    w.kv("key", req.key);
  }
  if ((v.fields & kFieldJob) != 0) {
    w.key("job");
    write_job(w, req.job);
  }
  if ((v.fields & kFieldTo) != 0) w.kv("to", req.to);
  if ((v.fields & kFieldPath) != 0) w.kv("path", req.path);
  if ((v.fields & kFieldShard) != 0) w.kv("shard", req.shard);
  w.end_object();
  return os.str();
}

BinResponse decode_reply_line(std::string_view line) {
  const JsonValue json = parse_line(line);
  if (!json.is_object()) {
    throw std::invalid_argument("reply must be a JSON object");
  }
  BinResponse out;
  if (const JsonValue* id = json.find("id"); id != nullptr && id->is_number()) {
    (void)whole(*id, out.rid);
  }
  if (!json.bool_or("ok", false)) {
    const std::string reject = json.string_or("reject", "");
    if (reject.empty()) {
      out.error = json.string_or("error", "");
      return out;
    }
    out.status = BinStatus::kReject;
    for (const Submit s : {Submit::kQueueFull, Submit::kUnknownSession,
                           Submit::kDraining, Submit::kSessionCap}) {
      if (reject == to_string(s)) out.verdict = static_cast<std::uint8_t>(s);
    }
    if (out.verdict == 0) {
      throw std::invalid_argument("unknown reject verdict: " + reject);
    }
    return out;
  }
  out.status = BinStatus::kOk;
  out.session = integral_or<std::uint64_t>(json, "session", 0);
  out.shard = integral_or<int>(json, "shard", -1);
  out.policy = json.string_or("policy", "");
  out.time = json.number_or("time", 0.0);
  out.frontier = json.number_or("frontier", 0.0);
  out.alive = integral_or<std::uint64_t>(json, "alive", 0);
  out.pending = integral_or<std::uint64_t>(json, "pending", 0);
  out.finished = json.bool_or("finished", false);
  out.jobs = integral_or<std::uint64_t>(json, "jobs", 0);
  out.total_flow = json.number_or("total_flow", 0.0);
  out.weighted_flow = json.number_or("weighted_flow", 0.0);
  out.fractional_flow = json.number_or("fractional_flow", 0.0);
  out.makespan = json.number_or("makespan", 0.0);
  out.decisions = integral_or<std::uint64_t>(json, "decisions", 0);
  out.events = integral_or<std::uint64_t>(json, "events", 0);
  if (const JsonValue* records = json.find("records"); records != nullptr) {
    for (const JsonValue& r : records->array) {
      out.records.push_back({integral_or<std::uint32_t>(r, "job", 0),
                             r.number_or("release", 0.0),
                             r.number_or("completion", 0.0)});
    }
  }
  out.text = json.string_or("exposition", json.string_or("dump", ""));
  out.migrated = integral_or<int>(json, "migrated", 0);
  out.shards = integral_or<int>(json, "shards", 0);
  out.sessions = integral_or<std::uint64_t>(json, "sessions", 0);
  if (const JsonValue* counts = json.find("shard_sessions");
      counts != nullptr) {
    for (const JsonValue& n : counts->array) {
      out.shard_sessions.push_back(
          integral<std::uint32_t>(n, "shard_sessions"));
    }
  }
  if (const JsonValue* ring = json.find("in_ring"); ring != nullptr) {
    for (const JsonValue& b : ring->array) out.in_ring.push_back(b.boolean);
  }
  return out;
}

bool ProtocolHandler::handle_line(std::string_view line, WriteFn write) {
  JsonValue json;  // stays null, echoing no id, when the line is not JSON
  Request req;
  std::optional<std::string> error;
  try {
    json = parse_line(line);
    req = decode(json);
  } catch (const std::exception& e) {
    error = e.what();
  }
  LineReply reply(json.find("id"), req.op, std::move(write));
  if (error) {
    reply.error(*error);
    return true;
  }
  return dispatch(cluster_, std::move(req), reply);
}

}  // namespace parsched::serve
