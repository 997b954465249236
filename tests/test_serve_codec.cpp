// serve/ — the request model's two codecs, and the hostile input they
// must stop before it reaches the cluster or the engine.
//
//  * Parity: every verb decodes from its NDJSON line and from its PBIN
//    frame to the same serve::Request, so the one dispatcher cannot tell
//    the wires apart. Each encoder is its decoder's mirror, the PBIN
//    request bytes are pinned, and one scripted conversation gets the
//    same replies over both wires.
//  * Validation: NDJSON integral fields must be integer literals in range,
//    and every f64 of a job must be finite (and in range) before the job
//    is queued. A rejected admit leaves the session untouched: its
//    finish still equals a batch simulate() of the good jobs.
//  * Robustness: every valid request, truncated at every byte offset or
//    with a seeded byte flip, is answered exactly once, and the handler
//    then drains; so is every admit frame with an f64 field set to NaN
//    or ±inf, followed by finish. Depth scales with PARSCHED_FUZZ_ITERS
//    (default 10 seeds; the nightly CI leg raises it). ctest runs this
//    binary with a short TIMEOUT, so a wedged shard fails in seconds.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sched/registry.hpp"
#include "serve/binproto.hpp"
#include "serve/protocol.hpp"
#include "simcore/engine.hpp"
#include "simcore/instance.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace parsched {
namespace {

namespace fs = std::filesystem;
using serve::BinOp;
using serve::BinResponse;
using serve::BinStatus;
using serve::Request;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

serve::Cluster::Config cluster_config(
    obs::MetricsRegistry* metrics = nullptr,
    obs::FlightRecorder* recorder = nullptr) {
  serve::Cluster::Config cfg;
  cfg.shards = 2;
  cfg.threads_per_shard = 1;
  cfg.max_sessions = 8;
  cfg.max_queue = 64;
  cfg.metrics = metrics;
  cfg.recorder = recorder;
  return cfg;
}

/// Strict request/response over a live handler: each call blocks until
/// its answer arrives.
class SyncClient {
 public:
  explicit SyncClient(serve::Cluster::Config cfg = cluster_config())
      : handler_(cfg) {}

  /// The reply line exactly as the handler wrote it.
  std::string raw(const std::string& text) {
    handler_.handle_line(text, sink());
    return wait();
  }

  obs::JsonValue line(const std::string& text) {
    const std::string resp = raw(text);
    obs::JsonValue v;
    EXPECT_TRUE(obs::json_parse(resp, v)) << resp;
    return v;
  }

  BinResponse frame(const std::string& payload) {
    handler_.handle_frame(payload, sink());
    return serve::parse_bin_response(wait());
  }

 private:
  serve::ProtocolHandler::WriteFn sink() {
    return [this](const std::string& resp) {
      std::lock_guard<std::mutex> lock(mu_);
      answers_.push_back(resp);
      cv_.notify_all();
    };
  }

  std::string wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !answers_.empty(); });
    std::string resp = std::move(answers_.front());
    answers_.pop_front();
    return resp;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> answers_;
  serve::ProtocolHandler handler_;  // last: drained before the sink dies
};

/// A live handler (metrics and flight recorder attached, so stats and
/// dump do real work) that counts the answers of every request.
class CountingHandler {
 public:
  CountingHandler()
      : recorder_(256), handler_(cluster_config(&metrics_, &recorder_)) {}

  void frame(std::string_view payload, std::string label) {
    handler_.handle_frame(payload, slot(std::move(label)));
  }
  void line(std::string_view text, std::string label) {
    handler_.handle_line(text, slot(std::move(label)));
  }

  /// Drain (every queued answer is written), then expect one answer per
  /// request.
  void expect_each_answered_once() {
    handler_.drain();
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      EXPECT_EQ(counts_[i].load(), 1) << labels_[i];
    }
  }

 private:
  serve::ProtocolHandler::WriteFn slot(std::string label) {
    std::atomic<int>& n = counts_.emplace_back(0);  // deque: n stays put
    labels_.push_back(std::move(label));
    return [&n](const std::string&) { n.fetch_add(1); };
  }

  obs::MetricsRegistry metrics_;
  obs::FlightRecorder recorder_;
  std::deque<std::atomic<int>> counts_;
  std::vector<std::string> labels_;
  serve::ProtocolHandler handler_;  // last: drained before the counters
};

/// The fuzz cases run in a fresh temporary directory, restored and removed
/// afterwards. The corpus paths are relative and two levels deep
/// ("a/b/s.psnp"), so a single flipped byte can only name a file in
/// here or a directory that does not exist.
class TempCwd {
 public:
  TempCwd()
      : dir_(fs::temp_directory_path() /
             ("parsched_codec_fuzz_" + std::to_string(::getpid()))),
        prev_(fs::current_path()) {
    fs::create_directories(dir_ / "a" / "b");
    fs::current_path(dir_);
  }
  ~TempCwd() {
    std::error_code ec;
    fs::current_path(prev_, ec);
    fs::remove_all(dir_, ec);
  }
  TempCwd(const TempCwd&) = delete;
  TempCwd& operator=(const TempCwd&) = delete;

 private:
  fs::path dir_;
  fs::path prev_;
};

// ------------------------------------------------------------- jobs

/// A single-phase power-law job.
Job single_job() {
  Job j;
  j.id = 0;
  j.release = 0.0;
  j.size = 2.0;
  j.weight = 1.5;
  j.curve = SpeedupCurve::power_law(0.5);
  return j;
}

/// A two-phase job whose second phase has a piecewise-linear curve, so
/// its admit carries phase works and curve knots too.
Job phased_job() {
  Job j = make_phased_job(
      1, 0.25,
      {{1.0, SpeedupCurve::power_law(0.25)},
       {0.5, SpeedupCurve::piecewise_linear({{2.0, 1.5}, {8.0, 3.0}})}});
  j.weight = 2.0;
  return j;
}

SimResult batch_isrpt(const std::vector<Job>& jobs) {
  auto sched = make_scheduler("isrpt");
  return simulate(Instance(2, jobs), *sched);
}

void expect_finish_equals(const BinResponse& fin, const SimResult& batch) {
  ASSERT_EQ(fin.status, BinStatus::kOk) << fin.error;
  EXPECT_EQ(fin.total_flow, batch.total_flow);
  EXPECT_EQ(fin.weighted_flow, batch.weighted_flow);
  EXPECT_EQ(fin.fractional_flow, batch.fractional_flow);
  EXPECT_EQ(fin.makespan, batch.makespan);
  ASSERT_EQ(fin.records.size(), batch.records.size());
  for (std::size_t i = 0; i < fin.records.size(); ++i) {
    EXPECT_EQ(fin.records[i].job, batch.records[i].job.id);
    EXPECT_EQ(fin.records[i].completion, batch.records[i].completion);
  }
}

void expect_finish_equals(const obs::JsonValue& fin, const SimResult& batch) {
  ASSERT_TRUE(fin.bool_or("ok", false)) << fin.string_or("error", "");
  EXPECT_EQ(fin.number_or("total_flow", -1.0), batch.total_flow);
  EXPECT_EQ(fin.number_or("weighted_flow", -1.0), batch.weighted_flow);
  EXPECT_EQ(fin.number_or("fractional_flow", -1.0), batch.fractional_flow);
  EXPECT_EQ(fin.number_or("makespan", -1.0), batch.makespan);
  const obs::JsonValue* records = fin.find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->array.size(), batch.records.size());
  for (std::size_t i = 0; i < batch.records.size(); ++i) {
    EXPECT_EQ(records->array[i].number_or("completion", -1.0),
              batch.records[i].completion);
  }
}

/// Every f64 field of a bin_admit frame, by byte offset and name, walked
/// along the PBIN job layout: u8 op, u64 rid, u64 session, u32 job id,
/// f64 release, size, weight, the curve, u32 phase count, then f64 work
/// and a curve per phase. A curve is u8 kind and f64 alpha, plus u32 n
/// and n (f64 x, f64 y) knots when piecewise-linear.
std::vector<std::pair<std::size_t, std::string>> admit_f64_fields(
    const std::string& frame) {
  std::vector<std::pair<std::size_t, std::string>> out;
  std::size_t pos = 1 + 8 + 8 + 4;
  auto u32 = [&] {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(
               frame.at(pos + static_cast<std::size_t>(i))))
           << (8 * i);
    }
    pos += 4;
    return v;
  };
  auto f64 = [&](std::string name) {
    out.emplace_back(pos, std::move(name));
    pos += 8;
  };
  auto curve = [&](const std::string& name) {
    const auto kind = static_cast<SpeedupCurve::Kind>(frame.at(pos++));
    f64(name + ".alpha");
    if (kind != SpeedupCurve::Kind::kPiecewiseLinear) return;
    const std::uint32_t n = u32();
    for (std::uint32_t k = 0; k < n; ++k) {
      f64(name + ".knot" + std::to_string(k) + ".x");
      f64(name + ".knot" + std::to_string(k) + ".y");
    }
  };
  f64("release");
  f64("size");
  f64("weight");
  curve("curve");
  const std::uint32_t phases = u32();
  for (std::uint32_t p = 0; p < phases; ++p) {
    f64("phase" + std::to_string(p) + ".work");
    curve("phase" + std::to_string(p) + ".curve");
  }
  EXPECT_EQ(pos, frame.size()) << "admit layout walk out of step";
  return out;
}

void patch_f64(std::string& frame, std::size_t offset, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (std::size_t i = 0; i < 8; ++i) {
    frame[offset + i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
  }
}

// ------------------------------------------------------------- parity

/// A phased job whose curves NDJSON can spell.
Job phased_pow_job() {
  Job j = make_phased_job(2, 0.125,
                          {{1.0, SpeedupCurve::power_law(0.25)},
                           {0.5, SpeedupCurve::sequential()},
                           {0.75, SpeedupCurve::fully_parallel()}});
  j.weight = 0.5;
  return j;
}

/// A request of verb `op` with every field group the verb carries set to
/// a non-default value, and every other field at its default.
Request filled(BinOp op, const Job& job) {
  const std::uint8_t fields = serve::verb(op).fields;
  Request r{.op = op, .rid = 100 + static_cast<std::uint64_t>(op)};
  if ((fields & serve::kFieldSession) != 0) r.session = 7;
  if ((fields & serve::kFieldOpen) != 0) {
    r.policy = "laps:0.25";
    r.machines = 16;
    r.speed = 1.25;
    r.key = 0xDEADBEEFull;
  }
  if ((fields & serve::kFieldJob) != 0) r.job = job;
  if ((fields & serve::kFieldTo) != 0) r.to = 10.0 / 3.0;
  if ((fields & serve::kFieldPath) != 0) r.path = "a/b/s \"q\".psnp";
  if ((fields & serve::kFieldShard) != 0) r.shard = 3;
  return r;
}

std::vector<BinOp> every_verb() {
  std::vector<BinOp> ops;
  for (int code = 0; code <= static_cast<int>(BinOp::kCluster); ++code) {
    ops.push_back(static_cast<BinOp>(code));
  }
  return ops;
}

Request decoded_frame(const std::string& payload) {
  Request r;
  serve::decode_frame(payload, r);
  return r;
}

// The hand-written lines are the NDJSON grammar pin: each decodes to the
// request written beside it, and that request survives the PBIN codec.
TEST(ServeCodec, EveryVerbDecodesToTheSameRequestFromBothWires) {
  Job job;
  job.id = 3;
  job.release = 0.5;
  job.size = 2.0;
  job.weight = 1.5;
  job.curve = SpeedupCurve::power_law(0.25);
  job.phases = {{1.0, SpeedupCurve::sequential()},
                {1.0, SpeedupCurve::power_law(0.5)}};
  const std::string job_json =
      R"({"id":3,"release":0.5,"size":2,"weight":1.5,"curve":"pow:0.25",)"
      R"("phases":[{"work":1,"curve":"seq"},{"work":1,"curve":"pow:0.5"}]})";

  const std::vector<std::pair<std::string, Request>> table = {
      {R"({"op":"ping","id":1})", {.op = BinOp::kPing, .rid = 1}},
      {R"({"op":"open","id":2,"policy":"isrpt","machines":4,"speed":1.5,)"
       R"("key":9})",
       {.op = BinOp::kOpen,
        .rid = 2,
        .policy = "isrpt",
        .machines = 4,
        .speed = 1.5,
        .key = 9}},
      {R"({"op":"admit","id":3,"session":7,"job":)" + job_json + "}",
       {.op = BinOp::kAdmit, .rid = 3, .session = 7, .job = job}},
      {R"({"op":"advance","id":4,"session":7,"to":10.5})",
       {.op = BinOp::kAdvance, .rid = 4, .session = 7, .to = 10.5}},
      {R"({"op":"query","id":5,"session":7})",
       {.op = BinOp::kQuery, .rid = 5, .session = 7}},
      {R"({"op":"snapshot","id":6,"session":7,"path":"s.psnp"})",
       {.op = BinOp::kSnapshot, .rid = 6, .session = 7, .path = "s.psnp"}},
      {R"({"op":"restore","id":7,"path":"s.psnp"})",
       {.op = BinOp::kRestore, .rid = 7, .path = "s.psnp"}},
      {R"({"op":"finish","id":8,"session":7})",
       {.op = BinOp::kFinish, .rid = 8, .session = 7}},
      {R"({"op":"close","id":9,"session":7})",
       {.op = BinOp::kClose, .rid = 9, .session = 7}},
      {R"({"op":"stats","id":10})", {.op = BinOp::kStats, .rid = 10}},
      {R"({"op":"dump","id":11,"path":"f.jsonl"})",
       {.op = BinOp::kDump, .rid = 11, .path = "f.jsonl"}},
      {R"({"op":"shutdown","id":12})", {.op = BinOp::kShutdown, .rid = 12}},
      {R"({"op":"migrate","id":13,"session":7,"shard":1})",
       {.op = BinOp::kMigrate, .rid = 13, .session = 7, .shard = 1}},
      {R"({"op":"evacuate","id":14,"shard":0})",
       {.op = BinOp::kEvacuate, .rid = 14, .shard = 0}},
      {R"({"op":"cluster","id":15})", {.op = BinOp::kCluster, .rid = 15}},
  };
  std::set<BinOp> seen;
  for (const auto& [line, want] : table) {
    EXPECT_TRUE(serve::decode_line(line) == want) << line;
    EXPECT_TRUE(decoded_frame(serve::encode_frame(want)) == want) << line;
    EXPECT_EQ(want.rid, seen.size() + 1) << line;
    seen.insert(want.op);
  }
  EXPECT_EQ(seen.size(), table.size()) << "a verb is missing or doubled";
  // The one verb table names every code, and names map back to it.
  for (const BinOp op : seen) {
    const serve::Verb* v = serve::find_verb(serve::verb(op).name);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->op, op);
  }
}

TEST(ServeCodec, EveryVerbRoundTripsThroughBothEncoders) {
  for (const BinOp op : every_verb()) {
    for (const Job& job : {single_job(), phased_pow_job()}) {
      const Request r = filled(op, job);
      const std::string label = serve::verb(op).name;
      EXPECT_TRUE(serve::decode_line(serve::encode_line(r)) == r)
          << label << ": " << serve::encode_line(r);
      EXPECT_TRUE(decoded_frame(serve::encode_frame(r)) == r) << label;
    }
  }
}

// PBIN carries piecewise-linear curves, top-level and per phase; NDJSON
// has no spelling for them, so its encoder refuses rather than send a
// different curve.
TEST(ServeCodec, PiecewiseLinearCurvesTravelOnPbinOnly) {
  Job top = single_job();
  top.curve = SpeedupCurve::piecewise_linear({{2.0, 1.5}, {4.0, 2.0}});
  for (const Job& job : {top, phased_job()}) {
    const Request r = filled(BinOp::kAdmit, job);
    EXPECT_TRUE(decoded_frame(serve::encode_frame(r)) == r);
    EXPECT_THROW((void)serve::encode_line(r), std::invalid_argument);
  }
}

// What loadgen sends: each line its NDJSON client wrote by hand before
// the request encoders existed decodes to the request it now encodes.
TEST(ServeCodec, LoadgenRequestsDecodeAsTheirHandWrittenLinesDid) {
  Request admit{.op = BinOp::kAdmit, .rid = 2, .session = 3};
  admit.job.id = 5;
  admit.job.release = 0.078125;
  admit.job.size = 1.7071067811865475;
  admit.job.curve = SpeedupCurve::power_law(0.6180339887498949);
  const std::vector<std::pair<std::string, Request>> table = {
      {R"({"op":"cluster","id":0})", {.op = BinOp::kCluster}},
      {R"({"op":"open","id":0,"policy":"equi","machines":4})",
       {.op = BinOp::kOpen, .policy = "equi", .machines = 4, .speed = 1.0}},
      {R"({"op":"open","id":1,"policy":"equi","machines":4,"key":17})",
       {.op = BinOp::kOpen,
        .rid = 1,
        .policy = "equi",
        .machines = 4,
        .speed = 1.0,
        .key = 17}},
      {R"({"op":"admit","id":2,"session":3,"job":{"id":5,)"
       R"("release":0.078125,"size":1.7071067811865475,)"
       R"("curve":"pow:0.6180339887498949"}})",
       admit},
      {R"({"op":"advance","id":3,"session":3,"to":0.078125})",
       {.op = BinOp::kAdvance, .rid = 3, .session = 3, .to = 0.078125}},
      {R"({"op":"stats","id":4})", {.op = BinOp::kStats, .rid = 4}},
      {R"({"op":"query","id":5,"session":3})",
       {.op = BinOp::kQuery, .rid = 5, .session = 3}},
      {R"({"op":"finish","id":6,"session":3})",
       {.op = BinOp::kFinish, .rid = 6, .session = 3}},
      {R"({"op":"close","id":7,"session":3})",
       {.op = BinOp::kClose, .rid = 7, .session = 3}},
      {R"({"op":"shutdown","id":0})", {.op = BinOp::kShutdown}},
  };
  for (const auto& [old_line, req] : table) {
    const Request before = serve::decode_line(old_line);
    EXPECT_TRUE(serve::decode_line(serve::encode_line(req)) == before)
        << old_line << " vs " << serve::encode_line(req);
    EXPECT_TRUE(before == req) << old_line;
  }
}

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<std::uint8_t>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// The PBIN request payload of every verb, byte for byte: an encoder
// rewrite must reproduce these exactly, or every deployed client breaks.
TEST(ServeCodec, RequestFramesKeepTheirBytes) {
  const std::vector<std::pair<Request, std::string>> table = {
      {{.op = BinOp::kPing, .rid = 1}, "000100000000000000"},
      {{.op = BinOp::kOpen,
        .rid = 0x1122334455667788ull,
        .policy = "isrpt",
        .machines = 4,
        .speed = 1.5,
        .key = 9},
       "01887766554433221105000000697372707404000000000000000000f83f0900"
       "000000000000"},
      {{.op = BinOp::kAdmit, .rid = 3, .session = 7, .job = single_job()},
       "0203000000000000000700000000000000000000000000000000000000000000"
       "0000000040000000000000f83f02000000000000e03f00000000"},
      {{.op = BinOp::kAdmit, .rid = 3, .session = 7, .job = phased_job()},
       "020300000000000000070000000000000001000000000000000000d03f000000"
       "000000f83f000000000000004002000000000000d03f02000000000000000000"
       "f03f02000000000000d03f000000000000e03f039cd3bf1701e8e03f03000000"
       "000000000000f03f000000000000f03f0000000000000040000000000000f83f"
       "00000000000020400000000000000840"},
      {{.op = BinOp::kAdvance, .rid = 4, .session = 7, .to = 10.5},
       "03040000000000000007000000000000000000000000002540"},
      {{.op = BinOp::kQuery, .rid = 5, .session = 7},
       "0405000000000000000700000000000000"},
      {{.op = BinOp::kSnapshot, .rid = 6, .session = 7, .path = "s.psnp"},
       "050600000000000000070000000000000006000000732e70736e70"},
      {{.op = BinOp::kRestore, .rid = 7, .path = "s.psnp"},
       "06070000000000000006000000732e70736e70"},
      {{.op = BinOp::kFinish, .rid = 8, .session = 7},
       "0708000000000000000700000000000000"},
      {{.op = BinOp::kClose, .rid = 9, .session = 7},
       "0809000000000000000700000000000000"},
      {{.op = BinOp::kStats, .rid = 10}, "090a00000000000000"},
      {{.op = BinOp::kDump, .rid = 11, .path = "f.jsonl"},
       "0a0b0000000000000007000000662e6a736f6e6c"},
      {{.op = BinOp::kDump, .rid = 11}, "0a0b0000000000000000000000"},
      {{.op = BinOp::kShutdown, .rid = 12}, "0b0c00000000000000"},
      {{.op = BinOp::kMigrate, .rid = 13, .session = 7, .shard = 1},
       "0c0d00000000000000070000000000000001000000"},
      {{.op = BinOp::kEvacuate, .rid = 14, .shard = 2},
       "0d0e0000000000000002000000"},
      {{.op = BinOp::kCluster, .rid = 15}, "0e0f00000000000000"},
  };
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(hex(serve::encode_frame(table[i].first)), table[i].second)
        << "row " << i;
  }
  // The shorthands are encode_frame() of the same request.
  EXPECT_EQ(serve::bin_open(0x1122334455667788ull, "isrpt", 4, 1.5, 9),
            serve::encode_frame(table[1].first));
  EXPECT_EQ(serve::bin_admit(3, 7, phased_job()),
            serve::encode_frame(table[3].first));
  EXPECT_EQ(serve::bin_advance(4, 7, 10.5),
            serve::encode_frame(table[4].first));
  EXPECT_EQ(serve::bin_finish(8, 7), serve::encode_frame(table[8].first));
  EXPECT_EQ(serve::bin_close(9, 7), serve::encode_frame(table[9].first));
  EXPECT_EQ(serve::bin_stats(10), serve::encode_frame(table[10].first));
}

/// Expects the two readings of one reply to agree in every field both
/// wires carry: an NDJSON reply has no op, and its evacuate reply alone
/// names the shard; stats and dump text depend on timing.
void expect_same_reply(const BinResponse& line, const BinResponse& frame,
                       BinOp op) {
  const std::string label = serve::verb(op).name;
  EXPECT_EQ(line.status, frame.status) << label;
  EXPECT_EQ(line.rid, frame.rid) << label;
  EXPECT_EQ(line.error, frame.error) << label;
  EXPECT_EQ(line.verdict, frame.verdict) << label;
  EXPECT_EQ(line.session, frame.session) << label;
  if (op != BinOp::kEvacuate) {
    EXPECT_EQ(line.shard, frame.shard) << label;
  }
  EXPECT_EQ(line.policy, frame.policy) << label;
  EXPECT_EQ(line.time, frame.time) << label;
  EXPECT_EQ(line.frontier, frame.frontier) << label;
  EXPECT_EQ(line.alive, frame.alive) << label;
  EXPECT_EQ(line.pending, frame.pending) << label;
  EXPECT_EQ(line.finished, frame.finished) << label;
  EXPECT_EQ(line.jobs, frame.jobs) << label;
  EXPECT_EQ(line.total_flow, frame.total_flow) << label;
  EXPECT_EQ(line.weighted_flow, frame.weighted_flow) << label;
  EXPECT_EQ(line.fractional_flow, frame.fractional_flow) << label;
  EXPECT_EQ(line.makespan, frame.makespan) << label;
  EXPECT_EQ(line.decisions, frame.decisions) << label;
  EXPECT_EQ(line.events, frame.events) << label;
  ASSERT_EQ(line.records.size(), frame.records.size()) << label;
  for (std::size_t i = 0; i < line.records.size(); ++i) {
    EXPECT_EQ(line.records[i].job, frame.records[i].job) << label;
    EXPECT_EQ(line.records[i].release, frame.records[i].release) << label;
    EXPECT_EQ(line.records[i].completion, frame.records[i].completion)
        << label;
  }
  if (line.status == BinStatus::kOk &&
      (op == BinOp::kStats || op == BinOp::kDump)) {
    EXPECT_FALSE(line.text.empty()) << label;
    EXPECT_FALSE(frame.text.empty()) << label;
  } else {
    EXPECT_EQ(line.text, frame.text) << label;
  }
  EXPECT_EQ(line.migrated, frame.migrated) << label;
  EXPECT_EQ(line.shards, frame.shards) << label;
  EXPECT_EQ(line.sessions, frame.sessions) << label;
  EXPECT_EQ(line.shard_sessions, frame.shard_sessions) << label;
  EXPECT_EQ(line.in_ring, frame.in_ring) << label;
}

// One scripted conversation, answered once over each wire by a fresh
// handler: every verb, an error, a reject, a snapshot restored into a
// third session, a migration and an evacuation.
TEST(ServeCodec, AScriptedConversationIsAnsweredAlikeOnBothWires) {
  TempCwd cwd;
  Job bad = single_job();
  bad.id = 9;
  bad.size = -1.0;
  const std::vector<Request> script = {
      {.op = BinOp::kPing, .rid = 1},
      {.op = BinOp::kCluster, .rid = 2},
      {.op = BinOp::kOpen,
       .rid = 3,
       .policy = "isrpt",
       .machines = 2,
       .speed = 1.0,
       .key = 7},
      {.op = BinOp::kOpen,
       .rid = 4,
       .policy = "equi",
       .machines = 3,
       .speed = 0.5},
      {.op = BinOp::kAdmit, .rid = 5, .session = 1, .job = single_job()},
      {.op = BinOp::kAdmit, .rid = 6, .session = 1, .job = phased_pow_job()},
      {.op = BinOp::kAdmit, .rid = 7, .session = 1, .job = bad},
      {.op = BinOp::kAdmit, .rid = 8, .session = 2, .job = single_job()},
      {.op = BinOp::kAdvance, .rid = 9, .session = 1, .to = 0.5},
      {.op = BinOp::kQuery, .rid = 10, .session = 1},
      {.op = BinOp::kSnapshot, .rid = 11, .session = 1, .path = "a/b/s.psnp"},
      {.op = BinOp::kRestore, .rid = 12, .path = "a/b/s.psnp"},
      {.op = BinOp::kQuery, .rid = 13, .session = 3},
      {.op = BinOp::kMigrate, .rid = 14, .session = 1, .shard = 1},
      {.op = BinOp::kEvacuate, .rid = 15, .shard = 0},
      {.op = BinOp::kCluster, .rid = 16},
      {.op = BinOp::kStats, .rid = 17},
      {.op = BinOp::kDump, .rid = 18},
      {.op = BinOp::kFinish, .rid = 19, .session = 1},
      {.op = BinOp::kFinish, .rid = 20, .session = 3},
      {.op = BinOp::kQuery, .rid = 21, .session = 2},
      {.op = BinOp::kClose, .rid = 22, .session = 1},
      {.op = BinOp::kQuery, .rid = 23, .session = 1},
      {.op = BinOp::kShutdown, .rid = 24},
  };
  std::vector<BinResponse> by_line;
  std::vector<BinResponse> by_frame;
  for (const bool ndjson : {true, false}) {
    obs::MetricsRegistry metrics;
    obs::FlightRecorder recorder(256);
    SyncClient c(cluster_config(&metrics, &recorder));
    for (const Request& r : script) {
      if (ndjson) {
        by_line.push_back(
            serve::decode_reply_line(c.raw(serve::encode_line(r))));
      } else {
        by_frame.push_back(c.frame(serve::encode_frame(r)));
      }
    }
  }
  ASSERT_EQ(by_line.size(), script.size());
  ASSERT_EQ(by_frame.size(), script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    expect_same_reply(by_line[i], by_frame[i], script[i].op);
  }
  // The script reached every outcome it was written for: one error (the
  // bad admit), one reject (the query of a closed session), every other
  // request answered ok.
  for (std::size_t i = 0; i < script.size(); ++i) {
    const BinStatus want = i == 6    ? BinStatus::kError
                           : i == 22 ? BinStatus::kReject
                                     : BinStatus::kOk;
    EXPECT_EQ(by_frame[i].status, want) << "request " << i;
  }
  EXPECT_EQ(by_frame[2].session, 1u);
  EXPECT_EQ(by_frame[11].session, 3u);
  EXPECT_GT(by_frame[14].migrated, 0);
  EXPECT_EQ(by_line[14].shard, 0);
  EXPECT_EQ(by_frame[15].in_ring, (std::vector<bool>{false, true}));
  EXPECT_EQ(by_frame[18].records.size(), 2u);
  EXPECT_EQ(static_cast<serve::Submit>(by_line[22].verdict),
            serve::Submit::kUnknownSession);
}

// ------------------------------------------------------------- validation

TEST(ServeCodec, NdjsonIntegralFieldsRejectOutOfRangeAndFractionalValues) {
  SyncClient c;
  ASSERT_TRUE(
      c.line(R"({"op":"open","id":1,"policy":"isrpt","machines":2})")
          .bool_or("ok", false));
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"session", R"({"op":"query","id":2,"session":1e30})"},
      {"session", R"({"op":"query","id":2,"session":-1})"},
      {"session", R"({"op":"query","id":2,"session":1.5})"},
      {"machines", R"({"op":"open","id":3,"machines":-1e20})"},
      {"machines", R"({"op":"open","id":3,"machines":3e9})"},
      {"machines", R"({"op":"open","id":3,"machines":2.5})"},
      {"key", R"({"op":"open","id":4,"key":1e30})"},
      {"key", R"({"op":"open","id":4,"key":-1})"},
      {"key", R"({"op":"open","id":4,"key":0.5})"},
      {"shard", R"({"op":"migrate","id":5,"session":1,"shard":1e30})"},
      {"shard", R"({"op":"migrate","id":5,"session":1,"shard":0.5})"},
      {"shard", R"({"op":"evacuate","id":6,"shard":-1e20})"},
      {"shard", R"({"op":"evacuate","id":6,"shard":1.5})"},
      {"job.id",
       R"({"op":"admit","id":7,"session":1,"job":{"id":1e30,"size":1}})"},
      {"job.id",
       R"({"op":"admit","id":7,"session":1,"job":{"id":-1,"size":1}})"},
      {"job.id",
       R"({"op":"admit","id":7,"session":1,"job":{"id":2.5,"size":1}})"},
      // A fraction or exponent that rounds to a whole double is not an
      // integer literal: 1.0000000000000001 parses to 1.
      {"session", R"({"op":"query","id":2,"session":1.0000000000000001})"},
      {"session", R"({"op":"query","id":2,"session":1.0})"},
      {"session", R"({"op":"query","id":2,"session":1e0})"},
      {"machines", R"({"op":"open","id":3,"machines":2.0})"},
      {"key", R"({"op":"open","id":4,"key":1e3})"},
      {"shard", R"({"op":"migrate","id":5,"session":1,"shard":0.0})"},
      {"shard", R"({"op":"evacuate","id":6,"shard":-0.0})"},
      {"job.id",
       R"({"op":"admit","id":7,"session":1,"job":{"id":2.0,"size":1}})"},
      {"id", R"({"op":"ping","id":1.0})"},
      {"id", R"({"op":"ping","id":4503599627370497.5})"},
  };
  for (const auto& [field, line] : cases) {
    const obs::JsonValue r = c.line(line);
    EXPECT_FALSE(r.bool_or("ok", true)) << line;
    const std::string error = r.string_or("error", "");
    EXPECT_NE(error.find(field), std::string::npos) << line << ": " << error;
    EXPECT_THROW((void)serve::decode_line(line), std::invalid_argument)
        << line;
  }
  // None of them opened, moved or fed a session.
  const obs::JsonValue cl = c.line(R"({"op":"cluster","id":8})");
  EXPECT_EQ(cl.number_or("sessions", -1.0), 1.0);
  const obs::JsonValue q = c.line(R"({"op":"query","id":9,"session":1})");
  EXPECT_EQ(q.number_or("pending", -1.0), 0.0);
  EXPECT_EQ(q.number_or("alive", -1.0), 0.0);
}

// JSON numbers are doubles, which past 2^53 no longer tell the integers
// apart (2^53 + 1 parses to 2^53): an id, key or session there is
// rejected with the range error instead of being read rounded, and the
// encoder refuses to write one. PBIN carries all three as exact u64s.
TEST(ServeCodec, NdjsonIntegersPast2To53AreRejectedNotRounded) {
  constexpr std::uint64_t k2to53 = std::uint64_t{1} << 53;
  EXPECT_EQ(serve::decode_line(R"({"op":"ping","id":9007199254740992})").rid,
            k2to53);
  EXPECT_EQ(
      serve::decode_line(R"({"op":"open","id":1,"key":9007199254740992})").key,
      k2to53);
  EXPECT_EQ(serve::decode_line(
                R"({"op":"query","id":1,"session":9007199254740992})")
                .session,
            k2to53);
  const std::string range = " must be an integer in [0, 9007199254740992]";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"id", R"({"op":"ping","id":9007199254740993})"},
      {"id", R"({"op":"ping","id":9007199254740992.5})"},
      {"id", R"({"op":"ping","id":1e16})"},
      {"key", R"({"op":"open","id":1,"key":9007199254740993})"},
      {"key", R"({"op":"open","id":1,"key":18446744073709551615})"},
      {"session", R"({"op":"query","id":1,"session":9007199254740993})"},
  };
  SyncClient c;
  for (const auto& [field, line] : cases) {
    try {
      (void)serve::decode_line(line);
      ADD_FAILURE() << "accepted " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), field + range) << line;
    }
    const obs::JsonValue r = c.line(line);
    EXPECT_FALSE(r.bool_or("ok", true)) << line;
    EXPECT_EQ(r.string_or("error", ""), field + range) << line;
  }

  Request ping{.op = BinOp::kPing, .rid = k2to53};
  EXPECT_TRUE(serve::decode_line(serve::encode_line(ping)) == ping);
  Request open = filled(BinOp::kOpen, single_job());
  open.key = k2to53;
  EXPECT_TRUE(serve::decode_line(serve::encode_line(open)) == open);
  ping.rid = k2to53 + 1;
  EXPECT_THROW((void)serve::encode_line(ping), std::invalid_argument);
  EXPECT_TRUE(decoded_frame(serve::encode_frame(ping)) == ping);
  open.key = k2to53 + 1;
  EXPECT_THROW((void)serve::encode_line(open), std::invalid_argument);
  EXPECT_TRUE(decoded_frame(serve::encode_frame(open)) == open);
}

// Replies echo the request id so pipelining clients can match them: an
// integral id comes back as an integer (not the shortest double form,
// 1e+05), a fractional one as a number, on success and error replies.
TEST(ServeCodec, NdjsonRepliesEchoIntegralIdsAsIntegers) {
  SyncClient c;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"100000", "\"id\":100000,"},
      {"9007199254740992", "\"id\":9007199254740992,"},  // 2^53
      {"1.5", "\"id\":1.5,"},
      {"-7", "\"id\":-7,"},
  };
  for (const auto& [id, want] : cases) {
    const std::string ok = c.raw(R"({"op":"cluster","id":)" + id + "}");
    EXPECT_NE(ok.find(want), std::string::npos) << ok;
    EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
    const std::string err =
        c.raw(R"({"op":"query","id":)" + id + R"(,"session":99})");
    EXPECT_NE(err.find(want), std::string::npos) << err;
    EXPECT_NE(err.find("\"ok\":false"), std::string::npos) << err;
  }
}

TEST(ServeHostileInput, NonFiniteJobFieldsAreRejectedOverPbin) {
  SyncClient c;
  const BinResponse opened = c.frame(serve::bin_open(1, "isrpt", 2, 1.0));
  ASSERT_EQ(opened.status, BinStatus::kOk);
  const std::uint64_t sid = opened.session;
  const Job single = single_job();
  const Job phased = phased_job();
  ASSERT_EQ(c.frame(serve::bin_admit(2, sid, single)).status, BinStatus::kOk);

  for (const Job& good : {single, phased}) {
    Job probe = good;
    probe.id = 9;
    const std::string frame = serve::bin_admit(3, sid, probe);
    for (const auto& [offset, field] : admit_f64_fields(frame)) {
      // A phased job's size is derived from its phase works.
      if (field == "size" && !good.phases.empty()) continue;
      for (const double bad : {kNaN, kInf, -kInf}) {
        std::string hostile = frame;
        patch_f64(hostile, offset, bad);
        const BinResponse r = c.frame(hostile);
        EXPECT_EQ(r.status, BinStatus::kError)
            << "job " << good.id << " " << field << " = " << bad;
      }
    }
  }
  ASSERT_EQ(c.frame(serve::bin_admit(4, sid, phased)).status, BinStatus::kOk);
  expect_finish_equals(c.frame(serve::bin_finish(5, sid)),
                       batch_isrpt({single, phased}));
}

TEST(ServeHostileInput, BadJobFieldsAreRejectedOverNdjson) {
  SyncClient c;
  ASSERT_TRUE(
      c.line(R"({"op":"open","id":1,"policy":"isrpt","machines":2})")
          .bool_or("ok", false));
  const std::string admit = R"({"op":"admit","id":2,"session":1,"job":)";
  ASSERT_TRUE(c.line(admit + R"({"id":0,"release":0,"size":2,"weight":1.5,)"
                             R"("curve":"pow:0.5"}})")
                  .bool_or("ok", false));
  // JSON has no NaN or infinity: 1e999 is out of range for the parser.
  for (const char* job : {
           R"({"id":9,"release":1e999,"size":1})",
           R"({"id":9,"release":-1,"size":1})",
           R"({"id":9,"size":1e999})",
           R"({"id":9,"size":0})",
           R"({"id":9,"size":-2})",
           R"({"id":9,"size":1,"weight":1e999})",
           R"({"id":9,"size":1,"curve":"pow:nan"})",
           R"({"id":9,"size":1,"curve":"pow:inf"})",
           R"({"id":9,"size":1,"curve":"pow:-0.5"})",
           R"({"id":9,"phases":[{"work":1},{"work":-1}]})",
           R"({"id":9,"phases":[{"work":1},{"work":0}]})",
           R"({"id":9,"phases":[{"work":1e999}]})",
           R"({"id":9,"phases":[{"work":1,"curve":"pow:nan"}]})",
           R"({"id":9.5,"size":1})",
       }) {
    const obs::JsonValue r = c.line(admit + job + "}");
    EXPECT_FALSE(r.bool_or("ok", true)) << job;
  }
  ASSERT_TRUE(c.line(admit + R"({"id":1,"release":0.25,"weight":2,)"
                             R"("phases":[{"work":1,"curve":"pow:0.25"},)"
                             R"({"work":0.5,"curve":"seq"}]}})")
                  .bool_or("ok", false));
  Job phased = make_phased_job(1, 0.25,
                               {{1.0, SpeedupCurve::power_law(0.25)},
                                {0.5, SpeedupCurve::sequential()}});
  phased.weight = 2.0;
  expect_finish_equals(c.line(R"({"op":"finish","id":3,"session":1})"),
                       batch_isrpt({single_job(), phased}));
}

// ------------------------------------------------------------- fuzz

/// One valid frame per verb, addressing session 1 (which each fuzz
/// handler opens first); shutdown last.
std::vector<std::string> frame_corpus() {
  const std::vector<Request> corpus = {
      {.op = BinOp::kPing, .rid = 1},
      {.op = BinOp::kStats, .rid = 2},
      {.op = BinOp::kDump, .rid = 3},
      {.op = BinOp::kCluster, .rid = 4},
      {.op = BinOp::kOpen,
       .rid = 5,
       .policy = "isrpt",
       .machines = 2,
       .speed = 1.0,
       .key = 7},
      {.op = BinOp::kAdmit, .rid = 6, .session = 1, .job = single_job()},
      {.op = BinOp::kAdmit, .rid = 7, .session = 1, .job = phased_job()},
      {.op = BinOp::kAdvance, .rid = 8, .session = 1, .to = 0.5},
      {.op = BinOp::kQuery, .rid = 9, .session = 1},
      {.op = BinOp::kSnapshot, .rid = 10, .session = 1, .path = "a/b/s.psnp"},
      {.op = BinOp::kRestore, .rid = 11, .path = "a/b/s.psnp"},
      {.op = BinOp::kMigrate, .rid = 12, .session = 1, .shard = 1},
      {.op = BinOp::kEvacuate, .rid = 13, .shard = 1},
      {.op = BinOp::kFinish, .rid = 14, .session = 1},
      {.op = BinOp::kClose, .rid = 15, .session = 1},
      {.op = BinOp::kShutdown, .rid = 16}};
  std::vector<std::string> frames;
  for (const Request& r : corpus) frames.push_back(serve::encode_frame(r));
  return frames;
}

/// The NDJSON twin of frame_corpus().
std::vector<std::string> line_corpus() {
  return {
      R"({"op":"ping","id":1})",
      R"({"op":"stats","id":2})",
      R"({"op":"dump","id":3})",
      R"({"op":"cluster","id":4})",
      R"({"op":"open","id":5,"policy":"isrpt","machines":2,"key":7})",
      R"({"op":"admit","id":6,"session":1,"job":{"id":0,"size":2,)"
      R"("weight":1.5,"curve":"pow:0.5"}})",
      R"({"op":"admit","id":7,"session":1,"job":{"id":1,"release":0.25,)"
      R"("phases":[{"work":1,"curve":"pow:0.25"},{"work":0.5}]}})",
      R"({"op":"advance","id":8,"session":1,"to":0.5})",
      R"({"op":"query","id":9,"session":1})",
      R"({"op":"snapshot","id":10,"session":1,"path":"a/b/s.psnp"})",
      R"({"op":"restore","id":11,"path":"a/b/s.psnp"})",
      R"({"op":"migrate","id":12,"session":1,"shard":1})",
      R"({"op":"evacuate","id":13,"shard":1})",
      R"({"op":"finish","id":14,"session":1})",
      R"({"op":"close","id":15,"session":1})",
      R"({"op":"shutdown","id":16})",
  };
}

/// One request that opens session 1 on a fresh handler, so session verbs
/// reach the engine.
void open_session(CountingHandler& h, bool ndjson) {
  if (ndjson) {
    h.line(R"({"op":"open","id":0,"policy":"isrpt","machines":2})", "setup");
  } else {
    h.frame(serve::bin_open(0, "isrpt", 2, 1.0), "setup");
  }
}

/// Session 2: every f64 field of an admit set to NaN and to ±inf, then
/// finish. A non-finite release that got through would wedge the shard
/// (the engine's clock cannot pass NaN), and the drain would hang.
void feed_non_finite_admits(CountingHandler& h) {
  h.frame(serve::bin_open(0, "isrpt", 2, 1.0), "open session 2");
  for (const Job& good : {single_job(), phased_job()}) {
    const std::string frame = serve::bin_admit(0, 2, good);
    for (const auto& [offset, field] : admit_f64_fields(frame)) {
      for (const double bad : {kNaN, kInf, -kInf}) {
        std::string hostile = frame;
        patch_f64(hostile, offset, bad);
        h.frame(hostile, field + " = " + std::to_string(bad));
      }
    }
  }
  h.frame(serve::bin_finish(0, 2), "finish session 2");
}

/// Every prefix of every corpus request, then the request itself.
void feed_truncations(const std::vector<std::string>& corpus, bool ndjson) {
  CountingHandler h;
  open_session(h, ndjson);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (std::size_t len = 0; len <= corpus[i].size(); ++len) {
      const std::string_view cut = std::string_view(corpus[i]).substr(0, len);
      std::string label =
          "request " + std::to_string(i) + " cut at " + std::to_string(len);
      if (ndjson) {
        h.line(cut, std::move(label));
      } else {
        h.frame(cut, std::move(label));
      }
    }
  }
  h.expect_each_answered_once();
}

/// Seeded single-byte flips of every corpus request, kFlipsPerRequest per
/// request and seed, each seed on a fresh handler.
void feed_flips(const std::vector<std::string>& corpus, bool ndjson,
                std::uint64_t seed_base) {
  constexpr int kFlipsPerRequest = 16;
  const long iters = env::get_int("PARSCHED_FUZZ_ITERS", 10, 1, 1000000);
  for (long it = 0; it < iters; ++it) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(it);
    Rng rng(seed);
    CountingHandler h;
    open_session(h, ndjson);
    if (!ndjson) feed_non_finite_admits(h);
    for (int round = 0; round < kFlipsPerRequest; ++round) {
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        std::string req = corpus[i];
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(req.size()) - 1));
        const auto mask = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        req[at] = static_cast<char>(static_cast<std::uint8_t>(req[at]) ^ mask);
        std::string label = "seed " + std::to_string(seed) + " request " +
                            std::to_string(i) + " byte " +
                            std::to_string(at) + " ^ " + std::to_string(mask);
        if (ndjson) {
          h.line(req, std::move(label));
        } else {
          h.frame(req, std::move(label));
        }
      }
    }
    h.expect_each_answered_once();
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ServeDecoderFuzz, TruncatedFramesAreAnsweredOnceAndDrain) {
  TempCwd cwd;
  feed_truncations(frame_corpus(), false);
}

TEST(ServeDecoderFuzz, FlippedFramesAreAnsweredOnceAndDrain) {
  TempCwd cwd;
  feed_flips(frame_corpus(), false, 0xF1A90000ull);
}

TEST(ServeDecoderFuzz, TruncatedLinesAreAnsweredOnceAndDrain) {
  TempCwd cwd;
  feed_truncations(line_corpus(), true);
}

TEST(ServeDecoderFuzz, FlippedLinesAreAnsweredOnceAndDrain) {
  TempCwd cwd;
  feed_flips(line_corpus(), true, 0x11AE0000ull);
}

}  // namespace
}  // namespace parsched
