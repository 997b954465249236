// serve/ — the request model's two codecs, and the hostile input they
// must stop before it reaches the cluster or the engine.
//
//  * Parity: every verb decodes from its NDJSON line and from its PBIN
//    frame to the same serve::Request, so the one dispatcher cannot tell
//    the wires apart.
//  * Validation: NDJSON integral fields must be whole numbers in range,
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
  SyncClient() : handler_(cluster_config()) {}

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

  const std::vector<std::pair<std::string, std::string>> table = {
      {R"({"op":"ping","id":1})", serve::bin_ping(1)},
      {R"({"op":"open","id":2,"policy":"isrpt","machines":4,"speed":1.5,)"
       R"("key":9})",
       serve::bin_open(2, "isrpt", 4, 1.5, 9)},
      {R"({"op":"admit","id":3,"session":7,"job":)" + job_json + "}",
       serve::bin_admit(3, 7, job)},
      {R"({"op":"advance","id":4,"session":7,"to":10.5})",
       serve::bin_advance(4, 7, 10.5)},
      {R"({"op":"query","id":5,"session":7})", serve::bin_query(5, 7)},
      {R"({"op":"snapshot","id":6,"session":7,"path":"s.psnp"})",
       serve::bin_snapshot(6, 7, "s.psnp")},
      {R"({"op":"restore","id":7,"path":"s.psnp"})",
       serve::bin_restore(7, "s.psnp")},
      {R"({"op":"finish","id":8,"session":7})", serve::bin_finish(8, 7)},
      {R"({"op":"close","id":9,"session":7})", serve::bin_close(9, 7)},
      {R"({"op":"stats","id":10})", serve::bin_stats(10)},
      {R"({"op":"dump","id":11,"path":"f.jsonl"})",
       serve::bin_dump(11, "f.jsonl")},
      {R"({"op":"shutdown","id":12})", serve::bin_shutdown(12)},
      {R"({"op":"migrate","id":13,"session":7,"shard":1})",
       serve::bin_migrate(13, 7, 1)},
      {R"({"op":"evacuate","id":14,"shard":0})", serve::bin_evacuate(14, 0)},
      {R"({"op":"cluster","id":15})", serve::bin_cluster(15)},
  };
  std::set<BinOp> seen;
  for (const auto& [line, frame] : table) {
    const serve::Request from_line = serve::decode_line(line);
    serve::Request from_frame;
    serve::decode_frame(frame, from_frame);
    EXPECT_TRUE(from_line == from_frame) << line;
    EXPECT_EQ(from_line.rid, seen.size() + 1) << line;
    seen.insert(from_frame.op);
  }
  EXPECT_EQ(seen.size(), table.size()) << "a verb is missing or doubled";
  // The one verb table names every code, and names map back to it.
  for (const BinOp op : seen) {
    const serve::Verb* v = serve::find_verb(serve::verb(op).name);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->op, op);
  }
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
  return {serve::bin_ping(1),
          serve::bin_stats(2),
          serve::bin_dump(3),
          serve::bin_cluster(4),
          serve::bin_open(5, "isrpt", 2, 1.0, 7),
          serve::bin_admit(6, 1, single_job()),
          serve::bin_admit(7, 1, phased_job()),
          serve::bin_advance(8, 1, 0.5),
          serve::bin_query(9, 1),
          serve::bin_snapshot(10, 1, "a/b/s.psnp"),
          serve::bin_restore(11, "a/b/s.psnp"),
          serve::bin_migrate(12, 1, 1),
          serve::bin_evacuate(13, 1),
          serve::bin_finish(14, 1),
          serve::bin_close(15, 1),
          serve::bin_shutdown(16)};
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
