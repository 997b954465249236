// serve/ — the online service layer.
//
// Two determinism proofs anchor this file:
//
//  * streaming == batch: a Session driven by incremental admit/advance
//    calls finishes with results identical, double for double, to a
//    batch Engine::run() over the same jobs — for every policy family
//    and every interleaving of admissions and advances tried here;
//  * snapshot continuation: freezing a mid-stream session, restoring the
//    blob (as a fresh Session), and continuing both produces bit-equal
//    results, and re-snapshotting the restored session reproduces the
//    donor blob byte for byte.
//
// Around them: JSON parser round trips (the protocol's read side),
// strand/backpressure semantics on a one-shard Cluster (explicit
// rejects, never blocking), the plumbing every installed session
// carries (flight ids, registry, recorder), protocol request/response
// behavior, and an in-process socket soak driving loadgen against a
// live server — the test the `thread` (TSan) CI leg leans on.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>  // lint: thread-ok
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sched/registry.hpp"
#include "serve/binproto.hpp"
#include "serve/cluster.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/snapshot.hpp"
#include "serve/transport.hpp"
#include "simcore/engine.hpp"
#include "simcore/instance.hpp"
#include "speedup/curve.hpp"

namespace parsched {
namespace {

// ------------------------------------------------------------ workloads

// A deterministic mixed workload: varied sizes, weights, alphas, and a
// couple of multi-phase jobs. Releases are strictly increasing so the
// streaming tests can admit in release order without ties.
std::vector<Job> mixed_jobs(std::size_t n, std::uint64_t salt) {
  std::vector<Job> jobs;
  jobs.reserve(n);
  std::uint64_t state = salt * 0x9E3779B97F4A7C15ULL + 1;
  auto next = [&state] {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
  };
  for (std::size_t i = 0; i < n; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.release = static_cast<double>(i) * 0.37 + next() * 0.2;
    j.size = 1.0 + 3.0 * next();
    j.weight = (i % 3 == 0) ? 2.0 : 1.0;
    j.curve = SpeedupCurve::power_law(0.2 + 0.6 * next());
    if (i % 5 == 4) {
      j.phases.push_back({j.size * 0.5, SpeedupCurve::sequential()});
      j.phases.push_back({j.size * 0.5, SpeedupCurve::fully_parallel()});
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

SimResult batch_run(const std::string& policy, int machines,
                    const std::vector<Job>& jobs) {
  auto sched = make_scheduler(policy);
  return simulate(Instance(machines, jobs), *sched);
}

// Exact equality, field by field. Completion order and every double must
// match — tolerance would hide the lazy-integration bugs this guards.
void expect_results_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.total_flow, b.total_flow);
  EXPECT_EQ(a.weighted_flow, b.weighted_flow);
  EXPECT_EQ(a.fractional_flow, b.fractional_flow);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.decisions, b.decisions);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].job.id, b.records[i].job.id) << "record " << i;
    EXPECT_EQ(a.records[i].completion, b.records[i].completion)
        << "job " << a.records[i].job.id;
  }
}

// ----------------------------------------------------- streaming == batch

const char* kPolicies[] = {"isrpt", "equi", "par-srpt", "laps:0.5",
                           "quantized-equi:0.25"};

// Admit every job up front (all releases are >= frontier 0), then
// finish: the engine must replay the arrival sequence itself.
TEST(Session, AdmitAheadMatchesBatch) {
  const auto jobs = mixed_jobs(40, 1);
  for (const char* policy : kPolicies) {
    serve::Session s({policy, 3, 1.0, nullptr});
    for (const Job& j : jobs) s.admit(j);
    s.finish();
    expect_results_identical(s.result(), batch_run(policy, 3, jobs));
  }
}

// Just-in-time admission: advance the clock to each release first, so
// every admit lands exactly at the frontier.
TEST(Session, JustInTimeAdmissionMatchesBatch) {
  const auto jobs = mixed_jobs(30, 2);
  for (const char* policy : kPolicies) {
    serve::Session s({policy, 2, 1.0, nullptr});
    for (const Job& j : jobs) {
      s.advance(j.release);
      s.admit(j);
    }
    s.finish();
    expect_results_identical(s.result(), batch_run(policy, 2, jobs));
  }
}

// Arbitrary interleaving: admissions in small bursts, advances to
// uneven midpoints (including repeated and backwards targets, which are
// no-ops), queries sprinkled throughout.
TEST(Session, InterleavedAdvancesMatchBatch) {
  const auto jobs = mixed_jobs(50, 3);
  for (const char* policy : kPolicies) {
    serve::Session s({policy, 4, 1.0, nullptr});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      s.admit(jobs[i]);
      if (i % 3 == 2) s.advance(jobs[i].release * 0.9 + 0.05);
      if (i % 7 == 0) s.advance(s.time());  // exact no-op
      if (i % 5 == 0) (void)s.partial();    // queries don't perturb
    }
    s.advance(jobs.back().release + 1.0);
    s.finish();
    expect_results_identical(s.result(), batch_run(policy, 4, jobs));
  }
}

TEST(Session, SpeedAugmentationStreamsIdentically) {
  const auto jobs = mixed_jobs(25, 4);
  serve::Session s({"isrpt", 2, 1.5, nullptr});
  for (const Job& j : jobs) {
    s.advance(j.release * 0.5);
    s.admit(j);
  }
  s.finish();

  auto sched = make_scheduler("isrpt");
  EngineConfig ec;
  ec.speed = 1.5;
  expect_results_identical(s.result(),
                           simulate(Instance(2, jobs), *sched, ec));
}

// --------------------------------------------------- session semantics

TEST(Session, LateAdmissionThrowsAndLeavesSessionUsable) {
  serve::Session s({"equi", 2, 1.0, nullptr});
  Job early;
  early.id = 0;
  early.release = 1.0;
  early.size = 1.0;
  s.advance(5.0);
  EXPECT_THROW(s.admit(early), std::invalid_argument);

  Job ok;
  ok.id = 1;
  ok.release = 5.0;
  ok.size = 1.0;
  s.admit(ok);  // the failed admit left the session consistent
  s.finish();
  EXPECT_EQ(s.result().records.size(), 1u);
}

// advance() moves the *frontier* even past the last completion, so a
// later admit below that frontier must still be rejected.
TEST(Session, FrontierIsMonotone) {
  serve::Session s({"equi", 1, 1.0, nullptr});
  s.advance(3.0);
  s.advance(1.0);  // backwards: no-op
  EXPECT_EQ(s.frontier(), 3.0);
}

TEST(Session, FinishIsIdempotentAndSealsTheStream) {
  serve::Session s({"equi", 1, 1.0, nullptr});
  Job j;
  j.id = 0;
  j.size = 1.0;
  s.admit(j);
  s.finish();
  const double flow = s.result().total_flow;
  s.finish();  // idempotent
  EXPECT_EQ(s.result().total_flow, flow);
  EXPECT_THROW(s.admit(j), std::invalid_argument);
  EXPECT_THROW(s.advance(10.0), std::invalid_argument);
  EXPECT_THROW((void)s.snapshot(), std::invalid_argument);
}

TEST(Session, UnknownPolicyThrows) {
  EXPECT_THROW(serve::Session({"no-such-policy", 1, 1.0, nullptr}),
               std::invalid_argument);
}

// ------------------------------------------------ snapshot continuation

// The central proof: snapshot mid-stream, restore, continue donor and
// clone with the same tail — results must be bit-equal, and the clone's
// own snapshot must reproduce the donor's blob byte for byte.
TEST(Snapshot, MidStreamContinuationIsBitIdentical) {
  const auto jobs = mixed_jobs(36, 5);
  const std::size_t cut = 17;
  for (const char* policy : kPolicies) {
    serve::Session donor({policy, 3, 1.0, nullptr});
    for (std::size_t i = 0; i < cut; ++i) {
      donor.admit(jobs[i]);
      if (i % 4 == 3) donor.advance(jobs[i].release);
    }
    const std::string blob = donor.snapshot();
    auto clone = serve::Session::restore(blob);
    EXPECT_EQ(clone->snapshot(), blob)
        << policy << ": restored session re-snapshots differently";

    auto tail = [&jobs](serve::Session& s) {
      for (std::size_t i = cut; i < jobs.size(); ++i) {
        s.admit(jobs[i]);
        if (i % 3 == 0) s.advance(jobs[i].release + 0.01);
      }
      s.finish();
    };
    tail(donor);
    tail(*clone);
    expect_results_identical(donor.result(), clone->result());
    // And both equal the never-snapshotted batch run.
    expect_results_identical(donor.result(), batch_run(policy, 3, jobs));
  }
}

// The round-robin cursor of quantized-equi is mutable policy state; a
// snapshot that dropped it would still produce a *valid* run, just a
// different one. Force disagreement by restoring into a fresh policy
// and checking the continuation still matches the donor exactly.
TEST(Snapshot, QuantizedEquiCursorSurvives) {
  const auto jobs = mixed_jobs(24, 6);
  serve::Session donor({"quantized-equi:0.25", 2, 1.0, nullptr});
  for (std::size_t i = 0; i < 12; ++i) {
    donor.admit(jobs[i]);
    donor.advance(jobs[i].release);
  }
  auto clone = serve::Session::restore(donor.snapshot());
  for (std::size_t i = 12; i < jobs.size(); ++i) {
    donor.admit(jobs[i]);
    clone->admit(jobs[i]);
  }
  donor.finish();
  clone->finish();
  expect_results_identical(donor.result(), clone->result());
}

// import_state() must refuse a snapshot taken under a different decision
// arithmetic: speed, completion_tol, and time_tol all enter the computed
// trajectory, so restoring into an engine that disagrees on any of them
// would continue a *different* simulation while claiming bit-identity.
TEST(Snapshot, ImportRejectsMismatchedEngineConfig) {
  const auto jobs = mixed_jobs(12, 9);
  auto donor_sched = make_scheduler("isrpt");
  Engine donor(3);
  donor.begin(*donor_sched);
  for (std::size_t i = 0; i < 6; ++i) donor.admit(jobs[i]);
  donor.advance_to(jobs[5].release);
  const EngineState state = donor.export_state();

  auto expect_rejected = [&](EngineConfig cfg, const char* needle) {
    Engine host(3, cfg);
    auto sched = make_scheduler("isrpt");
    try {
      host.import_state(state, *sched);
      FAIL() << "import accepted a config with mismatched " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  EngineConfig cfg;
  cfg.speed = 2.0;
  expect_rejected(cfg, "speed");
  cfg = EngineConfig{};
  cfg.completion_tol = 1e-6;
  expect_rejected(cfg, "completion_tol");
  cfg = EngineConfig{};
  cfg.time_tol = 1e-6;
  expect_rejected(cfg, "time_tol");
  {
    Engine host(4);
    auto sched = make_scheduler("isrpt");
    EXPECT_THROW(host.import_state(state, *sched), std::invalid_argument);
  }

  // A matching engine imports fine and continues bit-identically to the
  // donor, so the rejections above are not vacuous.
  Engine host(3);
  auto host_sched = make_scheduler("isrpt");
  host.import_state(state, *host_sched);
  auto tail = [&jobs](Engine& e) {
    for (std::size_t i = 6; i < jobs.size(); ++i) e.admit(jobs[i]);
    return e.finish();
  };
  const SimResult continued = tail(host);
  const SimResult donor_result = tail(donor);
  expect_results_identical(continued, donor_result);
}

TEST(Snapshot, CorruptBlobsAreRejected) {
  serve::Session s({"equi", 2, 1.0, nullptr});
  Job j;
  j.id = 0;
  j.size = 2.0;
  s.admit(j);
  const std::string blob = s.snapshot();

  // Truncation at every prefix length must throw, never crash or accept.
  for (std::size_t len = 0; len < blob.size(); len += 7) {
    EXPECT_THROW((void)serve::decode_snapshot(blob.substr(0, len)),
                 std::invalid_argument)
        << "prefix of " << len << " bytes accepted";
  }
  EXPECT_THROW((void)serve::decode_snapshot(blob + "x"),
               std::invalid_argument)
      << "trailing bytes accepted";

  std::string wrong_magic = blob;
  wrong_magic[4] = 'X';  // byte 4: first magic char (after length prefix)
  EXPECT_THROW((void)serve::decode_snapshot(wrong_magic),
               std::invalid_argument);

  // Byte 8 is the low byte of the little-endian u32 version (after the
  // length-prefixed magic); 0x7f is no version we will ever ship.
  std::string wrong_version = blob;
  wrong_version[8] = '\x7f';
  EXPECT_THROW((void)serve::decode_snapshot(wrong_version),
               std::invalid_argument);
}

static_assert(serve::kSnapshotVersion == 3,
              "update CorruptBlobsAreRejected's version-byte offset and "
              "RejectsVersion2Blobs' layout when the snapshot format "
              "changes");

// v2 carried one more config byte (a rate-kernel selector after
// validate_allocations). Per the format's policy such blobs are
// rejected by version, never migrated.
TEST(Snapshot, RejectsVersion2Blobs) {
  serve::Session s({"isrpt", 2, 1.0, nullptr});
  Job j;
  j.id = 0;
  j.size = 2.0;
  s.admit(j);
  std::string v2 = s.snapshot();
  const serve::SessionSnapshot snap = serve::decode_snapshot(v2);
  v2[8] = '\x02';  // u32 LE version after the length-prefixed magic
  // Field offsets after the version: policy and scheduler-state strings
  // (u32 length + bytes each), then machines i64, speed / completion_tol
  // / time_tol f64, max_decisions u64 and validate_allocations u8.
  const std::size_t selector_at = 12 + (4 + snap.policy.size()) +
                                  (4 + snap.scheduler_state.size()) +
                                  5 * 8 + 1;
  v2.insert(selector_at, 1, '\0');
  try {
    (void)serve::decode_snapshot(v2);
    FAIL() << "a v2 blob was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version 2"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)serve::Session::restore(v2), std::invalid_argument);
}

// A deferred decision's shares are read for every alive job when the
// restored session resumes, so a blob whose cached allocation does not
// have one share per alive job must be refused at restore — not read out
// of bounds on the first advance.
TEST(Snapshot, RejectsCachedAllocationOfTheWrongLength) {
  serve::Session donor({"isrpt", 2, 1.0, nullptr});
  for (int i = 0; i < 3; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.size = 4.0 + i;
    donor.admit(j);
  }
  donor.advance(0.5);  // next event lies past 0.5: the decision is cached
  const serve::SessionSnapshot good = serve::decode_snapshot(donor.snapshot());
  ASSERT_TRUE(good.engine.has_cached_alloc);
  ASSERT_EQ(good.engine.cached_alloc.size(), 3u);
  (void)serve::Session::restore(serve::encode_snapshot(good));

  for (const std::size_t shares : {std::size_t{0}, std::size_t{2},
                                   std::size_t{7}}) {
    serve::SessionSnapshot bad = good;
    bad.engine.cached_alloc.assign(std::vector<double>(shares, 1.0));
    const std::string blob = serve::encode_snapshot(bad);
    EXPECT_THROW((void)serve::Session::restore(serve::decode_snapshot(blob)),
                 std::invalid_argument)
        << shares << " shares for 3 alive jobs";
  }
}

TEST(Snapshot, FileRoundTrip) {
  serve::Session s({"isrpt", 2, 1.0, nullptr});
  Job j;
  j.id = 7;
  j.size = 3.0;
  s.admit(j);
  const serve::SessionSnapshot snap =
      serve::decode_snapshot(s.snapshot());
  const std::string path = testing::TempDir() + "serve_snap_test.psnp";
  serve::write_snapshot_file(path, serve::encode_snapshot(snap));
  const serve::SessionSnapshot back = serve::read_snapshot_file(path);
  EXPECT_EQ(serve::encode_snapshot(back), serve::encode_snapshot(snap));
  EXPECT_THROW((void)serve::read_snapshot_file(path + ".missing"),
               std::runtime_error);
}

// --------------------------------------------------------- JSON parser

TEST(JsonParse, RoundTripsWriterOutput) {
  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("a", 0.1);
    w.kv("b", std::uint64_t{18446744073709551615ULL});
    w.kv("s", "hi \"there\"\n\t\\");
    w.key("arr");
    w.begin_array();
    w.value(1.5e-300);
    w.value(false);
    w.null();
    w.end_array();
    w.end_object();
  }
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::json_parse(os.str(), v, &err)) << err;
  EXPECT_EQ(v.number_or("a", 0.0), 0.1);  // bit-exact via from_chars
  EXPECT_EQ(v.string_or("s", ""), "hi \"there\"\n\t\\");
  const obs::JsonValue* arr = v.find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->array.size(), 3u);
  EXPECT_EQ(arr->array[0].number, 1.5e-300);
  EXPECT_FALSE(arr->array[1].boolean);
  EXPECT_TRUE(arr->array[2].is_null());
}

TEST(JsonParse, DecodesEscapesAndSurrogatePairs) {
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(R"({"s":"\u00e9\u20ac\ud83d\ude00"})", v));
  EXPECT_EQ(v.string_or("s", ""), "\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
}

TEST(JsonParse, RejectsMalformedInput) {
  obs::JsonValue v;
  std::string err;
  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\":1,}", "nul", "\"\\ud800\"",
        "01", "1.2.3", "{\"a\":1}x", "\"unterminated"}) {
    EXPECT_FALSE(obs::json_parse(bad, v, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(JsonParse, DuplicateKeysKeepLast) {
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(R"({"k":1,"k":2})", v));
  EXPECT_EQ(v.number_or("k", 0.0), 2.0);
}

// -------------------------------------------------------------- server

// One shard: the session table, strands and backpressure without
// routing across shards (test_cluster.cpp covers that).
serve::Cluster::Config server_config(int threads, std::size_t sessions,
                                     std::size_t queue,
                                     obs::MetricsRegistry* reg = nullptr) {
  return serve::Cluster::Config{1, threads, sessions, queue, reg, nullptr};
}

TEST(Server, OpenSubmitCloseLifecycle) {
  obs::MetricsRegistry reg;
  serve::Cluster cluster(server_config(2, 4, 8, &reg));
  serve::SessionId id = 0;
  ASSERT_EQ(cluster.open({"equi", 2, 1.0, nullptr}, id),
            serve::Submit::kAccepted);
  EXPECT_EQ(cluster.session_count(), 1u);

  std::promise<double> flow;
  ASSERT_EQ(cluster.submit(id,
                          [&flow](serve::Session& s) {
                            Job j;
                            j.id = 0;
                            j.size = 1.0;
                            s.admit(j);
                            s.finish();
                            flow.set_value(s.result().total_flow);
                          }),
            serve::Submit::kAccepted);
  EXPECT_GT(flow.get_future().get(), 0.0);

  EXPECT_EQ(cluster.close(id), serve::Submit::kAccepted);
  // The route goes at once; the strand retires its session
  // asynchronously once its queue empties.
  while (cluster.session_count() != 0) std::this_thread::yield();
  EXPECT_EQ(cluster.submit(id, [](serve::Session&) {}),
            serve::Submit::kUnknownSession);
  cluster.drain();

  const obs::MetricsSnapshot snap = cluster.merged_snapshot();
  const auto* opened = snap.find("serve.sessions.opened");
  ASSERT_NE(opened, nullptr);
  EXPECT_EQ(opened->value, 1.0);
}

TEST(Server, UnknownSessionAndUnknownPolicy) {
  serve::Cluster cluster(server_config(1, 2, 2));
  EXPECT_EQ(cluster.submit(99, [](serve::Session&) {}),
            serve::Submit::kUnknownSession);
  EXPECT_EQ(cluster.close(99), serve::Submit::kUnknownSession);
  serve::SessionId id = 0;
  EXPECT_THROW((void)cluster.open({"nope", 1, 1.0, nullptr}, id),
               std::invalid_argument);
}

TEST(Server, SessionCapRejects) {
  serve::Cluster cluster(server_config(1, 2, 2));
  serve::SessionId a = 0, b = 0, c = 0;
  EXPECT_EQ(cluster.open({"equi", 1, 1.0, nullptr}, a),
            serve::Submit::kAccepted);
  EXPECT_EQ(cluster.open({"equi", 1, 1.0, nullptr}, b),
            serve::Submit::kAccepted);
  EXPECT_EQ(cluster.open({"equi", 1, 1.0, nullptr}, c),
            serve::Submit::kSessionCap);
  EXPECT_EQ(cluster.close(a), serve::Submit::kAccepted);
  // Closing is asynchronous only when ops are queued; an idle session
  // frees its slot immediately.
  EXPECT_EQ(cluster.open({"equi", 1, 1.0, nullptr}, c),
            serve::Submit::kAccepted);
}

// Fill a strand whose first op is gated shut: queue bound must reject
// with kQueueFull — synchronously, without ever blocking the caller.
TEST(Server, QueueFullRejectsInsteadOfBlocking) {
  obs::MetricsRegistry reg;
  constexpr std::size_t kQueue = 4;
  serve::Cluster cluster(server_config(2, 2, kQueue, &reg));
  serve::SessionId id = 0;
  ASSERT_EQ(cluster.open({"equi", 1, 1.0, nullptr}, id),
            serve::Submit::kAccepted);

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> entered;
  ASSERT_EQ(cluster.submit(id,
                          [opened, &entered](serve::Session&) {
                            entered.set_value();
                            opened.wait();
                          }),
            serve::Submit::kAccepted);
  entered.get_future().wait();  // the gate op is running, not queued

  for (std::size_t i = 0; i < kQueue; ++i) {
    EXPECT_EQ(cluster.submit(id, [](serve::Session&) {}),
              serve::Submit::kAccepted)
        << "op " << i << " should fit in the queue";
  }
  EXPECT_EQ(cluster.submit(id, [](serve::Session&) {}),
            serve::Submit::kQueueFull);

  gate.set_value();
  cluster.drain();
  const obs::MetricsSnapshot snap = cluster.merged_snapshot();
  const auto* rejects = snap.find("serve.reject.queue_full");
  ASSERT_NE(rejects, nullptr);
  EXPECT_EQ(rejects->value, 1.0);
}

TEST(Server, DrainRunsQueuedOpsThenRejects) {
  serve::Cluster cluster(server_config(2, 4, 16));
  serve::SessionId id = 0;
  ASSERT_EQ(cluster.open({"equi", 1, 1.0, nullptr}, id),
            serve::Submit::kAccepted);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(cluster.submit(id,
                            [&ran](serve::Session&) {
                              ran.fetch_add(1, std::memory_order_relaxed);
                            }),
              serve::Submit::kAccepted);
  }
  cluster.drain();
  EXPECT_EQ(ran.load(), 8) << "drain dropped queued operations";
  EXPECT_EQ(cluster.submit(id, [](serve::Session&) {}),
            serve::Submit::kDraining);
  serve::SessionId id2 = 0;
  EXPECT_EQ(cluster.open({"equi", 1, 1.0, nullptr}, id2),
            serve::Submit::kDraining);
}

// Strand exclusivity under load: many producer threads hammer a few
// sessions; each strand must run its ops one at a time and in order.
// Runs under TSan in the `thread` CI leg.
TEST(Server, StrandSerializesOpsPerSession) {
  serve::Cluster cluster(server_config(4, 4, 512));
  constexpr int kSessions = 4;
  constexpr int kProducers = 3;
  constexpr int kOpsPerProducer = 50;

  std::vector<serve::SessionId> ids(kSessions);
  std::vector<std::atomic<int>> active(kSessions);
  std::vector<std::atomic<int>> done(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(cluster.open({"equi", 1, 1.0, nullptr},
                          ids[static_cast<std::size_t>(s)]),
              serve::Submit::kAccepted);
  }

  std::atomic<bool> overlap{false};
  std::vector<std::thread> producers;  // lint: thread-ok
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kOpsPerProducer; ++i) {
        const int s = (p + i) % kSessions;
        const auto su = static_cast<std::size_t>(s);
        // Queue-full rejects are legitimate here; retry until accepted.
        while (cluster.submit(ids[su],
                             [&active, &done, &overlap, su](
                                 serve::Session&) {
                               if (active[su].fetch_add(1) != 0) {
                                 overlap.store(true);
                               }
                               active[su].fetch_sub(1);
                               done[su].fetch_add(1);
                             }) != serve::Submit::kAccepted) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  cluster.drain();
  EXPECT_FALSE(overlap.load()) << "two ops ran concurrently on a strand";
  int total = 0;
  for (int s = 0; s < kSessions; ++s) {
    total += done[static_cast<std::size_t>(s)].load();
  }
  EXPECT_EQ(total, kProducers * kOpsPerProducer);
}

// ------------------------------------------------- cluster plumbing

/// The first key the all-shards ring places on `shard`.
std::uint64_t key_on_shard(int shard, int shards) {
  std::uint64_t key = 1;
  while (serve::consistent_shard(key, shards) != shard) ++key;
  return key;
}

// Flight events name the session by the id its client holds — on every
// shard, for every verdict (cluster-level rejects included) — and a
// dispatch carries the queue depth it leaves behind.
TEST(ClusterFlight, SubmitAndDispatchNameTheClientSession) {
  obs::FlightRecorder rec(1024);
  serve::Cluster cluster(serve::Cluster::Config{2, 1, 8, 16, nullptr, &rec});
  serve::SessionId a = 0;
  serve::SessionId b = 0;
  int shard_a = -1;
  int shard_b = -1;
  ASSERT_EQ(cluster.open({"equi", 1, 1.0, nullptr}, a, key_on_shard(0, 2),
                         &shard_a),
            serve::Submit::kAccepted);
  ASSERT_EQ(cluster.open({"equi", 1, 1.0, nullptr}, b, key_on_shard(1, 2),
                         &shard_b),
            serve::Submit::kAccepted);
  ASSERT_NE(shard_a, shard_b);

  // A gated first op on `a` leaves two ops queued behind it.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> entered;
  ASSERT_EQ(cluster.submit(a,
                           [opened, &entered](serve::Session&) {
                             entered.set_value();
                             opened.wait();
                           }),
            serve::Submit::kAccepted);
  entered.get_future().wait();
  ASSERT_EQ(cluster.submit(a, [](serve::Session&) {}),
            serve::Submit::kAccepted);
  ASSERT_EQ(cluster.submit(a, [](serve::Session&) {}),
            serve::Submit::kAccepted);
  ASSERT_EQ(cluster.submit(b, [](serve::Session&) {}),
            serve::Submit::kAccepted);
  constexpr serve::SessionId kUnknown = 999;
  ASSERT_EQ(cluster.submit(kUnknown, [](serve::Session&) {}),
            serve::Submit::kUnknownSession);
  gate.set_value();
  cluster.drain();

  std::set<serve::SessionId> submitted;
  std::set<serve::SessionId> dispatched;
  std::vector<double> depths_a;
  bool unknown_seen = false;
  for (const auto& ev : rec.snapshot()) {
    if (ev.kind == obs::FlightEvent::kSubmit) {
      if (ev.id == kUnknown) {
        unknown_seen = true;
        EXPECT_EQ(ev.v, static_cast<double>(serve::Submit::kUnknownSession));
      } else {
        EXPECT_TRUE(ev.id == a || ev.id == b) << "submit id " << ev.id;
        submitted.insert(ev.id);
      }
    } else if (ev.kind == obs::FlightEvent::kDispatch) {
      EXPECT_TRUE(ev.id == a || ev.id == b) << "dispatch id " << ev.id;
      dispatched.insert(ev.id);
      if (ev.id == a) depths_a.push_back(ev.v);
    }
  }
  const std::set<serve::SessionId> both{a, b};
  EXPECT_EQ(submitted, both);
  EXPECT_EQ(dispatched, both);
  EXPECT_TRUE(unknown_seen) << "the unknown-session reject was not recorded";
  EXPECT_EQ(depths_a, (std::vector<double>{0.0, 1.0, 0.0}));
}

// A migrated session keeps the cluster's recorder: its engine events do
// not stop at the move.
TEST(ClusterPlumbing, MigratedSessionKeepsRecordingEngineEvents) {
  obs::FlightRecorder rec(4096);
  obs::MetricsRegistry reg;
  serve::Cluster cluster(serve::Cluster::Config{2, 1, 8, 16, &reg, &rec});
  serve::SessionId id = 0;
  ASSERT_EQ(cluster.open({"isrpt", 2, 1.0, nullptr}, id),
            serve::Submit::kAccepted);
  const auto admit = [&cluster, id](JobId job, double release) {
    return cluster.submit(id, [job, release](serve::Session& s) {
      Job j;
      j.id = job;
      j.release = release;
      j.size = 2.0;
      s.admit(j);
    });
  };
  ASSERT_EQ(admit(0, 0.0), serve::Submit::kAccepted);
  const int target = 1 - cluster.shard_of(id);
  ASSERT_EQ(cluster.migrate(id, target), serve::Submit::kAccepted);
  for (int i = 0; i < 5000 && cluster.shard_of(id) != target; ++i) {
    timespec ts{0, 1'000'000};  // 1ms
    nanosleep(&ts, nullptr);
  }
  ASSERT_EQ(cluster.shard_of(id), target);
  ASSERT_EQ(admit(100, 1.0), serve::Submit::kAccepted);
  ASSERT_EQ(admit(101, 1.5), serve::Submit::kAccepted);
  ASSERT_EQ(cluster.submit(id, [](serve::Session& s) { s.advance(2.0); }),
            serve::Submit::kAccepted);
  cluster.drain();

  std::set<std::uint64_t> admitted;
  for (const auto& ev : rec.snapshot()) {
    if (ev.kind == obs::FlightEvent::kAdmit) admitted.insert(ev.id);
  }
  EXPECT_EQ(admitted.count(0), 1u);
  EXPECT_EQ(admitted.count(100), 1u) << "no engine events after the move";
  EXPECT_EQ(admitted.count(101), 1u) << "no engine events after the move";
}

// A session restored from a snapshot file runs on its shard's registry:
// its engine totals land under serve.shard<i>.*.
TEST(ClusterPlumbing, RestoredSessionCountsUnderItsShard) {
  obs::MetricsRegistry reg;
  serve::ProtocolHandler handler(server_config(1, 4, 16, &reg));
  const auto call = [&handler](const std::string& line) {
    std::promise<std::string> reply;
    auto fut = reply.get_future();
    (void)handler.handle_line(
        line, [&reply](const std::string& resp) { reply.set_value(resp); });
    obs::JsonValue v;
    EXPECT_TRUE(obs::json_parse(fut.get(), v));
    return v;
  };
  const obs::JsonValue opened =
      call(R"({"op":"open","id":1,"policy":"equi","machines":2})");
  ASSERT_TRUE(opened.bool_or("ok", false));
  const std::string s = std::to_string(
      static_cast<std::uint64_t>(opened.number_or("session", 0.0)));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(call(R"({"op":"admit","id":2,"session":)" + s +
                     R"(,"job":{"id":)" + std::to_string(i) +
                     R"(,"size":1}})")
                    .bool_or("ok", false));
  }
  const std::string path = testing::TempDir() + "restore_registry.psnp";
  ASSERT_TRUE(call(R"({"op":"snapshot","id":3,"session":)" + s +
                   R"(,"path":)" + obs::json_quote(path) + "}")
                  .bool_or("ok", false));
  const obs::JsonValue restored =
      call(R"({"op":"restore","id":4,"path":)" + obs::json_quote(path) + "}");
  ASSERT_TRUE(restored.bool_or("ok", false));
  const std::string s2 = std::to_string(
      static_cast<std::uint64_t>(restored.number_or("session", 0.0)));
  const int shard = static_cast<int>(restored.number_or("shard", -1.0));
  ASSERT_TRUE(call(R"({"op":"finish","id":5,"session":)" + s2 + "}")
                  .bool_or("ok", false));

  const obs::MetricsSnapshot snap = handler.cluster().merged_snapshot();
  const auto* completions = snap.find(
      "serve.shard" + std::to_string(shard) + ".engine.completions");
  ASSERT_NE(completions, nullptr) << "restored session has no registry";
  EXPECT_EQ(completions->value, 3.0);
  handler.drain();
}

// ------------------------------------------------------------- protocol

// Strict request/response helper over a ProtocolHandler: sends one line
// and waits for exactly one response. Works because every request —
// accepted, rejected, or failed — produces exactly one response line.
class ProtoClient {
 public:
  explicit ProtoClient(serve::Cluster::Config cfg) : handler_(cfg) {}

  std::string call(const std::string& line) {
    std::promise<std::string> reply;
    auto fut = reply.get_future();
    alive_ = handler_.handle_line(
        line, [&reply](const std::string& resp) { reply.set_value(resp); });
    return fut.get();
  }

  obs::JsonValue call_json(const std::string& line) {
    obs::JsonValue v;
    std::string err;
    const std::string resp = call(line);
    EXPECT_TRUE(obs::json_parse(resp, v, &err)) << resp << ": " << err;
    return v;
  }

  [[nodiscard]] bool alive() const { return alive_; }

 private:
  serve::ProtocolHandler handler_;
  bool alive_ = true;
};

TEST(Protocol, FullSessionConversation) {
  ProtoClient client(server_config(2, 4, 16));
  EXPECT_TRUE(client.call_json(R"({"op":"ping","id":1})").bool_or("ok", false));

  const obs::JsonValue opened = client.call_json(
      R"({"op":"open","id":2,"policy":"isrpt","machines":2})");
  ASSERT_TRUE(opened.bool_or("ok", false));
  const auto sid =
      static_cast<std::uint64_t>(opened.number_or("session", 0.0));
  ASSERT_GT(sid, 0u);
  const std::string s = std::to_string(sid);

  EXPECT_TRUE(client
                  .call_json(R"({"op":"admit","id":3,"session":)" + s +
                             R"(,"job":{"id":0,"size":2,"curve":"pow:0.5"}})")
                  .bool_or("ok", false));
  EXPECT_TRUE(client
                  .call_json(R"({"op":"admit","id":4,"session":)" + s +
                             R"(,"job":{"id":1,"release":0.5,"size":1}})")
                  .bool_or("ok", false));
  EXPECT_TRUE(
      client.call_json(R"({"op":"advance","id":5,"session":)" + s + ",\"to\":1}")
          .bool_or("ok", false));

  const obs::JsonValue q =
      client.call_json(R"({"op":"query","id":6,"session":)" + s + "}");
  EXPECT_TRUE(q.bool_or("ok", false));
  // The frontier is the advance target; `time` is the engine's event
  // clock, which stops at the last event at or before the frontier.
  EXPECT_EQ(q.number_or("frontier", -1.0), 1.0);
  EXPECT_LE(q.number_or("time", 2.0), 1.0);
  EXPECT_GT(q.number_or("time", -1.0), 0.0);
  EXPECT_FALSE(q.bool_or("finished", true));

  const obs::JsonValue fin =
      client.call_json(R"({"op":"finish","id":7,"session":)" + s + "}");
  ASSERT_TRUE(fin.bool_or("ok", false));
  EXPECT_EQ(fin.number_or("jobs", 0.0), 2.0);
  const obs::JsonValue* records = fin.find("records");
  ASSERT_NE(records, nullptr);
  EXPECT_EQ(records->array.size(), 2u);

  // The protocol result must equal the in-process session run.
  std::vector<Job> jobs(2);
  jobs[0].id = 0;
  jobs[0].size = 2.0;
  jobs[0].curve = SpeedupCurve::power_law(0.5);
  jobs[1].id = 1;
  jobs[1].release = 0.5;
  jobs[1].size = 1.0;
  const SimResult batch = batch_run("isrpt", 2, jobs);
  EXPECT_EQ(fin.number_or("total_flow", -1.0), batch.total_flow);
  EXPECT_EQ(fin.number_or("makespan", -1.0), batch.makespan);

  EXPECT_TRUE(client.call_json(R"({"op":"close","id":8,"session":)" + s + "}")
                  .bool_or("ok", false));
  EXPECT_TRUE(client.alive());
  EXPECT_TRUE(client.call_json(R"({"op":"shutdown","id":9})")
                  .bool_or("ok", false));
  EXPECT_FALSE(client.alive()) << "shutdown must end the transport loop";
}

TEST(Protocol, ErrorsAndRejectionsAnswerEveryRequest) {
  ProtoClient client(server_config(1, 1, 4));
  // Malformed JSON, wrong root, missing op, unknown op.
  EXPECT_FALSE(client.call_json("{oops").bool_or("ok", true));
  EXPECT_FALSE(client.call_json("[1,2]").bool_or("ok", true));
  EXPECT_FALSE(client.call_json(R"({"id":1})").bool_or("ok", true));
  EXPECT_FALSE(
      client.call_json(R"({"op":"warp","id":2})").bool_or("ok", true));
  // Session ops without/with a bogus session id.
  EXPECT_FALSE(
      client.call_json(R"({"op":"query","id":3})").bool_or("ok", true));
  const obs::JsonValue unknown =
      client.call_json(R"({"op":"query","id":4,"session":42})");
  EXPECT_FALSE(unknown.bool_or("ok", true));
  EXPECT_EQ(unknown.string_or("reject", ""), "unknown_session");
  // Session-cap rejection carries its reason too.
  serve::SessionId sid = 0;
  obs::JsonValue opened =
      client.call_json(R"({"op":"open","id":5,"policy":"equi"})");
  ASSERT_TRUE(opened.bool_or("ok", false));
  (void)sid;
  const obs::JsonValue capped =
      client.call_json(R"({"op":"open","id":6,"policy":"equi"})");
  EXPECT_FALSE(capped.bool_or("ok", true));
  EXPECT_EQ(capped.string_or("reject", ""), "session_cap");
  // A failing op (admit below the frontier) answers with ok:false.
  const std::string s =
      std::to_string(static_cast<std::uint64_t>(opened.number_or("session", 0.0)));
  EXPECT_TRUE(client
                  .call_json(R"({"op":"advance","id":7,"session":)" + s +
                             ",\"to\":5}")
                  .bool_or("ok", false));
  const obs::JsonValue late = client.call_json(
      R"({"op":"admit","id":8,"session":)" + s +
      R"(,"job":{"id":0,"release":1,"size":1}})");
  EXPECT_FALSE(late.bool_or("ok", true));
  // Bad curve spec is a request error, not a server failure.
  const obs::JsonValue badcurve = client.call_json(
      R"({"op":"admit","id":9,"session":)" + s +
      R"(,"job":{"id":1,"release":6,"size":1,"curve":"pow:2"}})");
  EXPECT_FALSE(badcurve.bool_or("ok", true));
}

// The live-telemetry verbs. stats/dump answer synchronously (they must
// work even when every strand is wedged), so a strict request/response
// client exercises them exactly like any other op.
TEST(Protocol, StatsVerbReturnsPrometheusExposition) {
  obs::MetricsRegistry reg;
  ProtoClient client(server_config(2, 4, 16, &reg));

  // Before any traffic: the server's eagerly-registered instruments are
  // already scrapeable.
  obs::JsonValue stats = client.call_json(R"({"op":"stats","id":1})");
  ASSERT_TRUE(stats.bool_or("ok", false));
  EXPECT_EQ(stats.string_or("format", ""), "prometheus");
  EXPECT_GT(stats.number_or("metrics", 0.0), 0.0);
  std::string text = stats.string_or("exposition", "");
  EXPECT_NE(text.find("# TYPE parsched_serve_requests counter"),
            std::string::npos);

  // Traffic, then a re-scrape: serve.* counters moved and the
  // server-side latency histogram carries quantile samples.
  const obs::JsonValue opened = client.call_json(
      R"({"op":"open","id":2,"policy":"equi","machines":2})");
  ASSERT_TRUE(opened.bool_or("ok", false));
  const std::string s = std::to_string(
      static_cast<std::uint64_t>(opened.number_or("session", 0.0)));
  ASSERT_TRUE(client
                  .call_json(R"({"op":"admit","id":3,"session":)" + s +
                             R"(,"job":{"id":0,"size":1}})")
                  .bool_or("ok", false));
  ASSERT_TRUE(
      client.call_json(R"({"op":"finish","id":4,"session":)" + s + "}")
          .bool_or("ok", false));

  stats = client.call_json(R"({"op":"stats","id":5})");
  ASSERT_TRUE(stats.bool_or("ok", false));
  text = stats.string_or("exposition", "");
  EXPECT_NE(text.find("parsched_serve_sessions_opened 1"),
            std::string::npos);
  EXPECT_NE(text.find("parsched_engine_completions 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE parsched_serve_request_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("parsched_serve_request_latency_ms{quantile=\"0.99\"}"),
            std::string::npos);
}

TEST(Protocol, StatsWithoutMetricsIsARequestError) {
  ProtoClient client(server_config(1, 2, 4));  // no registry attached
  const obs::JsonValue stats = client.call_json(R"({"op":"stats","id":1})");
  EXPECT_FALSE(stats.bool_or("ok", true));
}

TEST(Protocol, DumpVerbReturnsFlightRecordInline) {
  obs::FlightRecorder rec(64);
  serve::Cluster::Config cfg = server_config(2, 4, 16);
  cfg.recorder = &rec;
  ProtoClient client(cfg);

  const obs::JsonValue opened = client.call_json(
      R"({"op":"open","id":1,"policy":"equi","machines":2})");
  ASSERT_TRUE(opened.bool_or("ok", false));
  const std::string s = std::to_string(
      static_cast<std::uint64_t>(opened.number_or("session", 0.0)));
  ASSERT_TRUE(client
                  .call_json(R"({"op":"admit","id":2,"session":)" + s +
                             R"(,"job":{"id":0,"size":1}})")
                  .bool_or("ok", false));
  ASSERT_TRUE(
      client.call_json(R"({"op":"finish","id":3,"session":)" + s + "}")
          .bool_or("ok", false));

  const obs::JsonValue dump = client.call_json(R"({"op":"dump","id":4})");
  ASSERT_TRUE(dump.bool_or("ok", false));
  EXPECT_EQ(dump.string_or("kind", ""), "parsched-flight-record");
  const std::string jsonl = dump.string_or("dump", "");
  EXPECT_NE(jsonl.find("\"reason\": \"dump_verb\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"ev\": \"submit\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"ev\": \"dispatch\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"ev\": \"admit\""), std::string::npos);
  // Every line is one standalone JSON object.
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    std::string err;
    EXPECT_TRUE(obs::json_syntax_valid(line, &err)) << line << ": " << err;
  }

  // With a path: the dump lands in the file and the reply stays small.
  const std::string path = testing::TempDir() + "proto_dump.jsonl";
  const obs::JsonValue to_file = client.call_json(
      R"({"op":"dump","id":5,"path":")" + path + R"("})");
  ASSERT_TRUE(to_file.bool_or("ok", false));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_NE(first.find("parsched-flight-record"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Protocol, DumpWithoutRecorderIsARequestError) {
  ProtoClient client(server_config(1, 2, 4));
  EXPECT_FALSE(
      client.call_json(R"({"op":"dump","id":1})").bool_or("ok", true));
}

// ---------------------------------------------------------- flight dump

// A policy that never assigns rate: with one alive job and no pending
// arrivals the engine has no next event, which is exactly the
// SimulationStall path the flight recorder exists to explain.
class ZeroRateScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "zero-rate"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.reset(ctx.alive().size());  // all shares zero: no progress
  }
};

TEST(FlightDump, SimulationStallWritesASchemaValidDump) {
  obs::FlightRecorder rec(32);
  const std::string path = testing::TempDir() + "stall_flight.jsonl";
  std::filesystem::remove(path);
  rec.set_dump_path(path);

  EngineConfig ec;
  ec.recorder = &rec;
  Job j;
  j.id = 7;
  j.size = 1.0;
  j.curve = SpeedupCurve::power_law(0.5);
  ZeroRateScheduler sched;
  EXPECT_THROW((void)simulate(Instance(2, {j}), sched, ec),
               SimulationStall);

  // The failure path dumped the ring before the throw reached us.
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  std::string err;
  ASSERT_TRUE(obs::json_syntax_valid(line, &err)) << line << ": " << err;
  EXPECT_NE(line.find("\"kind\": \"parsched-flight-record\""),
            std::string::npos);
  EXPECT_NE(line.find("\"reason\": \"simulation_stall\""),
            std::string::npos);
  bool saw_stall = false;
  bool saw_admit = false;
  std::uint64_t body_lines = 0;
  while (std::getline(in, line)) {
    ++body_lines;
    EXPECT_TRUE(obs::json_syntax_valid(line, &err)) << line << ": " << err;
    if (line.find("\"ev\": \"stall\"") != std::string::npos) {
      saw_stall = true;
      // The stall event carries the alive count in its aux field.
      EXPECT_NE(line.find("\"a\": 1"), std::string::npos);
    }
    if (line.find("\"ev\": \"admit\"") != std::string::npos) {
      saw_admit = true;
    }
  }
  EXPECT_TRUE(saw_stall);
  EXPECT_TRUE(saw_admit);
  EXPECT_GT(body_lines, 0u);
  std::filesystem::remove(path);
}

// Snapshot over the protocol: snapshot to a file, restore it as a new
// session, and the restored continuation matches the donor's.
TEST(Protocol, SnapshotRestoreRoundTrip) {
  ProtoClient client(server_config(2, 4, 16));
  const obs::JsonValue opened = client.call_json(
      R"({"op":"open","id":1,"policy":"quantized-equi:0.25","machines":2})");
  ASSERT_TRUE(opened.bool_or("ok", false));
  const std::string s =
      std::to_string(static_cast<std::uint64_t>(opened.number_or("session", 0.0)));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client
                    .call_json(R"({"op":"admit","id":10,"session":)" + s +
                               R"(,"job":{"id":)" + std::to_string(i) +
                               R"(,"release":)" + std::to_string(i * 0.3) +
                               R"(,"size":1.5,"curve":"pow:0.5"}})")
                    .bool_or("ok", false));
  }
  const std::string path = testing::TempDir() + "proto_snap.psnp";
  ASSERT_TRUE(client
                  .call_json(R"({"op":"snapshot","id":11,"session":)" + s +
                             R"(,"path":)" + obs::json_quote(path) + "}")
                  .bool_or("ok", false));
  const obs::JsonValue restored = client.call_json(
      R"({"op":"restore","id":12,"path":)" + obs::json_quote(path) + "}");
  ASSERT_TRUE(restored.bool_or("ok", false));
  const std::string s2 = std::to_string(
      static_cast<std::uint64_t>(restored.number_or("session", 0.0)));
  ASSERT_NE(s, s2);

  const obs::JsonValue fin1 =
      client.call_json(R"({"op":"finish","id":13,"session":)" + s + "}");
  const obs::JsonValue fin2 =
      client.call_json(R"({"op":"finish","id":14,"session":)" + s2 + "}");
  ASSERT_TRUE(fin1.bool_or("ok", false));
  ASSERT_TRUE(fin2.bool_or("ok", false));
  EXPECT_EQ(fin1.number_or("total_flow", -1.0),
            fin2.number_or("total_flow", -2.0));
  EXPECT_EQ(fin1.number_or("makespan", -1.0),
            fin2.number_or("makespan", -2.0));
}

// ------------------------------------------- socket transport + loadgen

// End-to-end in one process: a real Unix-socket server on a background
// thread, the real loadgen client fleet against it. With the session cap
// below the fleet size, open() rejections exercise the retry/backoff
// path; the soak invariant is rejects are fine, errors are not.
TEST(Transport, SocketSoakWithLoadgen) {
  const std::string path = testing::TempDir() + "serve_soak.sock";
  obs::MetricsRegistry server_reg;
  serve::ProtocolHandler handler(server_config(4, 6, 32, &server_reg));
  std::thread server_thread(  // lint: thread-ok
      [&handler, &path] { serve::serve_unix_socket(handler, path); });

  obs::MetricsRegistry client_reg;
  serve::LoadgenConfig cfg;
  cfg.socket_path = path;
  cfg.sessions = 8;  // two above the cap: forces open rejections
  cfg.admissions = 40;
  cfg.advance_every = 8;
  cfg.machines = 2;
  cfg.seed = 11;
  cfg.stats_every = 8;  // scrape stats mid-run: the TSan leg drives the
                        // concurrent snapshot/exposition path end-to-end
  cfg.shutdown_after = true;
  cfg.metrics = &client_reg;
  const serve::LoadgenResult r = serve::run_loadgen(cfg);
  server_thread.join();

  EXPECT_EQ(r.errors, 0u) << "soak invariant: shed load, never fail";
  EXPECT_EQ(r.sessions.size(), 8u);
  EXPECT_EQ(r.jobs_completed(), 8u * 40u);
  EXPECT_GT(r.total_flow(), 0.0);
  EXPECT_GT(r.stats_scrapes, 0u) << "stats probes must have fired";

  const obs::MetricsSnapshot snap = client_reg.snapshot();
  const auto* lat = snap.find("serve.client.latency_ms");
  ASSERT_NE(lat, nullptr);
  const auto* reqs = snap.find("serve.client.requests");
  ASSERT_NE(reqs, nullptr);
  EXPECT_EQ(reqs->value, static_cast<double>(r.requests));
}

// Same workload twice: the loadgen fleet is seeded, so the simulated
// totals (not the latencies) must be identical run over run.
TEST(Transport, LoadgenTotalsAreDeterministic) {
  auto run_once = [](const std::string& path) {
    serve::ProtocolHandler handler(server_config(2, 8, 32, nullptr));
    std::thread server_thread(  // lint: thread-ok
        [&handler, &path] { serve::serve_unix_socket(handler, path); });
    serve::LoadgenConfig cfg;
    cfg.socket_path = path;
    cfg.sessions = 3;
    cfg.admissions = 25;
    cfg.machines = 2;
    cfg.seed = 5;
    cfg.shutdown_after = true;
    const serve::LoadgenResult r = serve::run_loadgen(cfg);
    server_thread.join();
    EXPECT_EQ(r.errors, 0u);
    return r.total_flow();
  };
  const double a = run_once(testing::TempDir() + "serve_det_a.sock");
  const double b = run_once(testing::TempDir() + "serve_det_b.sock");
  EXPECT_EQ(a, b);
}

// ------------------------------------------- transport hardening

// The accept-loop error taxonomy: transient conditions (EINTR, a
// connection aborted before accept, fd/buffer exhaustion) must retry;
// a broken listener (EBADF, EINVAL) must stop the loop instead of
// spinning on it forever.
TEST(Transport, AcceptShouldRetryClassifiesErrnos) {
  EXPECT_TRUE(serve::accept_should_retry(EINTR));
  EXPECT_TRUE(serve::accept_should_retry(ECONNABORTED));
  EXPECT_TRUE(serve::accept_should_retry(EPROTO));
  EXPECT_TRUE(serve::accept_should_retry(EAGAIN));
  EXPECT_TRUE(serve::accept_should_retry(EWOULDBLOCK));
  EXPECT_TRUE(serve::accept_should_retry(EMFILE));
  EXPECT_TRUE(serve::accept_should_retry(ENFILE));
  EXPECT_TRUE(serve::accept_should_retry(ENOBUFS));
  EXPECT_TRUE(serve::accept_should_retry(ENOMEM));
  EXPECT_FALSE(serve::accept_should_retry(EBADF));
  EXPECT_FALSE(serve::accept_should_retry(EINVAL));
}

// A client that connects and vanishes immediately (the kernel may hand
// the accept loop an already-aborted socket, or EOF on first read) must
// not hurt the listener: real sessions keep working afterwards.
TEST(Transport, ListenerSurvivesAbortedConnections) {
  const std::string path = testing::TempDir() + "serve_abort.sock";
  serve::ProtocolHandler handler(server_config(1, 4, 16));
  std::thread server_thread(  // lint: thread-ok
      [&handler, &path] { serve::serve_unix_socket(handler, path); });

  for (int i = 0; i < 16; ++i) {
    const int fd = serve::connect_unix_client(path, 10.0);
    if (i % 3 == 1) {
      // Half a line, then gone.
      ASSERT_TRUE(serve::send_all(fd, "{\"op\":\"pi", 9));
    } else if (i % 3 == 2) {
      // A torn PBIN hello, then gone.
      const std::string hello = serve::encode_hello(serve::kBinProtoVersion);
      ASSERT_TRUE(serve::send_all(fd, hello.data(), 3));
    }
    ::close(fd);
  }

  serve::Client client(path);
  const std::string pong = client.request(R"({"op":"ping","id":1})");
  EXPECT_NE(pong.find("\"ok\":true"), std::string::npos) << pong;
  (void)client.request(R"({"op":"shutdown","id":2})");
  server_thread.join();
}

// A client that streams bytes with no '\n' past kMaxFramePayload is cut
// off: the server does not buffer it without bound, and every other
// connection is still answered.
TEST(Transport, OverlongLineDropsOnlyItsConnection) {
  const std::string path = testing::TempDir() + "serve_overlong.sock";
  serve::ProtocolHandler handler(server_config(1, 4, 16));
  std::thread server_thread(  // lint: thread-ok
      [&handler, &path] { serve::serve_unix_socket(handler, path); });

  serve::Client client(path);
  EXPECT_NE(client.request(R"({"op":"ping","id":1})").find("\"ok\":true"),
            std::string::npos);
  const int fd = serve::connect_unix_client(path, 10.0);
  const std::string chunk(std::size_t{1} << 20, 'x');
  // One chunk past the cap; the sends that follow the drop fail.
  for (std::size_t fed = 0; fed <= serve::kMaxFramePayload;
       fed += chunk.size()) {
    if (!serve::send_all(fd, chunk.data(), chunk.size())) break;
  }
  bool dropped = false;
  const double deadline = obs::monotonic_seconds() + 10.0;
  while (!dropped && obs::monotonic_seconds() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) > 0) {
      char c = 0;
      dropped = ::recv(fd, &c, 1, 0) <= 0;
    }
  }
  ::close(fd);
  EXPECT_TRUE(dropped) << "an overlong line must close its connection";

  EXPECT_NE(client.request(R"({"op":"ping","id":2})").find("\"ok\":true"),
            std::string::npos);
  (void)client.request(R"({"op":"shutdown","id":3})");
  server_thread.join();
}

// An NDJSON request line torn across send() calls — including a split
// inside a UTF-8-less but multi-byte token like a number — must be
// reassembled by the server's line buffer.
TEST(Transport, NdjsonLineTornAcrossSends) {
  const std::string path = testing::TempDir() + "serve_torn_line.sock";
  serve::ProtocolHandler handler(server_config(1, 4, 16));
  std::thread server_thread(  // lint: thread-ok
      [&handler, &path] { serve::serve_unix_socket(handler, path); });

  const int fd = serve::connect_unix_client(path, 10.0);
  const std::string line = "{\"op\":\"ping\",\"id\":12345}\n";
  auto read_line = [fd] {
    std::string out;
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1) {
      if (c == '\n') break;
      out.push_back(c);
    }
    return out;
  };
  // Tear the request at every byte offset; each split must still parse
  // to exactly one response.
  for (std::size_t cut = 1; cut < line.size(); ++cut) {
    ASSERT_TRUE(serve::send_all(fd, line.data(), cut));
    timespec ts{0, 2'000'000};  // 2ms: let the first half land alone
    nanosleep(&ts, nullptr);
    ASSERT_TRUE(serve::send_all(fd, line.data() + cut, line.size() - cut));
    const std::string resp = read_line();
    EXPECT_NE(resp.find("\"id\":12345"), std::string::npos)
        << "cut at " << cut << ": " << resp;
    EXPECT_NE(resp.find("\"ok\":true"), std::string::npos)
        << "cut at " << cut << ": " << resp;
  }
  // Two requests in one send() burst answer twice.
  const std::string two = line + line;
  ASSERT_TRUE(serve::send_all(fd, two.data(), two.size()));
  EXPECT_NE(read_line().find("\"ok\":true"), std::string::npos);
  EXPECT_NE(read_line().find("\"ok\":true"), std::string::npos);
  ::close(fd);

  serve::Client client(path);
  (void)client.request(R"({"op":"shutdown","id":99})");
  server_thread.join();
}

// A PBIN frame torn at every byte offset — through the 4-byte length
// prefix and through the payload — over a real socket. The hello itself
// is also split.
TEST(Transport, BinaryFrameTornAtEveryOffset) {
  const std::string path = testing::TempDir() + "serve_torn_frame.sock";
  serve::ProtocolHandler handler(server_config(1, 4, 16));
  std::thread server_thread(  // lint: thread-ok
      [&handler, &path] { serve::serve_unix_socket(handler, path); });

  const int fd = serve::connect_unix_client(path, 10.0);
  const std::string hello = serve::encode_hello(serve::kBinProtoVersion);
  // Hello split 5/3 across sends.
  ASSERT_TRUE(serve::send_all(fd, hello.data(), 5));
  timespec ts{0, 2'000'000};
  nanosleep(&ts, nullptr);
  ASSERT_TRUE(serve::send_all(fd, hello.data() + 5, hello.size() - 5));
  std::string answer(serve::kBinHelloSize, '\0');
  std::size_t got = 0;
  while (got < answer.size()) {
    const auto n = ::recv(fd, answer.data() + got, answer.size() - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  ASSERT_EQ(serve::decode_hello(answer), serve::kBinProtoVersion);

  serve::FrameBuffer responses;
  auto read_response = [fd, &responses] {
    std::string payload;
    char chunk[256];
    while (!responses.next(payload)) {
      const auto n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("connection died");
      responses.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    }
    return payload;
  };
  std::uint64_t rid = 1;
  for (std::size_t cut = 1; cut < 12; ++cut) {
    const std::string framed = serve::frame(
        serve::encode_frame({.op = serve::BinOp::kPing, .rid = rid}));
    ASSERT_LT(cut, framed.size());
    ASSERT_TRUE(serve::send_all(fd, framed.data(), cut));
    nanosleep(&ts, nullptr);
    ASSERT_TRUE(
        serve::send_all(fd, framed.data() + cut, framed.size() - cut));
    const serve::BinResponse r =
        serve::parse_bin_response(read_response());
    EXPECT_EQ(r.status, serve::BinStatus::kOk) << "cut at " << cut;
    EXPECT_EQ(r.rid, rid) << "cut at " << cut;
    ++rid;
  }
  // One byte per send through an entire open request.
  const std::string framed =
      serve::frame(serve::bin_open(rid, "equi", 2, 1.0, 0));
  for (const char c : framed) {
    ASSERT_TRUE(serve::send_all(fd, &c, 1));
  }
  const serve::BinResponse opened =
      serve::parse_bin_response(read_response());
  EXPECT_EQ(opened.status, serve::BinStatus::kOk);
  EXPECT_GT(opened.session, 0u);

  const std::string bye = serve::frame(
      serve::encode_frame({.op = serve::BinOp::kShutdown, .rid = rid + 1}));
  ASSERT_TRUE(serve::send_all(fd, bye.data(), bye.size()));
  (void)read_response();
  ::close(fd);
  server_thread.join();
}

}  // namespace
}  // namespace parsched
