// serve/cluster — the sharded serving plane, PBIN, and load shapes.
//
// The anchor here is the migration differential: a session live-migrated
// between shards mid-run must produce responses and snapshots that are
// BYTE-identical to an unmigrated run — under the NDJSON protocol and
// under PBIN. Everything a client can observe (query doubles, finish
// records, re-exported PSNP blobs) is compared as raw bytes, not with
// tolerances.
//
// Around it: consistent-hash ring pins and the only-remapped-keys
// property, the Zipf/burst/diurnal generators pinned with golden seeded
// vectors (they claim cross-platform bit-determinism — sqrt and
// arithmetic only, no libm pow), PBIN frame reassembly torn at every
// byte offset, hello version negotiation, cluster-wide caps, evacuation,
// and the merged metrics namespace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <future>
#include <memory>
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
#include "serve/shapes.hpp"
#include "serve/transport.hpp"
#include "simcore/engine.hpp"
#include "simcore/instance.hpp"
#include "speedup/curve.hpp"

namespace parsched {
namespace {

void tiny_sleep() {
  timespec ts{0, 1'000'000};  // 1ms
  nanosleep(&ts, nullptr);
}

// One strict request/response against the handler; blocks until the
// (possibly strand-deferred) response arrives.
std::string request(serve::ProtocolHandler& h, const std::string& line) {
  auto p = std::make_shared<std::promise<std::string>>();
  auto f = p->get_future();
  h.handle_line(line, [p](const std::string& s) { p->set_value(s); });
  return f.get();
}

// Retry through backpressure (a migration's kDraining window).
std::string request_retry(serve::ProtocolHandler& h,
                          const std::string& line) {
  for (int i = 0; i < 10000; ++i) {
    std::string r = request(h, line);
    if (r.find("\"reject\"") == std::string::npos) return r;
    tiny_sleep();
  }
  throw std::runtime_error("request never accepted: " + line);
}

std::string frame_request(serve::ProtocolHandler& h,
                          const std::string& payload) {
  auto p = std::make_shared<std::promise<std::string>>();
  auto f = p->get_future();
  h.handle_frame(payload, [p](const std::string& s) { p->set_value(s); });
  return f.get();
}

std::string frame_request_retry(serve::ProtocolHandler& h,
                                const std::string& payload) {
  for (int i = 0; i < 10000; ++i) {
    std::string r = frame_request(h, payload);
    if (serve::parse_bin_response(r).status != serve::BinStatus::kReject) {
      return r;
    }
    tiny_sleep();
  }
  throw std::runtime_error("frame never accepted");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

serve::Cluster::Config cluster_config(int shards, std::size_t sessions = 64,
                                      std::size_t queue = 128,
                                      obs::MetricsRegistry* reg = nullptr) {
  serve::Cluster::Config cfg;
  cfg.shards = shards;
  cfg.threads_per_shard = 1;
  cfg.max_sessions = sessions;
  cfg.max_queue = queue;
  cfg.metrics = reg;
  return cfg;
}

// --------------------------------------------------- consistent hashing

// The ring is wire-adjacent state: clients (loadgen's burst shape)
// compute placement offline, so the hash must never drift. Golden pins.
TEST(Ring, ConsistentShardGoldenPins) {
  const int four[16] = {1, 1, 2, 0, 1, 2, 1, 3, 1, 2, 2, 1, 3, 0, 1, 0};
  for (std::uint64_t k = 1; k <= 16; ++k) {
    EXPECT_EQ(serve::consistent_shard(k, 4), four[k - 1]) << "key " << k;
  }
  const int eight[8] = {1, 7, 6, 5, 4, 2, 4, 3};
  for (std::uint64_t k = 1; k <= 8; ++k) {
    EXPECT_EQ(serve::consistent_shard(k, 8), eight[k - 1]) << "key " << k;
  }
}

TEST(Ring, BuildRingIsSortedWithVirtualNodes) {
  const auto ring = serve::build_ring(4);
  EXPECT_EQ(ring.size(), 4u * serve::kVirtualNodes);
  EXPECT_TRUE(std::is_sorted(
      ring.begin(), ring.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  // ring_lookup over the full ring IS consistent_shard.
  for (std::uint64_t k = 1; k <= 64; ++k) {
    EXPECT_EQ(serve::ring_lookup(ring, k), serve::consistent_shard(k, 4));
  }
  // Every shard owns at least one arc.
  for (int target = 0; target < 4; ++target) {
    bool owns = false;
    for (std::uint64_t k = 1; k <= 4096 && !owns; ++k) {
      owns = serve::consistent_shard(k, 4) == target;
    }
    EXPECT_TRUE(owns) << "shard " << target << " owns no keys";
  }
}

// The property that makes evacuation cheap: dropping a shard from the
// ring remaps ONLY the keys that lived on it.
TEST(Ring, RemovingAShardOnlyRemapsItsKeys) {
  const auto full = serve::build_ring(4);
  const auto without2 = serve::build_ring(4, {2});
  int remapped = 0;
  for (std::uint64_t k = 1; k <= 2048; ++k) {
    const int before = serve::ring_lookup(full, k);
    const int after = serve::ring_lookup(without2, k);
    if (before == 2) {
      EXPECT_NE(after, 2) << "key " << k << " stayed on the dead shard";
      ++remapped;
    } else {
      EXPECT_EQ(after, before) << "key " << k << " moved needlessly";
    }
  }
  EXPECT_GT(remapped, 0);
}

// ------------------------------------------------------------- shapes

TEST(Shapes, HalfStepPowIsExactOnHalfExponents) {
  EXPECT_EQ(serve::half_step_pow(2.0, 0.0), 1.0);
  EXPECT_EQ(serve::half_step_pow(2.0, 1.0), 2.0);
  EXPECT_EQ(serve::half_step_pow(2.0, 2.0), 4.0);
  EXPECT_EQ(serve::half_step_pow(4.0, 0.5), 2.0);
  EXPECT_EQ(serve::half_step_pow(9.0, 1.5), 27.0);
  EXPECT_THROW((void)serve::half_step_pow(2.0, 0.3), std::invalid_argument);
  EXPECT_THROW((void)serve::half_step_pow(2.0, -0.5),
               std::invalid_argument);
  EXPECT_THROW((void)serve::half_step_pow(-1.0, 1.0),
               std::invalid_argument);
}

// Golden seeded vector, like the splitmix pins in test_exec.cpp: the
// zipf sampler feeds the soak workload, so its draws are part of the
// reproducibility contract.
TEST(Shapes, ZipfSamplerGoldenSeededVector) {
  serve::ZipfSampler z(8, 1.0);
  EXPECT_EQ(z.weight(0), 0.36793692509855458);
  EXPECT_EQ(z.weight(7), 0.045992115637319309);
  double sum = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    sum += z.weight(i);
    if (i > 0) {
      EXPECT_LT(z.weight(i), z.weight(i - 1));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);

  std::uint64_t state = 42;  // splitmix64, the loadgen generator
  auto next_unit = [&state] {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t x = state;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<double>((x ^ (x >> 31)) >> 11) * 0x1.0p-53;
  };
  const std::size_t want[16] = {3, 0, 0, 0, 0, 5, 0, 4,
                                0, 2, 0, 1, 1, 1, 2, 0};
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(z.sample(next_unit()), want[i]) << "draw " << i;
  }
  // Inverse CDF edges.
  EXPECT_EQ(z.sample(0.0), 0u);
  EXPECT_EQ(z.sample(0.9999999), 7u);
}

TEST(Shapes, ZipfAdmissionCountsPinnedAndExact) {
  const std::vector<int> heavy =
      serve::zipf_admission_counts(8, 320, 1.0);
  EXPECT_EQ(heavy, (std::vector<int>{118, 59, 39, 29, 23, 20, 17, 15}));

  const std::vector<int> tiny = serve::zipf_admission_counts(5, 7, 0.5);
  EXPECT_EQ(tiny, (std::vector<int>{2, 2, 1, 1, 1}));

  // theta = 0 degenerates to uniform.
  EXPECT_EQ(serve::zipf_admission_counts(4, 8, 0.0),
            (std::vector<int>{2, 2, 2, 2}));

  // Exact totals and a served tail, even with a brutal skew.
  const std::vector<int> skewed =
      serve::zipf_admission_counts(32, 64, 2.0);
  int total = 0;
  for (const int c : skewed) {
    EXPECT_GE(c, 1) << "a session with zero jobs never runs its strand";
    total += c;
  }
  EXPECT_EQ(total, 64);
}

TEST(Shapes, BurstKeysCollapseOntoOneShard) {
  // key_for_shard golden pins over a 4-shard ring.
  EXPECT_EQ(serve::key_for_shard(0, 4), 4u);
  EXPECT_EQ(serve::key_for_shard(1, 4), 1u);
  EXPECT_EQ(serve::key_for_shard(2, 4), 3u);
  EXPECT_EQ(serve::key_for_shard(3, 4), 8u);
  for (int target = 0; target < 4; ++target) {
    const std::uint64_t key = serve::key_for_shard(target, 4);
    EXPECT_EQ(serve::consistent_shard(key, 4), target);
  }
  // Volley releases: per_burst jobs share an instant.
  EXPECT_EQ(serve::burst_release(0, 4, 2.0), 0.0);
  EXPECT_EQ(serve::burst_release(3, 4, 2.0), 0.0);
  EXPECT_EQ(serve::burst_release(4, 4, 2.0), 2.0);
  EXPECT_EQ(serve::burst_release(11, 4, 2.0), 4.0);
  EXPECT_THROW((void)serve::burst_release(0, 0, 1.0),
               std::invalid_argument);
}

TEST(Shapes, DiurnalReleasesPinnedMonotoneAndSymmetric) {
  // Golden vector (8 arrivals over T=8, peak ratio 4). Bit-exact: the
  // inversion uses only +,-,*,/ and sqrt.
  const double want[8] = {
      0.92744332770842275, 2.0985433803290001, 2.9613662422417089,
      3.6777654594576359,  4.3222345405423646, 5.0386337577582907,
      5.9014566196710003,  7.0725566722915776};
  for (int j = 0; j < 8; ++j) {
    EXPECT_EQ(serve::diurnal_release(j, 8, 8.0, 4.0), want[j]) << j;
  }
  for (int j = 1; j < 8; ++j) {
    EXPECT_LT(want[j - 1], want[j]);
  }
  // The ramp is a mirror image around T/2.
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(want[j] + want[7 - j], 8.0, 1e-12);
  }
  // peak == 1 is exactly uniform.
  for (int j = 0; j < 10; ++j) {
    EXPECT_EQ(serve::diurnal_release(j, 10, 10.0, 1.0),
              (static_cast<double>(j) + 0.5));
  }
  EXPECT_THROW((void)serve::diurnal_release(0, 4, 0.0, 2.0),
               std::invalid_argument);
  EXPECT_THROW((void)serve::diurnal_release(0, 4, 1.0, 0.5),
               std::invalid_argument);
}

TEST(Shapes, ParseLoadShapeRoundTrips) {
  for (const auto shape :
       {serve::LoadShape::kUniform, serve::LoadShape::kZipf,
        serve::LoadShape::kBurst, serve::LoadShape::kDiurnal}) {
    EXPECT_EQ(serve::parse_load_shape(serve::load_shape_name(shape)),
              shape);
  }
  EXPECT_THROW((void)serve::parse_load_shape("sawtooth"),
               std::invalid_argument);
}

// ------------------------------------------------------ PBIN framing

TEST(BinProto, HelloRoundTripAndRejection) {
  const std::string hello = serve::encode_hello(serve::kBinProtoVersion);
  EXPECT_EQ(hello.size(), serve::kBinHelloSize);
  EXPECT_EQ(serve::decode_hello(hello), serve::kBinProtoVersion);
  EXPECT_EQ(serve::decode_hello(serve::encode_hello(0)), 0u);
  std::string bad = hello;
  bad[0] = 'Q';
  EXPECT_THROW((void)serve::decode_hello(bad), std::invalid_argument);
  EXPECT_THROW((void)serve::decode_hello("PBIN"), std::invalid_argument);
}

// A frame may arrive torn anywhere — header split mid-length-prefix,
// body split mid-double. Reassembly must be offset-oblivious.
TEST(BinProto, FrameBufferReassemblesTornFramesAtEveryOffset) {
  const std::vector<std::string> payloads = {
      "x", std::string(300, 'y'), "",
      serve::encode_frame({.op = serve::BinOp::kPing, .rid = 7})};
  std::string stream;
  for (const std::string& p : payloads) stream += serve::frame(p);

  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    serve::FrameBuffer buf;
    buf.feed(std::string_view(stream).substr(0, cut));
    std::vector<std::string> got;
    std::string payload;
    while (buf.next(payload)) got.push_back(payload);
    buf.feed(std::string_view(stream).substr(cut));
    while (buf.next(payload)) got.push_back(payload);
    ASSERT_EQ(got.size(), payloads.size()) << "cut at " << cut;
    EXPECT_EQ(got, payloads) << "cut at " << cut;
  }

  // Worst case: one byte per feed.
  serve::FrameBuffer drip;
  std::vector<std::string> got;
  for (const char c : stream) {
    drip.feed(std::string_view(&c, 1));
    std::string payload;
    while (drip.next(payload)) got.push_back(payload);
  }
  EXPECT_EQ(got, payloads);
}

TEST(BinProto, FrameBufferRejectsOversizedLength) {
  serve::FrameBuffer buf;
  const std::uint32_t huge = serve::kMaxFramePayload + 1;
  char header[4];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  buf.feed(std::string_view(header, 4));
  std::string payload;
  EXPECT_THROW((void)buf.next(payload), std::invalid_argument);
}

// The line wire tears the same way: a line split anywhere, and empty
// lines between requests, which are skipped.
TEST(BinProto, FrameBufferReassemblesTornLinesAtEveryOffset) {
  const serve::FrameBuffer wire(serve::Wire::kLine);
  const std::vector<std::string> payloads = {
      "x", std::string(300, 'y'), R"({"op":"ping","id":7})"};
  std::string stream = "\n";
  for (const std::string& p : payloads) stream += wire.wrap(p) + "\n";
  ASSERT_EQ(stream, "\nx\n\n" + payloads[1] + "\n\n" + payloads[2] + "\n\n");

  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    serve::FrameBuffer buf(serve::Wire::kLine);
    buf.feed(std::string_view(stream).substr(0, cut));
    std::vector<std::string> got;
    std::string payload;
    while (buf.next(payload)) got.push_back(payload);
    buf.feed(std::string_view(stream).substr(cut));
    while (buf.next(payload)) got.push_back(payload);
    EXPECT_EQ(got, payloads) << "cut at " << cut;
  }

  serve::FrameBuffer drip(serve::Wire::kLine);
  std::vector<std::string> got;
  for (const char c : stream) {
    drip.feed(std::string_view(&c, 1));
    std::string payload;
    while (drip.next(payload)) got.push_back(payload);
  }
  EXPECT_EQ(got, payloads);
}

// A line is capped like a frame: kMaxFramePayload bytes without a '\n'
// still wait for the rest, one more is corruption, whatever the chunks.
TEST(BinProto, FrameBufferRejectsALineOverTheCap) {
  const std::string chunk(std::size_t{1} << 20, 'x');
  std::string payload;
  {
    serve::FrameBuffer at_cap(serve::Wire::kLine);
    for (std::size_t fed = 0; fed < serve::kMaxFramePayload;
         fed += chunk.size()) {
      at_cap.feed(chunk);
      ASSERT_FALSE(at_cap.next(payload));
    }
    at_cap.feed("\n");
    ASSERT_TRUE(at_cap.next(payload));
    EXPECT_EQ(payload.size(), std::size_t{serve::kMaxFramePayload});
  }
  serve::FrameBuffer over(serve::Wire::kLine);
  for (std::size_t fed = 0; fed < serve::kMaxFramePayload;
       fed += chunk.size()) {
    over.feed(chunk);
    ASSERT_FALSE(over.next(payload));
  }
  over.feed("x");
  EXPECT_THROW((void)over.next(payload), std::invalid_argument);
}

// --------------------------------------------------- cluster routing

TEST(Cluster, RoutesByKeyAndCountsSessions) {
  serve::Cluster cluster(cluster_config(4));
  serve::Session::Config scfg;
  scfg.machines = 2;
  std::vector<serve::SessionId> ids;
  for (std::uint64_t key = 1; key <= 12; ++key) {
    serve::SessionId id = 0;
    int shard = -1;
    ASSERT_EQ(cluster.open(scfg, id, key, &shard),
              serve::Submit::kAccepted);
    EXPECT_EQ(shard, serve::consistent_shard(key, 4)) << "key " << key;
    EXPECT_EQ(cluster.shard_of(id), shard);
    ids.push_back(id);
  }
  EXPECT_EQ(cluster.session_count(), 12u);
  std::size_t across = 0;
  for (int s = 0; s < cluster.shards(); ++s) {
    across += cluster.session_count(s);
  }
  EXPECT_EQ(across, 12u);

  for (const serve::SessionId id : ids) {
    EXPECT_EQ(cluster.close(id), serve::Submit::kAccepted);
  }
  EXPECT_EQ(cluster.session_count(), 0u);
  EXPECT_EQ(cluster.close(ids[0]), serve::Submit::kUnknownSession);
  EXPECT_EQ(cluster.submit(ids[0], [](serve::Session&) {}),
            serve::Submit::kUnknownSession);
}

TEST(Cluster, EnforcesClusterWideSessionCap) {
  serve::Cluster cluster(cluster_config(4, /*sessions=*/2));
  serve::Session::Config scfg;
  serve::SessionId a = 0;
  serve::SessionId b = 0;
  serve::SessionId c = 0;
  EXPECT_EQ(cluster.open(scfg, a), serve::Submit::kAccepted);
  EXPECT_EQ(cluster.open(scfg, b), serve::Submit::kAccepted);
  EXPECT_EQ(cluster.open(scfg, c), serve::Submit::kSessionCap);
  EXPECT_EQ(cluster.close(a), serve::Submit::kAccepted);
  EXPECT_EQ(cluster.open(scfg, c), serve::Submit::kAccepted);
}

TEST(Cluster, MigrateValidatesTarget) {
  serve::Cluster cluster(cluster_config(2));
  serve::Session::Config scfg;
  serve::SessionId id = 0;
  ASSERT_EQ(cluster.open(scfg, id), serve::Submit::kAccepted);
  EXPECT_THROW((void)cluster.migrate(id, 7), std::invalid_argument);
  EXPECT_THROW((void)cluster.migrate(id, -1), std::invalid_argument);
  EXPECT_EQ(cluster.migrate(999, 1), serve::Submit::kUnknownSession);
  // Same-shard migration is an accepted no-op.
  EXPECT_EQ(cluster.migrate(id, cluster.shard_of(id)),
            serve::Submit::kAccepted);
}

TEST(Cluster, EvacuateMovesEverySessionOffTheShard) {
  serve::Cluster cluster(cluster_config(4, 32));
  serve::Session::Config scfg;
  scfg.machines = 2;
  std::vector<serve::SessionId> ids;
  for (std::uint64_t key = 1; key <= 16; ++key) {
    serve::SessionId id = 0;
    ASSERT_EQ(cluster.open(scfg, id, key), serve::Submit::kAccepted);
    // Give every session state worth carrying.
    ASSERT_EQ(cluster.submit(id,
                             [key](serve::Session& s) {
                               Job j;
                               j.id = 0;
                               j.release = 0.0;
                               j.size = static_cast<double>(key);
                               j.curve = SpeedupCurve::power_law(0.5);
                               s.admit(j);
                             }),
              serve::Submit::kAccepted);
    ids.push_back(id);
  }
  const std::size_t on_victim = cluster.session_count(1);
  EXPECT_GT(on_victim, 0u);

  const int moved = cluster.evacuate(1);
  EXPECT_EQ(static_cast<std::size_t>(moved), on_victim);
  EXPECT_FALSE(cluster.shard_in_ring(1));
  EXPECT_EQ(cluster.session_count(1), 0u);
  EXPECT_EQ(cluster.session_count(), 16u) << "no session may be lost";

  // Every session still serves, and each landed where the thinned ring
  // says its key now lives.
  const auto ring = serve::build_ring(4, {1});
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(cluster.shard_of(ids[i]),
              serve::ring_lookup(ring, static_cast<std::uint64_t>(i + 1)));
    EXPECT_EQ(cluster.submit(ids[i], [](serve::Session&) {}),
              serve::Submit::kAccepted);
  }

  // Idempotent; the last in-ring shard is not evacuable.
  EXPECT_EQ(cluster.evacuate(1), 0);
  EXPECT_THROW((void)cluster.evacuate(9), std::invalid_argument);
  (void)cluster.evacuate(0);
  (void)cluster.evacuate(2);
  EXPECT_THROW((void)cluster.evacuate(3), std::invalid_argument);
}

TEST(Cluster, MergedSnapshotNamespacesShardsAndAggregates) {
  obs::MetricsRegistry reg;
  serve::Cluster cluster(cluster_config(2, 64, 128, &reg));
  serve::Session::Config scfg;
  for (std::uint64_t key = 1; key <= 6; ++key) {
    serve::SessionId id = 0;
    ASSERT_EQ(cluster.open(scfg, id, key), serve::Submit::kAccepted);
  }
  const obs::MetricsSnapshot snap = cluster.merged_snapshot();

  const auto* cluster_opened = snap.find("serve.cluster.sessions.opened");
  ASSERT_NE(cluster_opened, nullptr);
  EXPECT_EQ(cluster_opened->value, 6.0);

  // The aggregate keeps the plain Server names (sum over shards)...
  const auto* opened = snap.find("serve.sessions.opened");
  ASSERT_NE(opened, nullptr);
  EXPECT_EQ(opened->value, 6.0);

  // ...and the per-shard bands carry the shard prefix.
  double per_shard = 0.0;
  for (int s = 0; s < 2; ++s) {
    const auto* shard_opened = snap.find(
        "serve.shard" + std::to_string(s) + ".sessions.opened");
    ASSERT_NE(shard_opened, nullptr) << "shard " << s;
    per_shard += shard_opened->value;
  }
  EXPECT_EQ(per_shard, 6.0);

  EXPECT_TRUE(std::is_sorted(snap.samples.begin(), snap.samples.end(),
                             [](const auto& a, const auto& b) {
                               return a.name < b.name;
                             }));
}

// ------------------------------------- the migration differential

// Drive the same deterministic session twice through the NDJSON
// protocol — once flat, once live-migrated across two shards mid-run —
// and demand byte-identical query/finish responses AND a byte-identical
// re-exported snapshot. This is the tentpole guarantee: migration is
// invisible at the wire.
std::vector<std::string> drive_ndjson(bool migrate,
                                      const std::string& snap_path) {
  serve::ProtocolHandler h(
      serve::Cluster::Config{4, 1, 16, 64, nullptr, nullptr});
  std::vector<std::string> observable;

  const std::string opened = request(
      h, R"({"op":"open","id":1,"policy":"isrpt","machines":3,"key":5})");
  observable.push_back(opened);
  obs::JsonValue ov;
  std::string err;
  EXPECT_TRUE(obs::json_parse(opened, ov, &err));
  const auto sid =
      static_cast<std::uint64_t>(ov.number_or("session", 0.0));
  const int shard = static_cast<int>(ov.number_or("shard", -1.0));
  EXPECT_EQ(shard, serve::consistent_shard(5, 4));

  std::uint64_t rng = 77;
  auto next_unit = [&rng] {
    rng += 0x9E3779B97F4A7C15ULL;
    std::uint64_t x = rng;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<double>((x ^ (x >> 31)) >> 11) * 0x1.0p-53;
  };
  for (int i = 0; i < 24; ++i) {
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("op", "admit");
    w.kv("id", 100 + i);
    w.kv("session", sid);
    w.key("job");
    w.begin_object();
    w.kv("id", i);
    w.kv("release", static_cast<double>(i) * 0.25);
    w.kv("size", 0.5 + 2.0 * next_unit());
    w.kv("curve", "pow:" + obs::json_number(0.25 + 0.5 * next_unit()));
    w.end_object();
    w.end_object();
    observable.push_back(request_retry(h, os.str()));
    if (i == 11 && migrate) {
      const int target = (shard + 2) % 4;
      const std::string resp = request(
          h, std::string(R"({"op":"migrate","id":900,"session":)") +
                 std::to_string(sid) + R"(,"shard":)" +
                 std::to_string(target) + "}");
      EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
    }
  }
  observable.push_back(request_retry(
      h, std::string(R"({"op":"advance","id":300,"session":)") +
             std::to_string(sid) + R"(,"to":4.5})"));
  observable.push_back(request_retry(
      h, std::string(R"({"op":"query","id":301,"session":)") +
             std::to_string(sid) + "}"));
  observable.push_back(request_retry(
      h, std::string(R"({"op":"snapshot","id":302,"session":)") +
             std::to_string(sid) + R"(,"path":")" + snap_path + R"("})"));
  observable.push_back(request_retry(
      h, std::string(R"({"op":"finish","id":303,"session":)") +
             std::to_string(sid) + "}"));
  observable.push_back(request_retry(
      h, std::string(R"({"op":"close","id":304,"session":)") +
             std::to_string(sid) + "}"));
  h.drain();
  return observable;
}

TEST(Migration, DifferentialNdjsonIsByteIdentical) {
  const std::string flat_snap = testing::TempDir() + "mig_flat.psnp";
  const std::string moved_snap = testing::TempDir() + "mig_moved.psnp";
  const std::vector<std::string> flat = drive_ndjson(false, flat_snap);
  const std::vector<std::string> moved = drive_ndjson(true, moved_snap);

  ASSERT_EQ(flat.size(), moved.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i], moved[i]) << "response " << i << " diverged";
  }
  const std::string a = slurp(flat_snap);
  const std::string b = slurp(moved_snap);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "post-migration snapshot blob diverged";
}

// Same differential over PBIN: raw IEEE-754 doubles on the wire, so
// equality here is equality of every bit the engine produced.
std::vector<std::string> drive_pbin(bool migrate,
                                    const std::string& snap_path) {
  serve::ProtocolHandler h(
      serve::Cluster::Config{4, 1, 16, 64, nullptr, nullptr});
  std::vector<std::string> observable;

  const std::string opened =
      frame_request(h, serve::bin_open(1, "isrpt", 3, 1.0, 5));
  observable.push_back(opened);
  const serve::BinResponse ov = serve::parse_bin_response(opened);
  EXPECT_EQ(ov.status, serve::BinStatus::kOk);
  const std::uint64_t sid = ov.session;
  const int shard = ov.shard;
  EXPECT_EQ(shard, serve::consistent_shard(5, 4));

  std::uint64_t rng = 77;
  auto next_unit = [&rng] {
    rng += 0x9E3779B97F4A7C15ULL;
    std::uint64_t x = rng;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<double>((x ^ (x >> 31)) >> 11) * 0x1.0p-53;
  };
  for (int i = 0; i < 24; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.release = static_cast<double>(i) * 0.25;
    j.size = 0.5 + 2.0 * next_unit();
    j.curve = SpeedupCurve::power_law(0.25 + 0.5 * next_unit());
    observable.push_back(frame_request_retry(
        h, serve::bin_admit(static_cast<std::uint64_t>(100 + i), sid, j)));
    if (i == 11 && migrate) {
      const serve::BinResponse resp = serve::parse_bin_response(
          frame_request(h, serve::encode_frame({.op = serve::BinOp::kMigrate,
                                                .rid = 900,
                                                .session = sid,
                                                .shard = (shard + 2) % 4})));
      EXPECT_EQ(resp.status, serve::BinStatus::kOk);
    }
  }
  observable.push_back(
      frame_request_retry(h, serve::bin_advance(300, sid, 4.5)));
  observable.push_back(frame_request_retry(
      h, serve::encode_frame(
             {.op = serve::BinOp::kQuery, .rid = 301, .session = sid})));
  observable.push_back(frame_request_retry(
      h, serve::encode_frame({.op = serve::BinOp::kSnapshot,
                              .rid = 302,
                              .session = sid,
                              .path = snap_path})));
  observable.push_back(frame_request_retry(h, serve::bin_finish(303, sid)));
  observable.push_back(frame_request_retry(h, serve::bin_close(304, sid)));
  h.drain();
  return observable;
}

TEST(Migration, DifferentialPbinIsByteIdentical) {
  const std::string flat_snap = testing::TempDir() + "mig_flat_bin.psnp";
  const std::string moved_snap = testing::TempDir() + "mig_moved_bin.psnp";
  const std::vector<std::string> flat = drive_pbin(false, flat_snap);
  const std::vector<std::string> moved = drive_pbin(true, moved_snap);

  ASSERT_EQ(flat.size(), moved.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i], moved[i]) << "frame " << i << " diverged";
  }
  const std::string a = slurp(flat_snap);
  const std::string b = slurp(moved_snap);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "post-migration snapshot blob diverged";

  // And the two wires agree with each other on the session's results:
  // parse the finish frames and compare the exact doubles.
  const serve::BinResponse fin =
      serve::parse_bin_response(flat[flat.size() - 2]);
  EXPECT_EQ(fin.status, serve::BinStatus::kOk);
  EXPECT_EQ(fin.jobs, 24u);
  EXPECT_EQ(fin.records.size(), 24u);
  EXPECT_GT(fin.total_flow, 0.0);
}

// Migration events must land in the flight recorder ring.
TEST(Migration, RecordsMigrateAndRerouteEvents) {
  obs::FlightRecorder recorder(1024);
  obs::MetricsRegistry reg;
  serve::Cluster::Config cfg = cluster_config(2, 16, 64, &reg);
  cfg.recorder = &recorder;
  serve::Cluster cluster(cfg);
  serve::Session::Config scfg;
  serve::SessionId id = 0;
  ASSERT_EQ(cluster.open(scfg, id, 1), serve::Submit::kAccepted);
  const int source = cluster.shard_of(id);
  const int target = 1 - source;
  ASSERT_EQ(cluster.migrate(id, target), serve::Submit::kAccepted);
  for (int i = 0; i < 5000 && cluster.shard_of(id) != target; ++i) {
    tiny_sleep();
  }
  ASSERT_EQ(cluster.shard_of(id), target);
  // Post-migration traffic on a shard that is not the key's ring
  // placement is a reroute.
  ASSERT_EQ(cluster.submit(id, [](serve::Session&) {}),
            serve::Submit::kAccepted);

  std::ostringstream dump_os;
  recorder.dump_jsonl(dump_os, "test");
  const std::string dump = dump_os.str();
  EXPECT_NE(dump.find("\"ev\": \"migrate\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"ev\": \"reroute\""), std::string::npos) << dump;

  const obs::MetricsSnapshot snap = cluster.merged_snapshot();
  const auto* migrations = snap.find("serve.cluster.migrations");
  ASSERT_NE(migrations, nullptr);
  EXPECT_EQ(migrations->value, 1.0);
  const auto* reroutes = snap.find("serve.cluster.reroutes");
  ASSERT_NE(reroutes, nullptr);
  EXPECT_GE(reroutes->value, 1.0);
}

// ------------------------------------------------- protocol verbs

TEST(ClusterProtocol, ClusterAndEvacuateVerbs) {
  serve::ProtocolHandler h(
      serve::Cluster::Config{3, 1, 32, 64, nullptr, nullptr});
  for (std::uint64_t key = 1; key <= 6; ++key) {
    (void)request(h, std::string(R"({"op":"open","id":1,"policy":"equi",)") +
                         R"("machines":2,"key":)" + std::to_string(key) +
                         "}");
  }
  const std::string info = request(h, R"({"op":"cluster","id":2})");
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::json_parse(info, v, &err)) << info;
  EXPECT_EQ(v.number_or("shards", 0.0), 3.0);
  EXPECT_EQ(v.number_or("sessions", 0.0), 6.0);

  const std::string evac = request(h, R"({"op":"evacuate","id":3,"shard":0})");
  ASSERT_TRUE(obs::json_parse(evac, v, &err)) << evac;
  EXPECT_TRUE(v.bool_or("ok", false)) << evac;

  const std::string after = request(h, R"({"op":"cluster","id":4})");
  EXPECT_NE(after.find("\"in_ring\":[false,true,true]"), std::string::npos)
      << after;
  EXPECT_NE(after.find("\"sessions\":6"), std::string::npos)
      << "evacuation must not lose sessions: " << after;

  // Bad requests answer errors, not silence.
  EXPECT_NE(request(h, R"({"op":"evacuate","id":5})").find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(
      request(h, R"({"op":"migrate","id":6,"session":1})").find("\"ok\":false"),
      std::string::npos);
  h.drain();
}

// --------------------------------------------------- socket plane

TEST(ClusterSocket, PbinClientRoundTrip) {
  const std::string path = testing::TempDir() + "cluster_pbin.sock";
  serve::ProtocolHandler handler(
      serve::Cluster::Config{2, 1, 16, 64, nullptr, nullptr});
  std::thread server_thread(  // lint: thread-ok
      [&handler, &path] { serve::serve_unix_socket(handler, path); });

  {
    serve::Client client(path, 10.0, serve::Wire::kFrame);
    EXPECT_EQ(client.negotiated(), serve::kBinProtoVersion);
    const auto call = [&client](const std::string& payload) {
      return serve::parse_bin_response(client.request(payload));
    };

    serve::BinResponse r =
        call(serve::encode_frame({.op = serve::BinOp::kPing, .rid = 1}));
    EXPECT_EQ(r.status, serve::BinStatus::kOk);
    EXPECT_EQ(r.rid, 1u);

    r = call(serve::bin_open(2, "equi", 2, 1.0, 0));
    ASSERT_EQ(r.status, serve::BinStatus::kOk);
    const std::uint64_t sid = r.session;
    EXPECT_GT(sid, 0u);

    Job j;
    j.id = 0;
    j.release = 0.0;
    j.size = 2.0;
    j.curve = SpeedupCurve::power_law(0.5);
    EXPECT_EQ(call(serve::bin_admit(3, sid, j)).status,
              serve::BinStatus::kOk);
    EXPECT_EQ(call(serve::bin_advance(4, sid, 1.0)).status,
              serve::BinStatus::kOk);

    r = call(serve::encode_frame(
        {.op = serve::BinOp::kQuery, .rid = 5, .session = sid}));
    ASSERT_EQ(r.status, serve::BinStatus::kOk);
    EXPECT_EQ(r.policy, "EQUI");

    r = call(
        serve::encode_frame({.op = serve::BinOp::kCluster, .rid = 6}));
    ASSERT_EQ(r.status, serve::BinStatus::kOk);
    EXPECT_EQ(r.shards, 2);
    EXPECT_EQ(r.sessions, 1u);
    ASSERT_EQ(r.shard_sessions.size(), 2u);
    ASSERT_EQ(r.in_ring.size(), 2u);

    r = call(serve::bin_finish(7, sid));
    ASSERT_EQ(r.status, serve::BinStatus::kOk);
    EXPECT_EQ(r.jobs, 1u);
    ASSERT_EQ(r.records.size(), 1u);
    // Raw IEEE-754 on the wire: the completion must equal the batch
    // engine's double exactly, no decimal round trip in between.
    const SimResult batch =
        simulate(Instance(2, std::vector<Job>{j}), *make_scheduler("equi"));
    ASSERT_EQ(batch.records.size(), 1u);
    EXPECT_EQ(r.records[0].completion, batch.records[0].completion);
    EXPECT_EQ(r.total_flow, batch.total_flow);

    EXPECT_EQ(call(serve::bin_close(8, sid)).status,
              serve::BinStatus::kOk);

    // Unknown session: reject with a retryable verdict, not an error.
    r = call(serve::encode_frame(
        {.op = serve::BinOp::kQuery, .rid = 9, .session = sid}));
    EXPECT_EQ(r.status, serve::BinStatus::kReject);
    EXPECT_EQ(static_cast<serve::Submit>(r.verdict),
              serve::Submit::kUnknownSession);

    EXPECT_EQ(call(serve::encode_frame(
                       {.op = serve::BinOp::kShutdown, .rid = 10}))
                  .status,
              serve::BinStatus::kOk);
  }
  server_thread.join();
}

TEST(ClusterSocket, VersionNegotiationRejectsUnspeakableClient) {
  const std::string path = testing::TempDir() + "cluster_nego.sock";
  serve::ProtocolHandler handler(
      serve::Cluster::Config{1, 1, 8, 32, nullptr, nullptr});
  std::thread server_thread(  // lint: thread-ok
      [&handler, &path] { serve::serve_unix_socket(handler, path); });

  // Version 0 proposes nothing the server can speak: hello answers 0
  // and the connection closes.
  EXPECT_THROW(serve::Client(path, 10.0, serve::Wire::kFrame, 0),
               std::runtime_error);

  // A huge client version negotiates down to the server's.
  {
    serve::Client v9(path, 10.0, serve::Wire::kFrame, 9);
    EXPECT_EQ(v9.negotiated(), serve::kBinProtoVersion);
    EXPECT_EQ(serve::parse_bin_response(v9.request(serve::encode_frame(
                                            {.op = serve::BinOp::kPing,
                                             .rid = 1})))
                  .status,
              serve::BinStatus::kOk);
  }

  // The rejected connection must not have hurt the listener: NDJSON
  // still works on the same socket.
  serve::Client ndjson(path);
  EXPECT_NE(ndjson.request(R"({"op":"ping","id":1})").find("\"ok\":true"),
            std::string::npos);
  (void)ndjson.request(R"({"op":"shutdown","id":2})");
  server_thread.join();
}

// Client::call stamps request ids from its own counter, from 0, on
// either wire; the reply carries each back.
TEST(ClusterSocket, ClientCallStampsRidsOnBothWires) {
  const std::string path = testing::TempDir() + "cluster_rid.sock";
  serve::ProtocolHandler handler(
      serve::Cluster::Config{1, 1, 8, 32, nullptr, nullptr});
  std::thread server_thread(  // lint: thread-ok
      [&handler, &path] { serve::serve_unix_socket(handler, path); });
  {
    serve::Client line(path);
    serve::Client frames(path, 10.0, serve::Wire::kFrame);
    EXPECT_EQ(line.negotiated(), 0u);
    for (std::uint64_t rid = 0; rid < 3; ++rid) {
      for (serve::Client* c : {&line, &frames}) {
        const serve::BinResponse r = c->call({.op = serve::BinOp::kPing});
        EXPECT_EQ(r.status, serve::BinStatus::kOk);
        EXPECT_EQ(r.rid, rid);
      }
    }
    (void)line.call({.op = serve::BinOp::kShutdown});
  }
  server_thread.join();
}

// The loadgen determinism contract across every axis this PR added:
// same totals whatever the worker count, the wire protocol, or the
// shard count serving the fleet.
TEST(ClusterSocket, LoadgenTotalsInvariantAcrossWiresWorkersAndShards) {
  struct Variant {
    int shards;
    int workers;
    bool binary;
  };
  const Variant variants[] = {
      {1, 1, false}, {4, 2, false}, {4, 4, true}, {2, 1, true}};
  std::vector<double> flows;
  std::vector<std::uint64_t> jobs;
  for (const Variant& var : variants) {
    const std::string path = testing::TempDir() + "cluster_lg_" +
                             std::to_string(flows.size()) + ".sock";
    serve::ProtocolHandler handler(serve::Cluster::Config{
        var.shards, 1, 64, 128, nullptr, nullptr});
    std::thread server_thread(  // lint: thread-ok
        [&handler, &path] { serve::serve_unix_socket(handler, path); });
    serve::LoadgenConfig cfg;
    cfg.socket_path = path;
    cfg.sessions = 6;
    cfg.admissions = 30;
    cfg.machines = 2;
    cfg.seed = 9;
    cfg.shape = serve::LoadShape::kZipf;
    cfg.zipf_theta = 1.0;
    cfg.workers = var.workers;
    cfg.binary = var.binary;
    cfg.shutdown_after = true;
    const serve::LoadgenResult r = serve::run_loadgen(cfg);
    server_thread.join();
    ASSERT_EQ(r.errors, 0u);
    EXPECT_EQ(r.shards, var.shards);
    flows.push_back(r.total_flow());
    jobs.push_back(r.jobs_completed());
  }
  for (std::size_t i = 1; i < flows.size(); ++i) {
    EXPECT_EQ(flows[i], flows[0]) << "variant " << i;
    EXPECT_EQ(jobs[i], jobs[0]) << "variant " << i;
  }
  EXPECT_EQ(jobs[0], 6u * 30u);
}

// Burst traffic really does collapse onto one shard: every session of a
// burst fleet lands on the ring position of key 1.
TEST(ClusterSocket, BurstShapeAimsAtOneShard) {
  const std::string path = testing::TempDir() + "cluster_burst.sock";
  obs::MetricsRegistry reg;
  serve::ProtocolHandler handler(
      serve::Cluster::Config{4, 1, 64, 128, &reg, nullptr});
  std::thread server_thread(  // lint: thread-ok
      [&handler, &path] { serve::serve_unix_socket(handler, path); });

  serve::LoadgenConfig cfg;
  cfg.socket_path = path;
  cfg.sessions = 5;
  cfg.admissions = 10;
  cfg.machines = 2;
  cfg.shape = serve::LoadShape::kBurst;
  cfg.workers = 2;
  cfg.shutdown_after = true;
  const serve::LoadgenResult r = serve::run_loadgen(cfg);
  server_thread.join();
  ASSERT_EQ(r.errors, 0u);

  // Only the targeted shard saw sessions.
  const int target = serve::consistent_shard(1, 4);
  const obs::MetricsSnapshot snap = handler.cluster().merged_snapshot();
  for (int s = 0; s < 4; ++s) {
    const auto* opened = snap.find(
        "serve.shard" + std::to_string(s) + ".sessions.opened");
    if (opened == nullptr) {
      EXPECT_NE(s, target);
      continue;
    }
    EXPECT_EQ(opened->value, s == target ? 5.0 : 0.0) << "shard " << s;
  }
}

}  // namespace
}  // namespace parsched
