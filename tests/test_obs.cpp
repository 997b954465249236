// The src/obs subsystem: metrics registry (incl. thread-safety under the
// TSan CI leg), JSON emission + syntax checking, engine RunStats and the
// zero-overhead default path, Chrome-trace / JSONL exporters (golden
// file), and the bench-report schema.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>  // lint: thread-ok

#include "analysis/trace.hpp"
#include "obs/expose.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace_export.hpp"
#include "sched/intermediate_srpt.hpp"
#include "sched/sequential_srpt.hpp"
#include "simcore/engine.hpp"
#include "util/table.hpp"
#include "workload/random.hpp"

namespace parsched {
namespace {

Job make_job(JobId id, double release, double size, double alpha) {
  Job j;
  j.id = id;
  j.release = release;
  j.size = size;
  j.curve = SpeedupCurve::power_law(alpha);
  return j;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ------------------------------------------------------- metrics registry

TEST(Metrics, CounterGaugeTimerHistogramRoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter("c").inc();
  reg.counter("c").inc(4);
  reg.gauge("g").set(2.5);
  reg.timer("t").add(0.125);
  reg.timer("t").add(0.25);
  auto& h = reg.histogram("h", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 4u);
  const auto* c = snap.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->value, 5.0);
  EXPECT_DOUBLE_EQ(snap.find("g")->value, 2.5);
  EXPECT_DOUBLE_EQ(snap.find("t")->value, 0.375);
  EXPECT_EQ(snap.find("t")->count, 2u);
  const obs::HistogramData& hd = snap.find("h")->histogram;
  ASSERT_EQ(hd.counts.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(hd.counts[0], 1u);
  EXPECT_EQ(hd.counts[1], 1u);
  EXPECT_EQ(hd.counts[2], 1u);
  EXPECT_EQ(hd.total, 3u);
  EXPECT_DOUBLE_EQ(hd.sum, 105.5);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(Metrics, LookupIsFindOrCreateAndKindChecked) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("same");
  obs::Counter& b = reg.counter("same");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW((void)reg.gauge("same"), std::logic_error);
  (void)reg.histogram("h", {1.0});
  EXPECT_THROW((void)reg.histogram("h", {2.0}), std::logic_error);
}

TEST(Metrics, ScopedTimerAccumulatesAndNullIsNoop) {
  obs::MetricsRegistry reg;
  {
    obs::ScopedTimer t(&reg.timer("span"));
    obs::ScopedTimer noop(nullptr);
  }
  EXPECT_EQ(reg.timer("span").count(), 1u);
  EXPECT_GE(reg.timer("span").seconds(), 0.0);
}

TEST(Metrics, MonotonicClockAdvances) {
  const double a = obs::monotonic_seconds();
  const double b = obs::monotonic_seconds();
  EXPECT_GE(b, a);
}

// Exercised under -fsanitize=thread in CI: concurrent increments and
// registrations must be race-free and lose no updates.
TEST(Metrics, ThreadSafeUnderConcurrentUse) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;  // lint: thread-ok
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&reg, w] {
      for (int i = 0; i < kIters; ++i) {
        reg.counter("shared").inc();
        reg.histogram("lat", {0.5, 1.0}).observe(0.25 * (w % 3));
        reg.gauge("last").set(static_cast<double>(i));
        reg.timer("work").add(1e-6);
      }
    });
  }
  for (std::thread& t : threads) t.join();  // lint: thread-ok
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.find("shared")->value, kThreads * kIters);
  EXPECT_EQ(snap.find("lat")->histogram.total,
            static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_EQ(snap.find("work")->count,
            static_cast<std::uint64_t>(kThreads * kIters));
}

TEST(Metrics, HistogramDataBucketsInclusiveUpperBounds) {
  obs::HistogramData h({1.0, 2.0});
  h.add(1.0);   // first bucket (inclusive upper bound)
  h.add(1.5);   // second
  h.add(3.0);   // overflow
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5 / 3.0);
}

// ------------------------------------------------- histogram quantiles

TEST(Quantiles, EmptyHistogramReturnsZero) {
  obs::HistogramData h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  const obs::HistogramData::Summary s = h.summary();
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p90, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(Quantiles, SingleBucketInterpolatesFromLowerEdge) {
  obs::HistogramData h({10.0});
  for (int i = 0; i < 4; ++i) h.add(5.0);
  // All mass in [0, 10]: the q-th quantile is linear in q.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(Quantiles, BucketEdgesAndOverflowSaturation) {
  obs::HistogramData h({1.0, 2.0, 4.0});
  h.add(0.5);  // bucket [<=1]
  h.add(1.5);  // bucket (1,2]
  h.add(3.0);  // bucket (2,4]
  h.add(9.0);  // overflow
  // Exactly at a cumulative boundary: 0.25 of the mass sits in the
  // first bucket, so q=0.25 lands on its upper edge.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 4.0);
  // Mass past the last bound saturates at the last bound (the
  // Prometheus convention): no invented upper edge.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.5), 4.0);
}

TEST(Quantiles, NegativeValuesWidenTheFirstBucketEdge) {
  obs::HistogramData h({-1.0, 1.0});
  h.add(-2.0);
  h.add(-1.5);
  // First bucket's lower edge is min(0, bound) = the observations'
  // bucket floor stays below zero instead of clamping to 0.
  EXPECT_LE(h.quantile(0.5), -1.0);
}

TEST(Quantiles, SurviveMergeAcrossRegistries) {
  obs::Histogram a({1.0, 2.0, 4.0});
  obs::Histogram b({1.0, 2.0, 4.0});
  for (int i = 0; i < 50; ++i) a.observe(0.5);
  for (int i = 0; i < 50; ++i) b.observe(3.0);
  a.merge(b.snapshot());
  const obs::HistogramData h = a.snapshot();
  EXPECT_EQ(h.total, 100u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);   // half the mass at <=1
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 3.0);  // midway through (2,4]
  EXPECT_DOUBLE_EQ(a.quantile(0.75), 3.0);  // live-histogram shortcut
}

// Snapshot totals are derived from the bucket counts, so a concurrent
// scrape can never see sum(counts) != total (the torn-read window the
// old separate total_ atomic allowed). Exercised under TSan in CI.
TEST(Quantiles, ConcurrentScrapeSeesConsistentTotals) {
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("lat", {0.5, 1.0, 2.0});
  std::atomic<bool> stop{false};
  std::thread writer([&h, &stop] {  // lint: thread-ok
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      h.observe(0.25 * (i % 12));
    }
  });
  for (int i = 0; i < 200; ++i) {
    const obs::HistogramData d = h.snapshot();
    std::uint64_t sum = 0;
    for (const std::uint64_t c : d.counts) sum += c;
    ASSERT_EQ(sum, d.total);
    (void)d.quantile(0.99);  // must not throw or read out of range
  }
  stop.store(true, std::memory_order_release);
  writer.join();  // lint: thread-ok
}

// ------------------------------------------------- Prometheus exposition

TEST(Exposition, NameSanitization) {
  EXPECT_EQ(obs::exposition_name("serve.request.latency_ms"),
            "parsched_serve_request_latency_ms");
  EXPECT_EQ(obs::exposition_name("weird-name+x"), "parsched_weird_name_x");
}

// Golden exposition for one metric of each kind. Byte-stable: the
// snapshot is name-sorted and numbers go through obs::json_number.
TEST(Exposition, GoldenTextForAllMetricKinds) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("b.depth").set(1.5);
  reg.timer("c.work").add(0.25);
  auto& h = reg.histogram("d.lat", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  const std::string expected =
      "# TYPE parsched_a_count counter\n"
      "parsched_a_count 3\n"
      "# TYPE parsched_b_depth gauge\n"
      "parsched_b_depth 1.5\n"
      "# TYPE parsched_c_work_seconds summary\n"
      "parsched_c_work_seconds_sum 0.25\n"
      "parsched_c_work_seconds_count 1\n"
      "# TYPE parsched_d_lat histogram\n"
      "parsched_d_lat_bucket{le=\"1\"} 1\n"
      "parsched_d_lat_bucket{le=\"2\"} 2\n"
      "parsched_d_lat_bucket{le=\"+Inf\"} 3\n"
      "parsched_d_lat_sum 11\n"
      "parsched_d_lat_count 3\n"
      "parsched_d_lat{quantile=\"0.5\"} 1.5\n"
      "parsched_d_lat{quantile=\"0.9\"} 2\n"
      "parsched_d_lat{quantile=\"0.99\"} 2\n";
  EXPECT_EQ(obs::exposition_text(reg.snapshot()), expected);
}

TEST(Exposition, EmptySnapshotIsEmptyText) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(obs::exposition_text(reg.snapshot()), "");
}

// The serve stats verb scrapes while strands are mutating the registry;
// under TSan this asserts the whole snapshot->exposition path is clean.
TEST(Exposition, ConcurrentScrapeWhileWriting) {
  obs::MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::thread writer([&reg, &stop] {  // lint: thread-ok
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      reg.counter("ops").inc();
      reg.histogram("lat", {0.5, 1.0}).observe(0.3 * (i % 5));
    }
  });
  for (int i = 0; i < 100; ++i) {
    const std::string text = obs::exposition_text(reg.snapshot());
    if (!text.empty()) {
      EXPECT_NE(text.find("# TYPE parsched_ops counter"),
                std::string::npos);
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();  // lint: thread-ok
}

// --------------------------------------------------------- flight recorder

TEST(FlightRecorder, RecordsAndDumpsDeterministicJsonl) {
  obs::FlightRecorder rec(8);
  rec.record(obs::FlightEvent::kAdmit, 7, 1.0, 2.5, 3);
  rec.record(obs::FlightEvent::kDecision, 0, 1.5, 0.25, 4);
  rec.record(obs::FlightEvent::kComplete, 7, 2.0, 1.0, 3);
  EXPECT_EQ(rec.recorded(), 3u);

  std::ostringstream os;
  rec.dump_jsonl(os, "unit_test");
  const std::string expected =
      "{\"ev\": \"header\", \"kind\": \"parsched-flight-record\", "
      "\"schema\": 1, \"reason\": \"unit_test\", \"capacity\": 8, "
      "\"recorded\": 3, \"dropped\": 0, \"events\": 3}\n"
      "{\"ev\": \"admit\", \"seq\": 0, \"id\": 7, \"t\": 1, \"v\": 2.5, "
      "\"a\": 3}\n"
      "{\"ev\": \"decision\", \"seq\": 1, \"id\": 0, \"t\": 1.5, "
      "\"v\": 0.25, \"a\": 4}\n"
      "{\"ev\": \"complete\", \"seq\": 2, \"id\": 7, \"t\": 2, \"v\": 1, "
      "\"a\": 3}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(FlightRecorder, RingWrapKeepsOnlyTheNewestEvents) {
  obs::FlightRecorder rec(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.record(obs::FlightEvent::kNote, i, static_cast<double>(i));
  }
  EXPECT_EQ(rec.recorded(), 10u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest surviving first; seq identifies the drop count.
  EXPECT_EQ(events.front().seq, 6u);
  EXPECT_EQ(events.back().seq, 9u);
  std::ostringstream os;
  rec.dump_jsonl(os, "wrap");
  EXPECT_NE(os.str().find("\"dropped\": 6"), std::string::npos);
  EXPECT_NE(os.str().find("\"events\": 4"), std::string::npos);
}

TEST(FlightRecorder, ZeroCapacityClampsToOne) {
  obs::FlightRecorder rec(0);
  EXPECT_EQ(rec.capacity(), 1u);
  rec.record(obs::FlightEvent::kStall, 1, 0.0);
  EXPECT_EQ(rec.snapshot().size(), 1u);
}

TEST(FlightRecorder, DumpToFileWritesAndFailsSoftly) {
  obs::FlightRecorder rec(4);
  rec.record(obs::FlightEvent::kGuardTrip, 3, 1.0);
  const std::string path = testing::TempDir() + "flight_unit.jsonl";
  rec.set_dump_path(path);
  EXPECT_TRUE(rec.dump_to_file("unit"));
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"reason\": \"unit\""), std::string::npos);
  EXPECT_NE(text.find("\"ev\": \"guard_trip\""), std::string::npos);
  std::filesystem::remove(path);
  // A bad path must not throw — the dump rides failure paths where a
  // second exception would terminate.
  rec.set_dump_path("test_obs_nonexistent_dir/flight.jsonl");
  EXPECT_FALSE(rec.dump_to_file("unit"));
  rec.set_dump_path("");
  EXPECT_FALSE(rec.dump_to_file("unit"));
}

// Concurrent writers against a small ring; the reader must only ever
// see fully published events with sane fields. TSan-checked in CI.
TEST(FlightRecorder, ConcurrentRecordAndSnapshot) {
  obs::FlightRecorder rec(16);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;  // lint: thread-ok
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&rec, &stop, w] {
      for (std::uint64_t i = 0; !stop.load(std::memory_order_acquire);
           ++i) {
        rec.record(obs::FlightEvent::kDecision, w, static_cast<double>(i),
                   1.0, 2);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    for (const obs::FlightRecorder::Event& e : rec.snapshot()) {
      ASSERT_EQ(e.kind, obs::FlightEvent::kDecision);
      ASSERT_LT(e.id, 2u);
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();  // lint: thread-ok
}

// The engine records admissions, decisions, completions into an
// attached recorder — and the ring contents are deterministic for a
// deterministic run.
TEST(FlightRecorder, EngineWiresDecisionsAdmissionsCompletions) {
  Instance inst(2, {make_job(0, 0.0, 2.0, 0.5), make_job(1, 0.5, 1.0, 0.5)});
  IntermediateSrpt sched;
  obs::FlightRecorder rec(64);
  EngineConfig ec;
  ec.recorder = &rec;
  const SimResult r = simulate(inst, sched, ec);

  std::size_t admits = 0;
  std::size_t completes = 0;
  std::size_t decisions = 0;
  for (const obs::FlightRecorder::Event& e : rec.snapshot()) {
    if (e.kind == obs::FlightEvent::kAdmit) ++admits;
    if (e.kind == obs::FlightEvent::kComplete) ++completes;
    if (e.kind == obs::FlightEvent::kDecision) ++decisions;
  }
  EXPECT_EQ(admits, 2u);
  EXPECT_EQ(completes, 2u);
  EXPECT_EQ(decisions, r.decisions);

  // Identical rerun: identical ring (events carry sim time, not wall).
  obs::FlightRecorder rec2(64);
  EngineConfig ec2;
  ec2.recorder = &rec2;
  IntermediateSrpt sched2;
  (void)simulate(inst, sched2, ec2);
  std::ostringstream a, b;
  rec.dump_jsonl(a, "x");
  rec2.dump_jsonl(b, "x");
  EXPECT_EQ(a.str(), b.str());
}

// ------------------------------------------------- metrics snapshot JSONL

TEST(MetricsSnapshotJsonl, HeaderAndLineShapes) {
  const std::string header = obs::metrics_snapshot_header(2.5);
  EXPECT_EQ(header,
            "{\"ev\":\"header\",\"kind\":\"parsched-metrics-snapshot\","
            "\"schema\":1,\"interval_seconds\":2.5}");

  obs::MetricsRegistry reg;
  reg.counter("x").inc(2);
  const std::string line =
      obs::metrics_snapshot_line(reg.snapshot(), 4, 1.25);
  std::string err;
  ASSERT_TRUE(obs::json_syntax_valid(line, &err)) << err;
  EXPECT_EQ(line,
            "{\"ev\":\"snapshot\",\"seq\":4,\"t\":1.25,\"metrics\":"
            "[{\"name\":\"x\",\"kind\":\"counter\",\"value\":2}]}");
}

// ------------------------------------------------------------------ JSON

TEST(Json, WriterEmitsValidNestedDocument) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object();
  w.kv("s", "a\"b\\c\n");
  w.kv("i", std::int64_t{-3});
  w.kv("d", 0.5);
  w.kv("b", true);
  w.key("arr").begin_array().value(1).value(2.25).null().end_array();
  w.key("nested").begin_object().end_object();
  w.end_object();
  EXPECT_TRUE(w.done());
  std::string err;
  EXPECT_TRUE(obs::json_syntax_valid(os.str(), &err)) << err << "\n"
                                                      << os.str();
  EXPECT_NE(os.str().find("\\\""), std::string::npos);
  EXPECT_NE(os.str().find("\\n"), std::string::npos);
}

TEST(Json, NumbersAreShortestRoundTrip) {
  EXPECT_EQ(obs::json_number(1.0), "1");
  EXPECT_EQ(obs::json_number(0.5), "0.5");
  EXPECT_EQ(obs::json_number(1.0 / 0.0), "null");  // lint: float-eq-ok
}

TEST(Json, SyntaxCheckerAcceptsAndRejects) {
  EXPECT_TRUE(obs::json_syntax_valid(R"({"a": [1, 2.5e-3, "x", null]})"));
  EXPECT_TRUE(obs::json_syntax_valid("[]"));
  EXPECT_TRUE(obs::json_syntax_valid("-0.25"));
  std::string err;
  EXPECT_FALSE(obs::json_syntax_valid("{\"a\": }", &err));
  EXPECT_FALSE(obs::json_syntax_valid("[1,]", &err));
  EXPECT_FALSE(obs::json_syntax_valid("{\"a\": 1} trailing", &err));
  EXPECT_FALSE(obs::json_syntax_valid("01", &err));
  EXPECT_FALSE(obs::json_syntax_valid("\"unterminated", &err));
  EXPECT_FALSE(obs::json_syntax_valid("", &err));
  EXPECT_FALSE(obs::json_syntax_valid("\"\\ud800\"", &err));  // lone surrogate
  EXPECT_FALSE(obs::json_syntax_valid("1e400", &err));  // beyond double range
}

TEST(Json, IntegerLiteralsUpTo2To53AreMarked) {
  const auto integer = [](const std::string& text) {
    obs::JsonValue v;
    EXPECT_TRUE(obs::json_parse(text, v)) << text;
    return v.integer;
  };
  for (const char* text : {"0", "-0", "7", "123456789012345",
                           "9007199254740992", "-9007199254740992"}) {
    EXPECT_TRUE(integer(text)) << text;
  }
  // 2^53 + 1 parses to the double 2^53; a fraction or an exponent is not
  // an integer literal, whatever its value.
  for (const char* text : {"9007199254740993", "-9007199254740993",
                           "18446744073709551616", "1.0", "1e3", "0.5"}) {
    EXPECT_FALSE(integer(text)) << text;
  }
  EXPECT_FALSE(integer("\"7\""));
}

// ------------------------------------------------- engine instrumentation

TEST(RunStats, AbsentOnTheDefaultUninstrumentedPath) {
  Instance inst(2, {make_job(0, 0.0, 2.0, 0.5), make_job(1, 0.5, 1.0, 0.5)});
  IntermediateSrpt sched;
  const SimResult r = simulate(inst, sched);
  EXPECT_FALSE(r.stats.has_value());
}

TEST(RunStats, CollectedWhenEnabled) {
  RandomWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 60;
  cfg.P = 16.0;
  cfg.seed = 7;
  const Instance inst = make_random_instance(cfg);
  IntermediateSrpt sched;
  EngineConfig ec;
  ec.collect_stats = true;
  const SimResult r = simulate(inst, sched, ec);

  ASSERT_TRUE(r.stats.has_value());
  const obs::RunStats& s = *r.stats;
  EXPECT_EQ(s.decisions, r.decisions);
  EXPECT_EQ(s.completions, inst.size());
  EXPECT_EQ(s.arrivals, inst.size());
  // Every decision lands one observation in both histograms.
  EXPECT_EQ(s.alive_count.total, r.decisions);
  EXPECT_EQ(s.decision_interval.total, r.decisions);
  // The three buckets partition a subset of the run's wall time.
  EXPECT_GE(s.decide_seconds, 0.0);
  EXPECT_GE(s.solver_seconds, 0.0);
  EXPECT_GE(s.observer_seconds, 0.0);
  EXPECT_LE(s.decide_seconds + s.solver_seconds + s.observer_seconds,
            s.wall_seconds + 1e-6);
  EXPECT_GT(s.wall_seconds, 0.0);
}

TEST(RunStats, EngineMirrorsCountersIntoRegistry) {
  Instance inst(2, {make_job(0, 0.0, 2.0, 0.5), make_job(1, 0.0, 1.0, 0.5)});
  IntermediateSrpt sched;
  obs::MetricsRegistry reg;
  EngineConfig ec;
  ec.collect_stats = true;
  ec.metrics = &reg;
  const SimResult r = simulate(inst, sched, ec);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.find("engine.runs")->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.find("engine.decisions")->value,
                   static_cast<double>(r.decisions));
  EXPECT_DOUBLE_EQ(snap.find("engine.completions")->value, 2.0);
  EXPECT_DOUBLE_EQ(snap.find("engine.arrivals")->value, 2.0);
  EXPECT_EQ(snap.find("engine.decide")->count, 1u);
}

// A release of 10^5 jobs at once is charged to the admission bucket, so
// the buckets of the first advance_to — which releases them and takes the
// first decision — account for nearly all of its wall time.
TEST(RunStats, FirstAdvanceBucketsCoverItsWallTime) {
  constexpr std::size_t kJobs = 100'000;
  IntermediateSrpt sched;
  EngineConfig ec;
  ec.collect_stats = true;
  Engine eng(64, ec);
  eng.begin(sched);
  for (std::size_t i = 0; i < kJobs; ++i) {
    eng.admit(make_job(static_cast<JobId>(i), 0.0,
                       1.0 + static_cast<double>((i * 7919u) % 99991u) /
                                 99991.0,
                       0.5));
  }
  const double t0 = obs::monotonic_seconds();
  eng.advance_to(0.875);  // before the first completion, at t >= 1
  const double wall = obs::monotonic_seconds() - t0;
  ASSERT_EQ(eng.alive_set().size(), kJobs);
  const obs::RunStats& s = *eng.partial().stats;
  const double buckets = s.decide_seconds + s.observer_seconds +
                         s.rates_seconds + s.advance_seconds +
                         s.heap_upkeep_seconds + s.completion_seconds +
                         s.admit_seconds;
  EXPECT_GT(s.admit_seconds, 0.0);
  EXPECT_GE(buckets, 0.9 * wall)
      << "decide " << s.decide_seconds << " s, admit " << s.admit_seconds
      << " s, wall " << wall << " s";
  EXPECT_LE(buckets, wall + 1e-6);
}

// The solver bucket is split into five parts that add up to it exactly,
// in batch and streaming runs, and each part is mirrored as a timer.
TEST(RunStats, SolverSplitAddsUpToSolverSeconds) {
  RandomWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 80;
  cfg.P = 16.0;
  cfg.load = 1.2;
  cfg.seed = 11;
  const Instance inst = make_random_instance(cfg);
  for (const bool streamed : {false, true}) {
    IntermediateSrpt sched;
    obs::MetricsRegistry reg;
    EngineConfig ec;
    ec.collect_stats = true;
    ec.metrics = &reg;
    SimResult r;
    if (streamed) {
      Engine eng(inst.machines(), ec);
      eng.begin(sched);
      for (const Job& j : inst.jobs()) {
        eng.admit(j);
        eng.advance_to(j.release);
      }
      r = eng.finish();
    } else {
      r = simulate(inst, sched, ec);
    }
    ASSERT_TRUE(r.stats.has_value());
    const obs::RunStats& s = *r.stats;
    EXPECT_GT(s.rates_seconds, 0.0) << streamed;
    EXPECT_GT(s.advance_seconds, 0.0) << streamed;
    EXPECT_GE(s.heap_upkeep_seconds, 0.0) << streamed;
    EXPECT_GT(s.completion_seconds, 0.0) << streamed;
    EXPECT_GT(s.admit_seconds, 0.0) << streamed;
    EXPECT_EQ(s.solver_seconds, s.rates_seconds + s.advance_seconds +
                                    s.heap_upkeep_seconds +
                                    s.completion_seconds + s.admit_seconds)
        << streamed;
    EXPECT_LE(s.decide_seconds + s.solver_seconds + s.observer_seconds,
              s.wall_seconds + 1e-6)
        << streamed;
    const auto snap = reg.snapshot();
    for (const char* part : {"engine.solver.rates", "engine.solver.advance",
                             "engine.solver.heap_upkeep",
                             "engine.solver.completion",
                             "engine.solver.admit"}) {
      ASSERT_NE(snap.find(part), nullptr) << part;
      EXPECT_EQ(snap.find(part)->count, 1u) << part;
    }
    EXPECT_DOUBLE_EQ(snap.find("engine.solver.advance")->value,
                     s.advance_seconds);
  }
}

// ----------------------------------------------------------- trace export

TEST(TraceExport, ChromeTraceParsesAndHasJobAndCounterTracks) {
  RandomWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 20;
  cfg.P = 16.0;
  cfg.seed = 3;
  const Instance inst = make_random_instance(cfg);
  IntermediateSrpt sched;
  obs::TraceExporter exporter;
  (void)simulate(inst, sched, {}, {&exporter});

  const std::string path = "test_obs_chrome.trace.json";
  exporter.write_chrome_trace(path);
  const std::string text = slurp(path);
  std::string err;
  EXPECT_TRUE(obs::json_syntax_valid(text, &err)) << err;
  // Per-job allocation tracks, instant events, and counter tracks.
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"alive\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"utilization\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_FALSE(exporter.segments().empty());
  EXPECT_EQ(exporter.dropped(), 0u);
  std::filesystem::remove(path);
}

TEST(TraceExport, SegmentsMatchAllocationTrace) {
  RandomWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 30;
  cfg.P = 8.0;
  cfg.seed = 11;
  const Instance inst = make_random_instance(cfg);
  IntermediateSrpt sched;
  obs::TraceExporter exporter;
  AllocationTrace trace;
  (void)simulate(inst, sched, {}, {&exporter, &trace});
  ASSERT_EQ(exporter.segments().size(), trace.segments().size());
  for (std::size_t i = 0; i < trace.segments().size(); ++i) {
    EXPECT_EQ(exporter.segments()[i].job, trace.segments()[i].job);
    EXPECT_DOUBLE_EQ(exporter.segments()[i].t0, trace.segments()[i].t0);
    EXPECT_DOUBLE_EQ(exporter.segments()[i].t1, trace.segments()[i].t1);
    EXPECT_DOUBLE_EQ(exporter.segments()[i].share,
                     trace.segments()[i].share);
  }
}

TEST(TraceExport, JsonlGoldenFileOnFixedInstance) {
  // Exact-arithmetic instance: all event times are small integers, so the
  // serialized log is byte-stable across platforms.
  Instance inst(1, {make_job(0, 0.0, 2.0, 0.0), make_job(1, 1.0, 1.0, 0.0)});
  SequentialSrpt sched;
  obs::TraceExporter exporter;
  (void)simulate(inst, sched, {}, {&exporter});

  const std::string path = "test_obs_golden.jsonl";
  exporter.write_jsonl(path);
  const std::string expected =
      R"({"ev":"header","schema":1,"kind":"parsched-trace","end_time":3,"dropped":0}
{"ev":"arrival","t":0,"job":0,"size":2}
{"ev":"decision","t":0}
{"ev":"arrival","t":1,"job":1,"size":1}
{"ev":"decision","t":1}
{"ev":"completion","t":2,"job":0}
{"ev":"decision","t":2}
{"ev":"completion","t":3,"job":1}
{"ev":"counters","t":0,"alive":1,"allocated":1}
{"ev":"counters","t":1,"alive":2,"allocated":1}
{"ev":"counters","t":2,"alive":1,"allocated":1}
{"ev":"segment","job":0,"t0":0,"t1":2,"share":1}
{"ev":"segment","job":1,"t0":2,"t1":3,"share":1}
)";
  EXPECT_EQ(slurp(path), expected);
  // Every line must itself be valid JSON.
  std::istringstream lines(slurp(path));
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(obs::json_syntax_valid(line)) << line;
  }
  std::filesystem::remove(path);
}

TEST(TraceExport, EventCapCountsDrops) {
  obs::TraceExporter::Config tc;
  tc.max_events = 3;
  obs::TraceExporter exporter(tc);
  RandomWorkloadConfig cfg;
  cfg.machines = 2;
  cfg.jobs = 20;
  cfg.P = 4.0;
  cfg.seed = 1;
  const Instance inst = make_random_instance(cfg);
  IntermediateSrpt sched;
  (void)simulate(inst, sched, {}, {&exporter});
  EXPECT_LE(exporter.events().size() + exporter.counters().size(), 3u);
  EXPECT_GT(exporter.dropped(), 0u);
  EXPECT_FALSE(exporter.segments().empty());  // segments are never dropped
}

// ---------------------------------------------------------------- reports

TEST(Report, BenchReportSchemaRoundTrips) {
  RandomWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 30;
  cfg.P = 8.0;
  cfg.seed = 5;
  const Instance inst = make_random_instance(cfg);
  IntermediateSrpt sched;
  EngineConfig ec;
  ec.collect_stats = true;
  const double t0 = obs::monotonic_seconds();
  const SimResult r = simulate(inst, sched, ec);
  const double wall = obs::monotonic_seconds() - t0;

  obs::BenchReport report("unit_test");
  report.set_meta("claim", "round-trip");
  report.set_meta("machines", 4.0);
  report.add_run(obs::RunReport::from_result("isrpt", 4, r, wall));
  Table table({"policy", "flow"});
  table.add_row({std::string("isrpt"), r.total_flow});
  report.add_table("results", table);
  obs::MetricsRegistry reg;
  reg.counter("runs").inc();
  report.set_metrics(reg.snapshot());

  const std::string text = report.to_json();
  std::string err;
  ASSERT_TRUE(obs::json_syntax_valid(text, &err)) << err << "\n" << text;
  EXPECT_NE(text.find("\"schema\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"parsched-bench-report\""),
            std::string::npos);
  // Schema 2: every serialized histogram carries interpolated quantiles.
  EXPECT_NE(text.find("\"p50\""), std::string::npos);
  EXPECT_NE(text.find("\"p99\""), std::string::npos);
  EXPECT_NE(text.find("\"decide_seconds\""), std::string::npos);
  EXPECT_NE(text.find("\"decision_interval\""), std::string::npos);
  EXPECT_NE(text.find("\"alive_count\""), std::string::npos);
  EXPECT_NE(text.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(text.find("\"columns\""), std::string::npos);

  const std::string path = "test_obs_report.json";
  report.write(path);
  EXPECT_TRUE(obs::json_syntax_valid(slurp(path), &err)) << err;
  std::filesystem::remove(path);
}

TEST(Report, UninstrumentedRunSerializesNullStats) {
  Instance inst(1, {make_job(0, 0.0, 1.0, 0.5)});
  IntermediateSrpt sched;
  const SimResult r = simulate(inst, sched);
  obs::BenchReport report("nostats");
  report.add_run(obs::RunReport::from_result("isrpt", 1, r));
  EXPECT_NE(report.to_json().find("\"stats\": null"), std::string::npos);
  EXPECT_TRUE(obs::json_syntax_valid(report.to_json()));
}

TEST(Report, PathRespectsEnvironment) {
  ::unsetenv("PARSCHED_REPORT_DIR");
  EXPECT_EQ(obs::report_path("x"), "BENCH_x.json");
  ::setenv("PARSCHED_REPORT_DIR", "/tmp", 1);
  EXPECT_EQ(obs::report_path("x"), "/tmp/BENCH_x.json");
  ::unsetenv("PARSCHED_REPORT_DIR");

  ::unsetenv("PARSCHED_REPORT");
  EXPECT_FALSE(obs::report_enabled());
  ::setenv("PARSCHED_REPORT", "1", 1);
  EXPECT_TRUE(obs::report_enabled());
  ::setenv("PARSCHED_REPORT", "0", 1);
  EXPECT_FALSE(obs::report_enabled());
  ::unsetenv("PARSCHED_REPORT");
}

// A fresh PARSCHED_REPORT_DIR (parents included) is created on demand:
// pointing it at a nonexistent nested directory must not fail the first
// open_output, and the report must land inside it.
TEST(Report, MissingReportDirIsCreated) {
  const std::string dir = testing::TempDir() + "parsched_report_dir_test/n1/n2";
  std::filesystem::remove_all(testing::TempDir() +
                              "parsched_report_dir_test");
  ASSERT_FALSE(std::filesystem::exists(dir));

  ::setenv("PARSCHED_REPORT_DIR", dir.c_str(), 1);
  const std::string path = obs::report_path("made");
  ::unsetenv("PARSCHED_REPORT_DIR");

  EXPECT_EQ(path, dir + "/BENCH_made.json");
  EXPECT_TRUE(std::filesystem::is_directory(dir));

  obs::BenchReport report("made");
  report.write(path);  // must succeed without pre-creating anything
  EXPECT_TRUE(std::filesystem::exists(path));
  std::string err;
  EXPECT_TRUE(obs::json_syntax_valid(slurp(path), &err)) << err;
  std::filesystem::remove_all(testing::TempDir() +
                              "parsched_report_dir_test");
}

// ----------------------------------------------------- checked file output

TEST(FileWriters, WriteFailuresRaiseInsteadOfTruncating) {
  Instance inst(1, {make_job(0, 0.0, 2.0, 0.5)});
  IntermediateSrpt sched;
  AllocationTrace trace;
  obs::TraceExporter exporter;
  (void)simulate(inst, sched, {}, {&trace, &exporter});

  // Unopenable path: directory component does not exist.
  const std::string bad = "test_obs_nonexistent_dir/out.csv";
  EXPECT_THROW(trace.write_csv(bad), std::runtime_error);
  EXPECT_THROW(exporter.write_chrome_trace(bad), std::runtime_error);
  EXPECT_THROW(exporter.write_jsonl(bad), std::runtime_error);

  // Full device: opens fine, every write is lost — the flush check in
  // finish_output must turn that into an error (the original write_csv
  // silently produced an empty file here).
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_THROW(trace.write_csv("/dev/full"), std::runtime_error);
    EXPECT_THROW(exporter.write_jsonl("/dev/full"), std::runtime_error);
    obs::BenchReport report("full");
    EXPECT_THROW(report.write("/dev/full"), std::runtime_error);
  }
}

}  // namespace
}  // namespace parsched
