#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sched/registry.hpp"
#include "speedup/kernel.hpp"

namespace perfbench {

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, q);
}

double percentile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hexd(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double parse_hexd(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw CheckFailure("reference: malformed number '" + s + "'");
  }
  return v;
}

Reference Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw CheckFailure("reference: cannot read " + path);
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    std::vector<double> vals;
    std::string tok;
    while (ls >> tok) vals.push_back(parse_hexd(tok));
    ref.rows_[key] = std::move(vals);
  }
  return ref;
}

void Reference::set(const std::string& key, std::vector<double> values) {
  rows_[key] = std::move(values);
}

void Reference::expect(const std::string& key,
                       const std::vector<double>& values) const {
  const auto it = rows_.find(key);
  check(it != rows_.end(), "reference: no record for " + key);
  bool same = it->second.size() == values.size();
  for (std::size_t i = 0; same && i < values.size(); ++i) {
    // Bit equality: the reference pins exact doubles, not tolerances.
    same = std::memcmp(&it->second[i], &values[i], sizeof(double)) == 0;
  }
  if (!same) {
    std::string got;
    std::string want;
    for (double v : values) (got += ' ') += hexd(v);
    for (double v : it->second) (want += ' ') += hexd(v);
    throw CheckFailure("reference mismatch at " + key + ": got" + got +
                       ", reference" + want);
  }
}

void Reference::save(const std::string& path,
                     const std::string& header) const {
  std::ofstream out(path);
  out << header;
  for (const auto& [key, vals] : rows_) {
    out << key;
    for (double v : vals) out << ' ' << hexd(v);
    out << '\n';
  }
  out.flush();
  if (!out) throw std::runtime_error("reference: cannot write " + path);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e = Entry{name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back(Entry{name, value, unit, samples});
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  notes_.emplace_back(key, buf);
}

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print() const {
  for (const auto& [k, v] : notes_) std::cout << "# " << k << ": " << v << '\n';
  for (const Entry& e : metrics_) {
    std::cout << "# metric " << e.name << " = " << num(e.value) << ' '
              << e.unit;
    if (e.samples > 0) std::cout << " (n=" << e.samples << ')';
    std::cout << '\n';
  }
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    if (i > 0) js << ", ";
    js << json_str(e.name) << ": {\"value\": " << num(e.value)
       << ", \"unit\": " << json_str(e.unit) << '}';
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

void TimedScheduler::allocate(const parsched::SchedulerContext& ctx,
                              parsched::Allocation& out) {
  const double t0 = now_s();
  if (entries_ != nullptr) entries_->push_back(t0);
  inner_->allocate(ctx, out);
  if (time_calls_) busy_ += now_s() - t0;
  ++calls_;
}

void CountingObserver::on_decision(double,
                                   std::span<const parsched::AliveJob> alive,
                                   std::span<const double> sh) {
  const double t0 = now_s();
  ++decisions;
  rate_elems += alive.size();
  for (double x : sh) pow_elems += x > 1.0 ? 1u : 0u;
  if (alive.size() > kinds.size()) {
    kinds.resize(alive.size());
    alphas.resize(alive.size());
    shares.assign(sh.begin(), sh.end());
    for (std::size_t i = 0; i < alive.size(); ++i) {
      kinds[i] = static_cast<std::uint8_t>(alive[i].curve.kind());
      alphas[i] = alive[i].curve.alpha();
    }
  }
  busy_s += now_s() - t0;
}

namespace {
// The replay's outputs land here so the kernel calls cannot be elided.
volatile double g_sink = 0.0;
}  // namespace

double replay_rate_batch(const CountingObserver& obs, double min_seconds) {
  const std::size_t n = obs.kinds.size();
  if (n == 0) return 0.0;
  std::vector<double> out(n);
  std::uint64_t elems = 0;
  const double t0 = now_s();
  double t = t0;
  do {
    parsched::speedup::rate_batch(obs.kinds, obs.alphas, obs.shares, 1.0,
                                  out);
    g_sink = out[elems % n];
    elems += n;
    t = now_s();
  } while (t - t0 < min_seconds);
  return (t - t0) * 1e9 / static_cast<double>(elems);
}

std::string policy_key(const std::string& spec) {
  return spec.substr(0, spec.find(':'));
}

void declare_layer_metrics(Report& r) {
  r.metric("workload.generate_s", 0.0, "s");
  r.metric("sched.allocate_s", 0.0, "s");
  r.metric("sched.allocate_calls", 0.0, "count");
  for (const std::string& p : parsched::standard_policy_names()) {
    r.metric("sched.allocate_s." + policy_key(p), 0.0, "s");
  }
  r.metric("sched_opt.lower_bound_s", 0.0, "s");
  r.metric("analysis.compare_to_opt_s", 0.0, "s");
  r.metric("simcore.self_s", 0.0, "s");
  r.metric("simcore.admit_s", 0.0, "s");
  r.metric("simcore.decisions", 0.0, "count");
  r.metric("simcore.events", 0.0, "count");
  r.metric("simcore.alive_per_decision", 0.0, "count");
  r.metric("speedup_kernel.rate_elems", 0.0, "count");
  r.metric("speedup_kernel.pow_elems", 0.0, "count");
  r.metric("speedup_kernel.ns_per_elem", 0.0, "ns");
  r.metric("speedup_kernel.bytes_computed", 0.0, "bytes");
  r.metric("serve.session_admit_us_p50", 0.0, "us");
  r.metric("serve.session_advance_us_p50", 0.0, "us");
  r.metric("serve_cluster.ndjson_us_p50", 0.0, "us");
  r.metric("serve_cluster.pbin_us_p50", 0.0, "us");
  r.metric("serve_cluster.transport_us_p50", 0.0, "us");
  r.metric("serve_cluster.rejects", 0.0, "count");
  r.metric("serve_cluster.errors", 0.0, "count");
  r.metric("obs.stats_ms_p50", 0.0, "ms");
  r.metric("obs.exposition_bytes", 0.0, "bytes");
  r.metric("trace.wall_s", 0.0, "s");
  r.metric("trace.layer_sum_pct", 0.0, "%");
  r.metric("trace.overhead_pct", 0.0, "%");
}

void report_engine_counts(Report& r, const CountingObserver& obs,
                          std::uint64_t events, double ns_per_elem) {
  r.metric("simcore.decisions", static_cast<double>(obs.decisions), "count");
  r.metric("simcore.events", static_cast<double>(events), "count");
  r.metric("simcore.alive_per_decision",
           obs.decisions == 0 ? 0.0
                              : static_cast<double>(obs.rate_elems) /
                                    static_cast<double>(obs.decisions),
           "count");
  r.metric("speedup_kernel.rate_elems", static_cast<double>(obs.rate_elems),
           "count");
  r.metric("speedup_kernel.pow_elems", static_cast<double>(obs.pow_elems),
           "count");
  r.metric("speedup_kernel.ns_per_elem", ns_per_elem, "ns");
  // Computed, not measured: each element reads a kind byte, an alpha and
  // a share and writes one rate.
  constexpr double kBytesPerElem = 1.0 + 3.0 * sizeof(double);
  r.metric("speedup_kernel.bytes_computed",
           kBytesPerElem * static_cast<double>(obs.rate_elems), "bytes");
}

void FastestRepeat::add(std::size_t unit, double ms) {
  if (best_[unit] < 0.0 || ms < best_[unit]) best_[unit] = ms;
  ++repeats_[unit];
}

std::vector<double> FastestRepeat::best() const {
  std::vector<double> out;
  for (double b : best_) {
    if (b >= 0.0) out.push_back(b);
  }
  return out;
}

std::size_t FastestRepeat::fewest_repeats() const {
  std::size_t fewest = 0;
  for (std::size_t n : repeats_) {
    if (n > 0 && (fewest == 0 || n < fewest)) fewest = n;
  }
  return fewest;
}

namespace {

bool set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() > 1) (void)set_affinity(cpus_);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  at_ = (at_ + 1) % cpus_.size();
  (void)pin_thread_to(cpus_[at_]);
}

bool pin_thread_to(int cpu) { return set_affinity({cpu}); }

double sequential_rate(const FastestRepeat& units) {
  const std::vector<double> best = units.best();
  double ms = 0.0;
  for (double b : best) ms += b;
  check(ms > 0.0, "timed run recorded no work");
  return 1e3 * static_cast<double>(best.size()) / ms;
}

void report_timed(Report& r, double throughput, std::size_t throughput_n,
                  const FastestRepeat& latency, double tail_q) {
  std::vector<double> lat = latency.best();
  check(!lat.empty(), "timed run recorded no latency");
  std::sort(lat.begin(), lat.end());
  r.metric("throughput_per_s", throughput, "1/s", throughput_n);
  r.metric("latency_p50_ms", percentile_sorted(lat, 0.5), "ms", lat.size());
  r.metric("latency_tail_ms", percentile_sorted(lat, tail_q), "ms",
           lat.size());
  std::string tail = "p";
  tail += std::to_string(std::lround(tail_q * 100));
  r.note("latency_tail_percentile", tail);
  r.note("latency_units", std::to_string(lat.size()) +
                              ", fastest of >= " +
                              std::to_string(latency.fewest_repeats()) +
                              " repeats each");
}

void report_layers(Report& r, const std::vector<LayerTime>& layers,
                   double traced_wall_s) {
  double sum = 0.0;
  for (const LayerTime& l : layers) {
    check(l.seconds >= -kLayerTolerance * traced_wall_s,
          "layer " + l.name + " self-time is negative (" + num(l.seconds) +
              " s of a " + num(traced_wall_s) + " s traced wall)");
    sum += l.seconds;
  }
  const double pct = 100.0 * sum / traced_wall_s;
  r.metric("trace.wall_s", traced_wall_s, "s");
  r.metric("trace.layer_sum_pct", pct, "%");
  check(std::fabs(pct - 100.0) <= 100.0 * kLayerTolerance,
        "layer self-times sum to " + num(pct) +
            "% of the traced wall (allowed: 95-105%)");
}

}  // namespace perfbench
