// parsched — the shared little-endian wire codec.
//
// WireWriter/WireReader are the byte-level encoding both binary formats
// of the serve layer speak: the PSNP session snapshots (serve/snapshot)
// and the PBIN request/response frames (serve/binproto). Factoring the
// codec out keeps the two formats bit-compatible by construction — a
// double crosses either surface as its raw IEEE-754 bit pattern (u64
// little-endian), never through decimal text, which is what the
// bit-identity guarantees of snapshot restore and the binary protocol
// rest on.
//
// Encoding rules:
//   * u8/u32/u64/i64  little-endian, fixed width;
//   * f64             raw IEEE-754 bits as u64 LE (round-trips ±inf,
//                     NaN payloads and signed zero exactly);
//   * str             u32 length prefix + raw bytes;
//   * size            u32 element count, read-checked against the bytes
//                     remaining so a corrupt count cannot drive a
//                     multi-gigabyte allocation.
//
// WireReader throws std::invalid_argument on truncation or a failed
// check, tagging the message with the byte offset and the `what` label
// given at construction ("snapshot", "frame", ...). Below the codec sit
// the field codecs both formats share: speedup curves and job phases.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simcore/job.hpp"
#include "speedup/curve.hpp"

namespace parsched::serve {

class WireWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    // Raw IEEE-754 bits: the only encoding that round-trips every value
    // (including ±inf and signed zero) exactly.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  void size(std::size_t n) { u32(static_cast<std::uint32_t>(n)); }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class WireReader {
 public:
  explicit WireReader(std::string_view data, std::string what = "blob")
      : data_(data), what_(std::move(what)) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(
                                                          i)]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(
                                                          i)]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(u64());
  }

  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t size() {
    const std::uint32_t n = u32();
    // A count cannot exceed the remaining bytes (every element is at
    // least one byte); reject early so a corrupt count cannot drive a
    // multi-gigabyte allocation.
    if (n > data_.size() - pos_) fail("element count exceeds payload size");
    return n;
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

  [[noreturn]] void fail(const std::string& why) const {
    std::ostringstream os;
    os << "corrupt " << what_ << " at byte " << pos_ << ": " << why;
    throw std::invalid_argument(os.str());
  }

 private:
  void need(std::size_t n) {
    if (data_.size() - pos_ < n) fail("truncated");
  }

  std::string_view data_;
  std::string what_;
  std::size_t pos_ = 0;
};

// ---- field codecs shared by PSNP and PBIN ---------------------------------

inline void put_curve(WireWriter& w, const SpeedupCurve& c) {
  w.u8(static_cast<std::uint8_t>(c.kind()));
  w.f64(c.alpha());
  if (c.kind() == SpeedupCurve::Kind::kPiecewiseLinear) {
    const auto& knots = c.knots();
    w.size(knots.size());
    for (const auto& [x, y] : knots) {
      w.f64(x);
      w.f64(y);
    }
  }
}

/// Rebuilds the curve through its validating factories, so a decoded
/// curve passes the same checks as a constructed one. The alpha field
/// must be finite even for the kinds that recompute or ignore it.
inline SpeedupCurve get_curve(WireReader& r) {
  const auto kind = static_cast<SpeedupCurve::Kind>(r.u8());
  const double alpha = r.f64();
  if (!std::isfinite(alpha)) r.fail("non-finite curve alpha");
  switch (kind) {
    case SpeedupCurve::Kind::kFullyParallel:
      return SpeedupCurve::fully_parallel();
    case SpeedupCurve::Kind::kSequential:
      return SpeedupCurve::sequential();
    case SpeedupCurve::Kind::kPowerLaw:
      return SpeedupCurve::power_law(alpha);
    case SpeedupCurve::Kind::kPiecewiseLinear: {
      const std::size_t n = r.size();
      std::vector<std::pair<double, double>> knots;
      knots.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double x = r.f64();
        const double y = r.f64();
        knots.emplace_back(x, y);
      }
      return SpeedupCurve::piecewise_linear(std::move(knots));
    }
  }
  r.fail("unknown speedup-curve kind");
}

inline void put_phases(WireWriter& w, const std::vector<JobPhase>& phases) {
  w.size(phases.size());
  for (const JobPhase& p : phases) {
    w.f64(p.work);
    put_curve(w, p.curve);
  }
}

inline std::vector<JobPhase> get_phases(WireReader& r) {
  const std::size_t n = r.size();
  std::vector<JobPhase> phases;
  phases.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    JobPhase p;
    p.work = r.f64();
    p.curve = get_curve(r);
    phases.push_back(std::move(p));
  }
  return phases;
}

}  // namespace parsched::serve
