// parsched — versioned binary session snapshots.
//
// A snapshot freezes a live serve/ session — the policy spec, the
// policy's mutable decision state (Scheduler::save_state) and the full
// EngineState of the streaming run — into a self-contained blob that a
// fresh process can restore and continue *bit-identically*: the restored
// run produces the same doubles, in the same order, as the donor would
// have.
//
// Format (version kSnapshotVersion): magic "PSNP", a little-endian u32
// version, then a fixed field order of u8/u32/u64/i64 little-endian
// integers, length-prefixed strings, and doubles serialized as their
// raw IEEE-754 bit pattern (u64 LE) — never through decimal text, which
// is how the bit-identity guarantee survives the round trip. Containers
// whose order is semantic (the engine's alive vector, pending
// admissions) are stored verbatim; the completed set is stored sorted,
// so re-snapshotting a restored session reproduces the donor blob byte
// for byte.
//
// decode_snapshot() throws std::invalid_argument on bad magic, an
// unknown version, truncation, or trailing bytes. The version is bumped
// (and old versions rejected, not migrated) whenever the engine state
// gains or loses a field — a stale blob must fail loudly, not continue
// subtly wrong.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "simcore/engine.hpp"

namespace parsched::serve {

// v2 appended a rate-kernel selector byte after validate_allocations;
// v3 drops it again (the engine has one rate kernel).
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// Everything needed to reconstruct a session in a fresh process.
struct SessionSnapshot {
  std::string policy;           ///< registry spec, e.g. "quantized-equi:0.5"
  std::string scheduler_state;  ///< Scheduler::save_state() blob
  EngineState engine;
};

[[nodiscard]] std::string encode_snapshot(const SessionSnapshot& snap);

/// Inverse of encode_snapshot(); throws std::invalid_argument on a
/// corrupt, truncated, or wrong-version blob.
[[nodiscard]] SessionSnapshot decode_snapshot(std::string_view blob);

/// File wrappers: write an encode_snapshot() blob (util/fsio-checked;
/// the snapshot verb's writer), and read one back (throws
/// std::runtime_error when the file cannot be opened).
void write_snapshot_file(const std::string& path, std::string_view blob);
[[nodiscard]] SessionSnapshot read_snapshot_file(const std::string& path);

}  // namespace parsched::serve
