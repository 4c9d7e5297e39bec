// Deterministic checkpoint/replay primitives.
//
// A world of cooperative tasks runs each simulated process as a fiber on
// a stack of its own (DESIGN.md §15), so its instantaneous state (stacks
// included) cannot be serialized byte for byte. What *can* be captured
// exactly is the other half of the determinism equation: because a run is
// a pure function of its generative inputs (seed, config, FaultPlan, the
// timed stimulus script the harness injected), a checkpoint is
//
//   (inputs, cut point, state digest)
//
// and restore is re-execution of the inputs up to the cut, followed by a
// component-by-component comparison of the restored world's digest
// against the recorded one. The digest covers everything a replay must
// reproduce — armed timers, clocks, task/process tables, sockets, the
// meter and fan-in conservation ledgers (pending batches included),
// fabric in-flight state, the fault cursor, every named RNG stream, files
// and obs instruments — so a divergence is not just detected but *named*
// ("sim.events diverged"), which is what makes replay bugs debuggable.
//
// This header holds the layer-free pieces: the incremental digest and
// the Snapshot (a timestamped bag of named component hashes with a
// canonical text form). kernel::World::checkpoint()/restore() build on
// them; control/replay.h adds the recording/re-driving harness.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.h"

namespace dpm::sim::replay {

/// Incremental 64-bit FNV-1a over a stream of integers and strings.
/// Deterministic across platforms and runs; never a cryptographic claim,
/// only a cheap bit-identity witness.
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix_signed(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(std::string_view s) {
    mix_piece(s);
    mix(static_cast<std::uint64_t>(s.size()));  // length-delimit
  }
  /// The bytes alone, not length-delimited: a value hashed in pieces
  /// mixes its total length after the last piece, as mix(string_view)
  /// does.
  void mix_piece(std::string_view s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix_time(util::TimePoint t) { mix_signed(util::count_us(t)); }
  void mix_double(double v);

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One named slice of world state ("sim.events", "kernel.sockets", ...).
struct Component {
  std::string name;
  std::uint64_t hash = 0;

  bool operator==(const Component&) const = default;
};

/// A checkpoint's verifiable half: the simulated instant it was taken at
/// and the per-component state hashes. Round-trips through a line-based
/// text form so checkpoints can live in repro artifacts.
struct Snapshot {
  util::TimePoint at{};
  std::vector<Component> components;

  /// Fold of every component (order-sensitive; components are emitted in
  /// a fixed order by World::checkpoint).
  std::uint64_t state() const;

  const Component* find(std::string_view name) const;

  /// Canonical text:
  ///   checkpoint at=123456us
  ///   component sim.events=0123456789abcdef
  ///   ...
  std::string to_string() const;
  static std::optional<Snapshot> parse(std::string_view text,
                                       std::string* error = nullptr);

  /// Names of components that differ between the two snapshots (value
  /// mismatch, or present on one side only), in a's order then b-only
  /// extras. Empty means bit-identical as far as the digest can see.
  static std::vector<std::string> diff(const Snapshot& a, const Snapshot& b);

  bool operator==(const Snapshot&) const = default;
};

}  // namespace dpm::sim::replay
