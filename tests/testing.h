// Shared helpers for the test suite.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "kernel/syscalls.h"
#include "kernel/world.h"
#include "util/bytes.h"

namespace dpm::testing {

/// Adds machines named after the paper's figures ("red", "green", "blue",
/// "yellow", ...) to the world.
inline std::vector<kernel::MachineId> add_machines(
    kernel::World& world, const std::vector<std::string>& names) {
  std::vector<kernel::MachineId> out;
  out.reserve(names.size());
  for (const auto& n : names) out.push_back(world.add_machine(n));
  return out;
}

/// A default world config with quiet, deterministic settings.
inline kernel::WorldConfig quick_config(std::uint64_t seed = 1) {
  kernel::WorldConfig cfg;
  cfg.seed = seed;
  return cfg;
}

/// Lowercase hex of `b`, two digits per byte: how the golden-bytes tests
/// pin a wire encoding.
inline std::string hex(const util::Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t v : b) {
    out += kDigits[v >> 4];
    out += kDigits[v & 0xf];
  }
  return out;
}

/// The bytes `hex` rendered.
inline util::Bytes unhex(std::string_view s) {
  util::Bytes out;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(s.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

}  // namespace dpm::testing
