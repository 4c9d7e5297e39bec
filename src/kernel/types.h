// Shared kernel identifiers and tunables.
#pragma once

#include <cstdint>

#include "net/address.h"
#include "net/fabric.h"
#include "util/time.h"

namespace dpm::kernel {

using Pid = std::int32_t;       // meaningful only on its own machine (§3.5.1)
using Uid = std::int32_t;       // 0 is the superuser
using Fd = std::int32_t;
using SocketId = std::uint64_t; // "file table entry address": unique socket id
using MachineId = net::MachineId;

constexpr Uid kSuperUser = 0;

/// 4.2BSD-style socket domains and types (numeric values as in the BSD
/// headers; they appear in meter sockcrt records).
enum class SockDomain : std::uint32_t {
  unix_path = 1,  // AF_UNIX
  internet = 2,   // AF_INET
  internal = 3,   // socketpair-internal
};

enum class SockType : std::uint32_t {
  stream = 1,  // SOCK_STREAM
  dgram = 2,   // SOCK_DGRAM
};

/// Simulated costs of kernel operations, charged to the calling process on
/// its machine's CPU. Rough VAX-11/780-era magnitudes; benchmarks sweep
/// the metering-related ones.
struct SyscallCosts {
  util::Duration syscall_base = util::usec(25);    // trap + validate
  util::Duration socket_create = util::usec(120);
  util::Duration bind_cost = util::usec(60);
  util::Duration connect_cost = util::usec(150);
  util::Duration accept_cost = util::usec(120);
  util::Duration send_base = util::usec(80);
  util::Duration send_per_kb = util::usec(250);
  util::Duration recv_base = util::usec(70);
  util::Duration fork_cost = util::usec(3000);
  util::Duration file_io_base = util::usec(200);
  util::Duration file_io_per_kb = util::usec(400);
  // Metering costs (§2.2: degradation should be small but is not zero).
  util::Duration meter_event = util::usec(18);      // build + store a record
  util::Duration meter_flush_base = util::usec(90); // send the batch
  util::Duration meter_flush_per_kb = util::usec(120);
};

struct WorldConfig {
  std::uint64_t seed = 1;
  SyscallCosts costs;
  net::NetworkConfig default_net;
  net::LocalConfig local_net;
  /// Meter buffering thresholds: flush when either is reached (§3.2 "when a
  /// sufficient number of messages have been stored").
  std::size_t meter_buffer_bytes = 1024;
  std::uint32_t meter_buffer_msgs = 8;
  /// Record-lifecycle provenance (obs/provenance.h): every Nth record per
  /// meter edge is traced through emit -> transport -> filter -> fan-in ->
  /// live settle -> predicate verdict, into the stage.* / e2e.* latency
  /// histograms. The sampler is seeded from `seed`, identities ride a
  /// side-table (never the wire), and 0 disables tracing entirely.
  std::uint32_t prov_sample_period = 64;
  std::size_t max_descriptors = 64;
};

/// CPU accounting reporting grain — "CPU use is updated in increments of
/// 10ms" (§4.1): the procTime a meter record carries and getrusage-style
/// readings are multiples of it.
inline constexpr util::Duration kCpuGrain = util::msec(10);

}  // namespace dpm::kernel
