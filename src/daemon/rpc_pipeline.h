// Daemon RPC: the controller's one client (§3.5.1's exchange over a
// temporary connection).
//
// run_pipeline keeps a bounded window of RPC exchanges in flight from one
// process — non-blocking connects (connect_begin / connect_finish),
// completion discovered through select()'s write set, replies re-framed
// per call and matched to their request by nonce — so a round of
// independent calls costs about its slowest exchange, not the sum of
// them. Every attempt runs on a fresh connection with a deadline, failed
// attempts back off and retry, and requests that create state carry a
// nonce so the daemon's replay cache absorbs duplicates. rpc_call is the
// same machinery over one call.
#pragma once

#include <cstddef>
#include <vector>

#include "daemon/protocol.h"

namespace dpm::daemon {

/// Deadline/retry policy for one call. Every attempt runs on a fresh
/// connection; attempts after the first are counted as
/// daemon.rpc_retries, expired attempts as daemon.rpc_timeouts.
struct RpcOptions {
  util::Duration deadline = util::msec(250);  // per attempt: connect + reply
  int max_attempts = 4;
};

/// Exchanges a pipeline keeps in flight at once.
inline constexpr int kRpcWindow = 16;

/// One call in a pipeline: where to send what, with its retry policy.
/// `reply` holds the outcome after run_pipeline returns — the daemon's
/// reply, or the final attempt's error.
struct PipelinedCall {
  net::SockAddr to;
  DaemonMsg request;
  RpcOptions opts;
  util::SysResult<DaemonMsg> reply = util::Err::etimedout;
};

/// Drives every call to completion with at most kRpcWindow exchanges in
/// flight; returns how many calls succeeded. Retries only on
/// etimedout/econnrefused/econnreset/epipe. Counts each call in
/// daemon.rpc_calls and its first-launch-to-outcome time in
/// daemon.rpc_<type>_us; the shard.inflight gauge's high-water mark is
/// the peak window occupancy.
std::size_t run_pipeline(kernel::Sys& sys, std::vector<PipelinedCall>& calls);

/// One RPC exchange: run_pipeline over a single call.
util::SysResult<DaemonMsg> rpc_call(kernel::Sys& sys, const net::SockAddr& to,
                                    const DaemonMsg& request,
                                    const RpcOptions& opts);

}  // namespace dpm::daemon
