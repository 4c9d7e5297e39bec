// Structural studies (§3.3): who talks to whom.
//
// §4.1: "By examining the sockets that were paired when the connection was
// created, the recipient information can be recovered. This is one of the
// tasks of the analysis programs." ConnectionMatcher does that recovery:
// a CONNECT record carrying (sockName, peerName) pairs with the ACCEPT
// record carrying the mirrored names, tying the connector's socket id to
// the acceptor's connection socket id. Datagram traffic is matched by
// name: a SEND's destName is the receiving socket's bound name, and a
// RECEIVE's sourceName is the sending socket's bound name.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/trace_reader.h"

namespace dpm::analysis {

/// One endpoint of a matched connection.
struct Endpoint {
  ProcKey proc;
  std::uint64_t sock = 0;
  friend auto operator<=>(const Endpoint&, const Endpoint&) = default;
};

class ConnectionMatcher {
 public:
  explicit ConnectionMatcher(const Trace& trace);

  /// The remote endpoint of (proc, sock), when the trace pins it down.
  std::optional<Endpoint> remote_of(const ProcKey& proc,
                                    std::uint64_t sock) const;

  /// Socket-name ownership: which endpoint bound `name` (datagram
  /// matching). Accept/connect/receive records teach us names.
  std::optional<Endpoint> owner_of_name(const std::string& name) const;

  std::size_t matched_connections() const { return matched_; }

 private:
  std::map<std::pair<ProcKey, std::uint64_t>, Endpoint> peers_;
  std::map<std::string, Endpoint> names_;
  std::size_t matched_ = 0;
};

/// The communication graph: per ordered process pair, message count and
/// byte volume attributed from send records (falling back to receive
/// records for channels whose sender was not metered).
struct CommEdge {
  ProcKey from;
  ProcKey to;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

struct CommGraph {
  std::vector<ProcKey> nodes;
  std::vector<CommEdge> edges;

  const CommEdge* edge(const ProcKey& from, const ProcKey& to) const;
};

CommGraph build_comm_graph(const Trace& trace);
/// The same graph from a matcher already built over `trace`.
CommGraph build_comm_graph(const Trace& trace,
                           const ConnectionMatcher& matcher);

/// Per-connection statistics: each matched stream connection with its
/// traffic in both directions (the channel-level view of the structure
/// study; the graph aggregates these per process pair).
struct ConnStat {
  Endpoint a;  // the connecting side when known
  Endpoint b;
  std::uint64_t msgs_ab = 0;
  std::uint64_t bytes_ab = 0;
  std::uint64_t msgs_ba = 0;
  std::uint64_t bytes_ba = 0;
};

std::vector<ConnStat> connection_table(const Trace& trace);
/// The same table from a matcher already built over `trace`.
std::vector<ConnStat> connection_table(const Trace& trace,
                                       const ConnectionMatcher& matcher);

}  // namespace dpm::analysis
