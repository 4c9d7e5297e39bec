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
//
// The matcher is the one implementation of that join. Batch analysis
// builds it over a whole trace; live::PairingCore feeds it one record at
// a time and routes the traffic it parked off what each record
// established.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <utility>
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
  ConnectionMatcher() = default;
  /// The matcher over every record of `trace`.
  explicit ConnectionMatcher(const Trace& trace);

  /// What one record established.
  struct Learned {
    /// The record's sockName just got its owner: the first endpoint naming
    /// it with a non-zero socket id. A later owner never replaces it.
    bool named = false;
    Endpoint owner;
    /// The record completed a connection: (connector, acceptor).
    std::optional<std::pair<Endpoint, Endpoint>> joined;
  };

  /// Feeds one record, in trace order. Only CONNECT and ACCEPT records
  /// carry evidence; connects and accepts with the same name pair join
  /// first-come first-served (repeats are impossible for internet names,
  /// which embed unique ephemeral ports), in whichever order the two
  /// sides appear — each process's meter connection flushes on its own.
  Learned observe(const Event& e);

  // The two lookups are inline: PairingCore asks one of them for every
  // send and receive it routes.

  /// The remote endpoint of (proc, sock), when the records so far pin it
  /// down.
  std::optional<Endpoint> remote_of(const ProcKey& proc,
                                    std::uint64_t sock) const {
    auto it = peers_.find({proc, sock});
    if (it == peers_.end()) return std::nullopt;
    return it->second;
  }

  /// Socket-name ownership: which endpoint bound `name` (datagram
  /// matching), once an owner with a non-zero socket id is known. `name`
  /// is an id in the table of the events the matcher observed.
  std::optional<Endpoint> owner_of_name(NameId name) const {
    auto it = names_.find(name);
    if (it == names_.end() || it->second.sock == 0) return std::nullopt;
    return it->second;
  }

  std::size_t matched_connections() const { return matched_; }

  /// True once an endpoint joined a second connection with a different
  /// remote (socket-id reuse, which this simulator never produces):
  /// remote_of then answers with the later join.
  bool rebound() const { return rebound_; }

 private:
  using NamePair = std::pair<NameId, NameId>;

  /// Records `ep` as the owner of `name` unless one with a non-zero socket
  /// id is already known; true when `ep` is the first such owner.
  bool learn_name(NameId name, Endpoint ep);
  /// Pairs the oldest unjoined connect and accept under `key`, if both
  /// exist.
  std::optional<std::pair<Endpoint, Endpoint>> join(const NamePair& key);
  void set_peer(const Endpoint& ep, const Endpoint& remote);

  // Unjoined connects by (sockName, peerName); accepts by the mirror image.
  std::map<NamePair, std::deque<Endpoint>> connects_;
  std::map<NamePair, std::deque<Endpoint>> accepts_;
  std::map<std::pair<ProcKey, std::uint64_t>, Endpoint> peers_;
  std::map<NameId, Endpoint> names_;
  std::size_t matched_ = 0;
  bool rebound_ = false;
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
/// The same graph from a matcher and process slots already built over
/// `trace`.
CommGraph build_comm_graph(const Trace& trace, const ConnectionMatcher& matcher,
                           const ProcessSlots& slots);

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
