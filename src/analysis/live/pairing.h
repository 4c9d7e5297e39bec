// Incremental send/receive pairing — the shared core of the batch
// order_events() and the streaming LiveAnalysis aggregator.
//
// The pairing semantics are exactly §4.1's channel matching: the k-th
// SEND on a directed channel pairs with the k-th RECEIVE at its far end.
// Stream channels are keyed by the sending endpoint (proc, sock), found
// by joining CONNECT records with their mirrored ACCEPT records by name
// pair; datagram traffic is keyed by (source-name owner endpoint,
// receiving process), found by socket-name ownership. Both joins are the
// ConnectionMatcher's, fed one record at a time.
//
// The batch algorithm routes every receive with the *final* connection
// table. To produce the identical pairing one event at a time, the core
// parks events whose routing evidence has not arrived yet:
//
//   * a stream RECEIVE waits on its endpoint's connect/accept join;
//   * a datagram SEND/RECEIVE waits on a non-zero-sock owner for its
//     destName/sourceName.
//
// Both kinds of evidence are *stable* once established (a name's owner is
// never replaced once resolved; an endpoint pairs at most once in traces
// from this simulator, whose socket ids are globally unique), so parking
// until the evidence arrives and then flushing in index order reproduces
// the batch queues. The one theoretical divergence — two names resolving
// at different times interleaving one channel's queue — is handled by
// index-sorted insertion and surfaced via disorder() instead of silently
// producing different pairs. Events whose evidence never arrives stay
// parked (the batch algorithm drops them; neither pairs them).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "analysis/structure.h"
#include "analysis/trace_reader.h"

namespace dpm::analysis::live {

class PairingCore {
 public:
  /// `names` is the table the observed events' name ids index; it must
  /// outlive the core.
  explicit PairingCore(const NameTable& names) : names_(&names) {}

  struct Pair {
    std::size_t send = 0;  // trace index of the SEND
    std::size_t recv = 0;  // trace index of the RECEIVE
  };

  /// Observes one event at trace position `index`. Indices must be fed in
  /// increasing order (the trace's own order). Newly completed pairs
  /// accumulate until take_pairs().
  void observe(const Event& e, std::size_t index);

  /// Drains the pairs completed since the last call.
  std::vector<Pair> take_pairs();

  /// Matched connect/accept joins so far.
  std::size_t matched_connections() const {
    return join_.matched_connections();
  }

  /// Hands out the connect/accept join built from the records observed so
  /// far (the same matcher ConnectionMatcher(trace) builds over them). The
  /// core must observe nothing after this.
  ConnectionMatcher take_matcher() { return std::move(join_); }

  /// Events parked awaiting routing evidence (stream receives with no
  /// connection join yet, datagram traffic with unresolved names).
  std::size_t parked() const { return parked_; }

  /// True when an insertion order arose that the batch algorithm could
  /// have resolved differently (see the header comment); pairs remain
  /// index-sorted best-effort but exact batch equivalence is no longer
  /// guaranteed.
  bool disorder() const { return disorder_ || join_.rebound(); }

  // ---- fault tolerance: bounded parking ----------------------------------
  //
  // Under failures the evidence a parked event waits for may never arrive
  // (the far end crashed before its CONNECT was metered, the name record
  // was dropped with a dead meter socket). Left alone the park queues grow
  // without bound and the events silently never pair. With a TTL set, the
  // caller reports its Lamport progress and entries parked for more than
  // `ttl` units of progress are expelled as explicit *gaps*: they will
  // never pair (matching batch analysis, which also drops them) and are
  // surfaced per channel instead of corrupting clocks. Batch order_events
  // never calls advance_progress, so batch pairing is untouched.

  /// Sets the park TTL in units of Lamport progress. 0 disables sweeping.
  void set_park_ttl(std::uint64_t ttl) { park_ttl_ = ttl; }

  /// Reports monotone Lamport progress; with a TTL set, stale parked
  /// entries are expelled into the gap list.
  void advance_progress(std::uint64_t lamport);

  /// One expelled parked event: it waited longer than the TTL for routing
  /// evidence that never came.
  struct Gap {
    std::size_t index = 0;  // trace index of the expelled event
    std::string channel;    // "stream:<proc>#<sock>" or "name:<name>"
    bool is_send = false;
  };
  /// Drains the gaps expelled since the last call.
  std::vector<Gap> take_gaps();
  /// Total events expelled as gaps so far.
  std::size_t gaps() const { return gaps_total_; }

 private:
  /// One side of a channel: unpaired indices, kept sorted (pushes are
  /// index-ordered except across late name resolutions).
  struct Side {
    std::deque<std::size_t> q;
    std::size_t max_popped = 0;
    bool any_popped = false;
  };
  struct Chan {
    Side sends;
    Side recvs;
  };

  struct ParkedDgram {
    std::size_t index = 0;
    ProcKey proc;
    std::uint64_t sock = 0;
    bool is_send = false;
    std::uint64_t stamp = 0;  // progress_ at park time
  };
  struct ParkedStreamRecv {
    std::size_t index = 0;
    std::uint64_t stamp = 0;  // progress_ at park time
  };

  void push_side(Side& s, std::size_t index);
  void try_pair(Chan& c);
  /// Routes the datagram traffic parked on `name`, which just got `owner`.
  void route_named(NameId name, const Endpoint& owner);
  /// Routes the stream receives parked at `ep`, whose remote is `remote`.
  void route_joined(const Endpoint& ep, const Endpoint& remote);
  void sweep();

  ConnectionMatcher join_;

  // Channels, keyed exactly as in order_events().
  std::map<std::pair<ProcKey, std::uint64_t>, Chan> stream_;
  std::map<std::pair<Endpoint, ProcKey>, Chan> dgram_;

  // Parked events awaiting evidence.
  std::map<std::pair<ProcKey, std::uint64_t>, std::vector<ParkedStreamRecv>>
      parked_stream_recvs_;
  std::map<NameId, std::vector<ParkedDgram>> parked_by_name_;
  const NameTable* names_;
  std::size_t parked_ = 0;

  // Park TTL state (inert until set_park_ttl + advance_progress).
  std::uint64_t park_ttl_ = 0;
  std::uint64_t progress_ = 0;
  std::vector<Gap> gaps_;
  std::size_t gaps_total_ = 0;

  std::vector<Pair> pending_;
  bool disorder_ = false;
};

}  // namespace dpm::analysis::live
