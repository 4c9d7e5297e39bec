#include "analysis/structure.h"

#include <algorithm>
#include <map>
#include <set>

namespace dpm::analysis {

ConnectionMatcher::ConnectionMatcher(const Trace& trace) {
  // Skip the call for the records that carry no evidence: they are almost
  // the whole trace.
  for (const Event& e : trace.events) {
    if (e.type == meter::EventType::connect ||
        e.type == meter::EventType::accept) {
      (void)observe(e);
    }
  }
}

ConnectionMatcher::Learned ConnectionMatcher::observe(const Event& e) {
  Learned out;
  if (e.type == meter::EventType::connect) {
    // A connect is keyed by its (sockName, peerName); the matching accept
    // carries the mirror image — its sockName is the listener's name the
    // connector targeted, its peerName is the connector's name.
    const Endpoint ep{e.proc(), e.sock};
    out.named = learn_name(e.sock_name, ep);
    out.owner = ep;
    auto it = connects_.try_emplace({e.sock_name, e.peer_name}).first;
    it->second.push_back(ep);
    out.joined = join(it->first);
  } else if (e.type == meter::EventType::accept) {
    const Endpoint listener{e.proc(), e.sock};
    out.named = learn_name(e.sock_name, listener);
    out.owner = listener;
    auto it = accepts_.try_emplace({e.peer_name, e.sock_name}).first;
    it->second.push_back(Endpoint{e.proc(), e.new_sock});
    out.joined = join(it->first);
  }
  return out;
}

bool ConnectionMatcher::learn_name(NameId name, Endpoint ep) {
  if (name == 0) return false;
  auto [it, fresh] = names_.try_emplace(name, ep);
  if (!fresh) {
    if (it->second.sock != 0) return false;  // the first real owner keeps it
    it->second = ep;
  }
  return ep.sock != 0;
}

std::optional<std::pair<Endpoint, Endpoint>> ConnectionMatcher::join(
    const NamePair& key) {
  // Each observe() queues one side, so at most one join completes.
  auto cit = connects_.find(key);
  auto ait = accepts_.find(key);
  if (cit == connects_.end() || ait == accepts_.end() || cit->second.empty() ||
      ait->second.empty()) {
    return std::nullopt;
  }
  const Endpoint c = cit->second.front();
  const Endpoint a = ait->second.front();
  cit->second.pop_front();
  ait->second.pop_front();
  ++matched_;
  set_peer(c, a);
  set_peer(a, c);
  return std::make_pair(c, a);
}

void ConnectionMatcher::set_peer(const Endpoint& ep, const Endpoint& remote) {
  auto [it, fresh] = peers_.try_emplace({ep.proc, ep.sock}, remote);
  if (!fresh) {
    if (!(it->second == remote)) rebound_ = true;
    it->second = remote;
  }
}

const CommEdge* CommGraph::edge(const ProcKey& from, const ProcKey& to) const {
  for (const auto& e : edges) {
    if (e.from == from && e.to == to) return &e;
  }
  return nullptr;
}

CommGraph build_comm_graph(const Trace& trace) {
  return build_comm_graph(trace, ConnectionMatcher(trace), ProcessSlots(trace));
}

CommGraph build_comm_graph(const Trace& trace, const ConnectionMatcher& matcher,
                           const ProcessSlots& slots) {

  struct Tally {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  // Directed stream channels, keyed by the sending endpoint.
  std::map<std::pair<ProcKey, std::uint64_t>, Tally> chan_sends;
  std::map<std::pair<ProcKey, std::uint64_t>, Tally> chan_recvs;
  // Datagram traffic, attributed from RECEIVE records (the only records
  // that name both ends: sourceName plus the receiving process).
  std::map<std::pair<ProcKey, ProcKey>, Tally> dgram_edges;

  for (const Event& e : trace.events) {
    if (e.type == meter::EventType::send && e.dest_name == 0) {
      auto& t = chan_sends[{e.proc(), e.sock}];
      ++t.messages;
      t.bytes += e.msg_length;
    } else if (e.type == meter::EventType::recv) {
      if (e.source_name != 0) {
        if (auto owner = matcher.owner_of_name(e.source_name)) {
          auto& t = dgram_edges[{owner->proc, e.proc()}];
          ++t.messages;
          t.bytes += e.msg_length;
        }
      } else if (e.msg_length > 0) {
        auto& t = chan_recvs[{e.proc(), e.sock}];
        ++t.messages;
        t.bytes += e.msg_length;
      }
    }
  }

  std::map<std::pair<ProcKey, ProcKey>, Tally> edges;
  std::set<std::pair<ProcKey, std::uint64_t>> recv_side_consumed;

  // Stream channels: the send side is authoritative when metered; a
  // channel whose sender was not metered falls back to the receiver's
  // RECEIVE records (read-sized, so message counts are approximate there).
  for (const auto& [key, t] : chan_sends) {
    auto remote = matcher.remote_of(key.first, key.second);
    if (!remote) continue;
    auto& e = edges[{key.first, remote->proc}];
    e.messages += t.messages;
    e.bytes += t.bytes;
    recv_side_consumed.insert({remote->proc, remote->sock});
  }
  for (const auto& [key, t] : chan_recvs) {
    if (recv_side_consumed.count(key)) continue;
    auto remote = matcher.remote_of(key.first, key.second);
    if (!remote) continue;
    // Only use the receive side when the sender produced no send records.
    if (chan_sends.count({remote->proc, remote->sock})) continue;
    auto& e = edges[{remote->proc, key.first}];
    e.messages += t.messages;
    e.bytes += t.bytes;
  }
  for (const auto& [key, t] : dgram_edges) {
    auto& e = edges[key];
    e.messages += t.messages;
    e.bytes += t.bytes;
  }

  CommGraph g;
  g.nodes = slots.procs;
  for (const auto& [key, t] : edges) {
    g.edges.push_back(CommEdge{key.first, key.second, t.messages, t.bytes});
  }
  std::sort(g.edges.begin(), g.edges.end(), [](const auto& a, const auto& b) {
    return std::tie(a.from, a.to) < std::tie(b.from, b.to);
  });
  return g;
}

std::vector<ConnStat> connection_table(const Trace& trace) {
  return connection_table(trace, ConnectionMatcher(trace));
}

std::vector<ConnStat> connection_table(const Trace& trace,
                                       const ConnectionMatcher& matcher) {

  // Traffic per sending endpoint.
  struct Tally {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  std::map<Endpoint, Tally> sends;
  for (const Event& e : trace.events) {
    if (e.type == meter::EventType::send && e.dest_name == 0) {
      auto& t = sends[Endpoint{e.proc(), e.sock}];
      ++t.messages;
      t.bytes += e.msg_length;
    }
  }

  std::vector<ConnStat> out;
  std::set<Endpoint> seen;
  for (const Event& e : trace.events) {
    if (e.type != meter::EventType::connect) continue;
    const Endpoint a{e.proc(), e.sock};
    if (seen.count(a)) continue;
    auto remote = matcher.remote_of(a.proc, a.sock);
    if (!remote) continue;
    seen.insert(a);
    seen.insert(*remote);
    ConnStat c;
    c.a = a;
    c.b = *remote;
    if (auto it = sends.find(a); it != sends.end()) {
      c.msgs_ab = it->second.messages;
      c.bytes_ab = it->second.bytes;
    }
    if (auto it = sends.find(*remote); it != sends.end()) {
      c.msgs_ba = it->second.messages;
      c.bytes_ba = it->second.bytes;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace dpm::analysis
