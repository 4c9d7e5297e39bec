#include "analysis/structure.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace dpm::analysis {

ConnectionMatcher::ConnectionMatcher(const Trace& trace) {
  // Connect and accept records may appear in either order in the log
  // (each process's meter connection flushes independently), so both
  // sides are collected first and joined by name pair afterwards. A
  // connect is keyed by its (sockName, peerName); the matching accept
  // carries the mirror image — its sockName is the listener's name the
  // connector targeted, its peerName is the connector's name. Repeated
  // connections with identical name pairs (impossible for internet names,
  // which embed unique ephemeral ports) pair in order of appearance.
  std::map<std::pair<std::string, std::string>, std::deque<Endpoint>> connects;
  std::map<std::pair<std::string, std::string>, std::deque<Endpoint>> accepts;

  auto learn_name = [this](const std::string& name, Endpoint ep) {
    if (name.empty()) return;
    auto it = names_.find(name);
    if (it == names_.end() || it->second.sock == 0) names_[name] = ep;
  };

  for (const Event& e : trace.events) {
    if (e.type == meter::EventType::connect) {
      connects[{e.sock_name, e.peer_name}].push_back(Endpoint{e.proc(), e.sock});
      learn_name(e.sock_name, Endpoint{e.proc(), e.sock});
    } else if (e.type == meter::EventType::accept) {
      accepts[{e.peer_name, e.sock_name}].push_back(Endpoint{e.proc(), e.new_sock});
      learn_name(e.sock_name, Endpoint{e.proc(), e.sock});
    }
  }

  for (auto& [key, cq] : connects) {
    auto it = accepts.find(key);
    if (it == accepts.end()) continue;
    auto& aq = it->second;
    while (!cq.empty() && !aq.empty()) {
      const Endpoint c = cq.front();
      const Endpoint a = aq.front();
      cq.pop_front();
      aq.pop_front();
      peers_[{c.proc, c.sock}] = a;
      peers_[{a.proc, a.sock}] = c;
      ++matched_;
    }
  }
}

std::optional<Endpoint> ConnectionMatcher::remote_of(const ProcKey& proc,
                                                     std::uint64_t sock) const {
  auto it = peers_.find({proc, sock});
  if (it == peers_.end()) return std::nullopt;
  return it->second;
}

std::optional<Endpoint> ConnectionMatcher::owner_of_name(
    const std::string& name) const {
  auto it = names_.find(name);
  if (it == names_.end() || it->second.sock == 0) return std::nullopt;
  return it->second;
}

const CommEdge* CommGraph::edge(const ProcKey& from, const ProcKey& to) const {
  for (const auto& e : edges) {
    if (e.from == from && e.to == to) return &e;
  }
  return nullptr;
}

CommGraph build_comm_graph(const Trace& trace) {
  return build_comm_graph(trace, ConnectionMatcher(trace));
}

CommGraph build_comm_graph(const Trace& trace,
                           const ConnectionMatcher& matcher) {

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
    if (e.type == meter::EventType::send && e.dest_name.empty()) {
      auto& t = chan_sends[{e.proc(), e.sock}];
      ++t.messages;
      t.bytes += e.msg_length;
    } else if (e.type == meter::EventType::recv) {
      if (!e.source_name.empty()) {
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
  std::set<ProcKey> nodes;
  for (const auto& e : trace.events) nodes.insert(e.proc());
  g.nodes.assign(nodes.begin(), nodes.end());
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
    if (e.type == meter::EventType::send && e.dest_name.empty()) {
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
