#include "analysis/live/pairing.h"

#include <algorithm>

namespace dpm::analysis::live {

void PairingCore::push_side(Side& s, std::size_t index) {
  if (s.any_popped && index < s.max_popped) disorder_ = true;
  auto it = s.q.end();
  while (it != s.q.begin() && *(it - 1) > index) --it;
  s.q.insert(it, index);
}

void PairingCore::try_pair(Chan& c) {
  while (!c.sends.q.empty() && !c.recvs.q.empty()) {
    const std::size_t s = c.sends.q.front();
    const std::size_t r = c.recvs.q.front();
    c.sends.q.pop_front();
    c.recvs.q.pop_front();
    c.sends.max_popped = std::max(c.sends.max_popped, s);
    c.recvs.max_popped = std::max(c.recvs.max_popped, r);
    c.sends.any_popped = c.recvs.any_popped = true;
    pending_.push_back(Pair{s, r});
  }
}

void PairingCore::route_named(NameId name, const Endpoint& owner) {
  // Everything parked on the name routes now, in index order (the vector
  // preserves arrival = index order per name).
  auto pit = parked_by_name_.find(name);
  if (pit == parked_by_name_.end()) return;
  for (const ParkedDgram& w : pit->second) {
    --parked_;
    if (w.is_send) {
      Chan& c = dgram_[{Endpoint{w.proc, w.sock}, owner.proc}];
      push_side(c.sends, w.index);
      try_pair(c);
    } else {
      Chan& c = dgram_[{owner, w.proc}];
      push_side(c.recvs, w.index);
      try_pair(c);
    }
  }
  parked_by_name_.erase(pit);
}

void PairingCore::route_joined(const Endpoint& ep, const Endpoint& remote) {
  // Stream receives at `ep` route to the channel keyed by the remote.
  auto pit = parked_stream_recvs_.find({ep.proc, ep.sock});
  if (pit == parked_stream_recvs_.end()) return;
  Chan& c = stream_[{remote.proc, remote.sock}];
  for (const ParkedStreamRecv& w : pit->second) {
    --parked_;
    push_side(c.recvs, w.index);
  }
  parked_stream_recvs_.erase(pit);
  try_pair(c);
}

void PairingCore::observe(const Event& e, std::size_t index) {
  switch (e.type) {
    case meter::EventType::connect:
    case meter::EventType::accept: {
      const ConnectionMatcher::Learned learned = join_.observe(e);
      if (learned.named) route_named(e.sock_name, learned.owner);
      if (learned.joined) {
        const auto& [c, a] = *learned.joined;
        route_joined(c, a);
        route_joined(a, c);
      }
      break;
    }
    case meter::EventType::send: {
      if (e.dest_name == 0) {
        Chan& c = stream_[{e.proc(), e.sock}];
        push_side(c.sends, index);
        try_pair(c);
      } else if (auto owner = join_.owner_of_name(e.dest_name)) {
        Chan& c = dgram_[{Endpoint{e.proc(), e.sock}, owner->proc}];
        push_side(c.sends, index);
        try_pair(c);
      } else {
        parked_by_name_[e.dest_name].push_back(
            ParkedDgram{index, e.proc(), e.sock, /*is_send=*/true, progress_});
        ++parked_;
      }
      break;
    }
    case meter::EventType::recv: {
      if (e.source_name == 0) {
        if (auto remote = join_.remote_of(e.proc(), e.sock)) {
          Chan& c = stream_[{remote->proc, remote->sock}];
          push_side(c.recvs, index);
          try_pair(c);
        } else {
          parked_stream_recvs_[{e.proc(), e.sock}].push_back(
              ParkedStreamRecv{index, progress_});
          ++parked_;
        }
      } else if (auto owner = join_.owner_of_name(e.source_name)) {
        Chan& c = dgram_[{*owner, e.proc()}];
        push_side(c.recvs, index);
        try_pair(c);
      } else {
        parked_by_name_[e.source_name].push_back(
            ParkedDgram{index, e.proc(), e.sock, /*is_send=*/false, progress_});
        ++parked_;
      }
      break;
    }
    default:
      break;  // other event types carry no pairing evidence
  }
}

std::vector<PairingCore::Pair> PairingCore::take_pairs() {
  std::vector<Pair> out;
  out.swap(pending_);
  return out;
}

void PairingCore::advance_progress(std::uint64_t lamport) {
  if (lamport <= progress_) return;
  progress_ = lamport;
  if (park_ttl_ != 0 && parked_ != 0) sweep();
}

void PairingCore::sweep() {
  if (progress_ <= park_ttl_) return;
  const std::uint64_t cutoff = progress_ - park_ttl_;  // expel stamp < cutoff

  for (auto it = parked_stream_recvs_.begin();
       it != parked_stream_recvs_.end();) {
    auto& v = it->second;
    const std::string channel = "stream:" + proc_key_text(it->first.first) +
                                "#" + std::to_string(it->first.second);
    auto keep = std::remove_if(
        v.begin(), v.end(), [&](const ParkedStreamRecv& w) {
          if (w.stamp >= cutoff) return false;
          --parked_;
          ++gaps_total_;
          gaps_.push_back(Gap{w.index, channel, /*is_send=*/false});
          return true;
        });
    v.erase(keep, v.end());
    it = v.empty() ? parked_stream_recvs_.erase(it) : std::next(it);
  }

  // Gaps follow the names' text order; ids follow first appearance.
  std::vector<NameId> by_text;
  for (const auto& [name, v] : parked_by_name_) by_text.push_back(name);
  std::sort(by_text.begin(), by_text.end(), NameTable::ByName{names_});
  for (const NameId name : by_text) {
    const auto it = parked_by_name_.find(name);
    auto& v = it->second;
    const std::string channel = "name:" + std::string(names_->text(name));
    auto keep = std::remove_if(v.begin(), v.end(), [&](const ParkedDgram& w) {
      if (w.stamp >= cutoff) return false;
      --parked_;
      ++gaps_total_;
      gaps_.push_back(Gap{w.index, channel, w.is_send});
      return true;
    });
    v.erase(keep, v.end());
    if (v.empty()) parked_by_name_.erase(it);
  }
}

std::vector<PairingCore::Gap> PairingCore::take_gaps() {
  std::vector<Gap> out;
  out.swap(gaps_);
  return out;
}

}  // namespace dpm::analysis::live
