#include "net/address.h"

#include <charconv>

#include "util/strings.h"

namespace dpm::net {

SockAddr SockAddr::inet(NetworkId network, HostAddr host, Port port) {
  SockAddr a;
  a.family = Family::internet;
  a.network = network;
  a.host = host;
  a.port = port;
  return a;
}

SockAddr SockAddr::unix_name(std::string path) {
  SockAddr a;
  a.family = Family::unix_path;
  a.path = std::move(path);
  return a;
}

SockAddr SockAddr::internal(std::uint64_t unique) {
  SockAddr a;
  a.family = Family::internal;
  a.path = util::strprintf("#%llu", static_cast<unsigned long long>(unique));
  return a;
}

std::string SockAddr::text() const {
  switch (family) {
    case Family::unspec:
      return "";
    case Family::internet: {
      // Every datagram send renders its destination: to_chars, not a
      // printf round trip.
      char buf[24];
      const auto end = std::to_chars(buf, buf + sizeof buf, *numeric()).ptr;
      return std::string(buf, end);
    }
    case Family::unix_path:
    case Family::internal:
      return path;
  }
  return "";
}

std::optional<std::int64_t> SockAddr::numeric() const {
  if (family != Family::internet) return std::nullopt;
  return static_cast<std::int64_t>(host) * 65536 + port;
}

std::string SockAddr::debug() const {
  switch (family) {
    case Family::unspec:
      return "unspec";
    case Family::internet:
      return util::strprintf("inet(net%u,%u:%u)", network, host, port);
    case Family::unix_path:
      return "unix(" + path + ")";
    case Family::internal:
      return "pair(" + path + ")";
  }
  return "?";
}

}  // namespace dpm::net
