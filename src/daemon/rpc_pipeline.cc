#include "daemon/rpc_pipeline.h"

#include <algorithm>
#include <optional>

#include "kernel/syscalls.h"
#include "kernel/world.h"
#include "obs/registry.h"

namespace dpm::daemon {

namespace {

using kernel::Fd;
using kernel::Sys;
using util::Err;

/// Pause before a call's first retry; it doubles per retry up to the cap.
constexpr util::Duration kBackoff = util::msec(50);
constexpr util::Duration kBackoffMax = util::msec(800);

bool retryable(Err e) {
  return e == Err::etimedout || e == Err::econnrefused ||
         e == Err::econnreset || e == Err::epipe;
}

/// The nonce a request carries or a reply echoes (0: its type has none —
/// replies then match by connection alone, which a fresh-socket-per-attempt
/// pipeline already guarantees).
std::uint64_t nonce_of(const DaemonMsg& m) {
  return std::visit(
      [](const auto& b) -> std::uint64_t {
        if constexpr (requires { b.nonce; }) return b.nonce;
        return 0;
      },
      m);
}

/// Metric-key fragment for a request type ("daemon.rpc_<name>_us").
const char* rpc_name(MsgType t) {
  switch (t) {
    case MsgType::create_request: return "create";
    case MsgType::filter_request: return "filter";
    case MsgType::setflags_request: return "setflags";
    case MsgType::start_request: return "start";
    case MsgType::stop_request: return "stop";
    case MsgType::kill_request: return "kill";
    case MsgType::acquire_request: return "acquire";
    case MsgType::release_request: return "release";
    case MsgType::status_request: return "status";
    case MsgType::batch_create_request: return "batch_create";
    case MsgType::batch_proc_request: return "batch_proc";
    default: return "other";
  }
}

enum class St { idle, connecting, awaiting, backoff, done };

struct CallState {
  St st = St::idle;
  Fd fd = -1;
  int attempts = 0;                 // attempts launched so far
  util::Duration pause = kBackoff;  // next backoff pause (doubles per retry)
  util::TimePoint begun{};          // first launch
  util::TimePoint deadline{};       // current attempt's expiry
  util::TimePoint resume{};         // end of the current backoff
  util::Bytes buf;                  // reply re-framing (one frame per exchange)
};

}  // namespace

std::size_t run_pipeline(Sys& sys, std::vector<PipelinedCall>& calls) {
  obs::Registry& reg = sys.world().obs();
  obs::Counter& retries = reg.counter("daemon.rpc_retries");
  obs::Counter& timeouts = reg.counter("daemon.rpc_timeouts");
  obs::Counter& failures = reg.counter("daemon.rpc_failures");
  obs::Counter& mismatches = reg.counter("daemon.rpc_nonce_mismatch");
  obs::Gauge& inflight = reg.gauge("shard.inflight");
  reg.counter("daemon.rpc_calls").add(calls.size());

  std::vector<CallState> st(calls.size());

  std::size_t done = 0;
  std::size_t ok = 0;
  int active = 0;  // connecting + awaiting

  // The call's outcome: the reply or the error that ended it. Closes an
  // attempt still in flight and samples the call's latency.
  auto settle = [&](std::size_t i, util::SysResult<DaemonMsg> result) {
    CallState& c = st[i];
    if (c.st == St::connecting || c.st == St::awaiting) {
      --active;
      inflight.sub(1);
    }
    if (c.fd >= 0) {
      (void)sys.close(c.fd);
      c.fd = -1;
    }
    c.st = St::done;
    if (result) ++ok;
    else failures.add(1);
    if (c.attempts > 0) {
      reg.histogram(std::string("daemon.rpc_") +
                    rpc_name(msg_type(calls[i].request)) + "_us")
          .record(util::count_us(sys.world().now() - c.begun));
    }
    calls[i].reply = std::move(result);
    ++done;
  };

  // One failed attempt: either give up (attempt cap, non-retryable error)
  // or close the socket and back off before the next fresh attempt.
  auto fail_attempt = [&](std::size_t i, Err e) {
    CallState& c = st[i];
    if (e == Err::etimedout) timeouts.add(1);
    const int cap = std::max(1, calls[i].opts.max_attempts);
    if (!retryable(e) || c.attempts >= cap) {
      settle(i, e);
      return;
    }
    --active;
    inflight.sub(1);
    (void)sys.close(c.fd);
    c.fd = -1;
    c.st = St::backoff;
    c.resume = sys.world().now() + c.pause;
    c.pause = std::min(c.pause + c.pause, kBackoffMax);
  };

  auto launch = [&](std::size_t i) {
    CallState& c = st[i];
    if (c.attempts++ == 0) c.begun = sys.world().now();
    c.buf.clear();
    auto fd = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    if (!fd) {
      settle(i, fd.error());
      return;
    }
    c.fd = *fd;
    c.deadline = sys.world().now() + calls[i].opts.deadline;
    c.st = St::connecting;
    ++active;
    inflight.add(1);
    auto begun = sys.connect_begin(*fd, calls[i].to);
    if (!begun) fail_attempt(i, begun.error());
  };

  // A completed connect: ship the request; the exchange then awaits its
  // framed reply on the same connection.
  auto on_writable = [&](std::size_t i) {
    CallState& c = st[i];
    auto fin = sys.connect_finish(c.fd);
    if (!fin) {
      if (fin.error() == Err::ewouldblock) return;  // spurious; still in flight
      fail_attempt(i, fin.error());
      return;
    }
    auto sent = send_msg(sys, c.fd, calls[i].request);
    if (!sent) {
      fail_attempt(i, sent.error());
      return;
    }
    c.st = St::awaiting;
  };

  auto on_readable = [&](std::size_t i) {
    CallState& c = st[i];
    auto data = sys.recv(c.fd, 8192);
    if (!data) {
      fail_attempt(i, data.error());
      return;
    }
    if (data->empty()) {
      fail_attempt(i, Err::econnreset);  // daemon died mid-reply
      return;
    }
    c.buf.insert(c.buf.end(), data->begin(), data->end());
    if (c.buf.size() < 4) return;
    const auto size = frame_size(c.buf.data());
    if (!size) {
      fail_attempt(i, Err::einval);  // garbage frame: not worth a retry
      return;
    }
    if (c.buf.size() < *size) return;  // reply still arriving
    util::Bytes wire(c.buf.begin(), c.buf.begin() + *size);
    auto msg = parse(wire);
    if (!msg) {
      fail_attempt(i, Err::einval);
      return;
    }
    // A nonce-carrying reply must echo the request's nonce. A mismatch is
    // a stale or crossed exchange: retry on a fresh connection — the
    // daemon's replay cache makes the retry safe.
    const std::uint64_t want = nonce_of(calls[i].request);
    const std::uint64_t got = nonce_of(*msg);
    if (want != 0 && got != 0 && want != got) {
      mismatches.add(1);
      fail_attempt(i, Err::econnreset);
      return;
    }
    settle(i, std::move(*msg));
  };

  while (done < calls.size()) {
    const util::TimePoint now = sys.world().now();

    // Fill the window: fresh calls first, then retries whose backoff ended.
    for (std::size_t i = 0; i < calls.size() && active < kRpcWindow; ++i) {
      if (st[i].st == St::idle) {
        launch(i);
      } else if (st[i].st == St::backoff && now >= st[i].resume) {
        retries.add(1);
        launch(i);
      }
    }
    if (done >= calls.size()) break;

    std::vector<Fd> read_fds;
    std::vector<Fd> write_fds;
    std::optional<util::TimePoint> wake;
    auto propose = [&wake](util::TimePoint t) {
      if (!wake || t < *wake) wake = t;
    };
    for (std::size_t i = 0; i < calls.size(); ++i) {
      switch (st[i].st) {
        case St::connecting:
          write_fds.push_back(st[i].fd);
          propose(st[i].deadline);
          break;
        case St::awaiting:
          read_fds.push_back(st[i].fd);
          propose(st[i].deadline);
          break;
        case St::backoff:
          propose(st[i].resume);
          break;
        default:
          break;
      }
    }
    std::optional<util::Duration> timeout;
    if (wake) timeout = *wake > now ? *wake - now : util::Duration{0};

    auto sel = sys.select(read_fds, write_fds, /*child_events=*/false,
                          timeout);
    if (!sel) break;  // the controller process is being torn down

    auto index_of = [&](Fd fd, St want) -> std::optional<std::size_t> {
      for (std::size_t i = 0; i < calls.size(); ++i) {
        if (st[i].st == want && st[i].fd == fd) return i;
      }
      return std::nullopt;
    };
    for (Fd fd : sel->writable) {
      if (auto i = index_of(fd, St::connecting)) on_writable(*i);
    }
    for (Fd fd : sel->readable) {
      if (auto i = index_of(fd, St::awaiting)) on_readable(*i);
    }

    // Deadline sweep: any attempt (connecting or awaiting) past its bound
    // fails with etimedout.
    const util::TimePoint after = sys.world().now();
    for (std::size_t i = 0; i < calls.size(); ++i) {
      if ((st[i].st == St::connecting || st[i].st == St::awaiting) &&
          after >= st[i].deadline) {
        fail_attempt(i, Err::etimedout);
      }
    }
  }

  // Torn down mid-run (select failure): account the unfinished calls.
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (st[i].st != St::done) settle(i, Err::etimedout);
  }
  return ok;
}

util::SysResult<DaemonMsg> rpc_call(Sys& sys, const net::SockAddr& to,
                                    const DaemonMsg& request,
                                    const RpcOptions& opts) {
  std::vector<PipelinedCall> one(1);
  one[0].to = to;
  one[0].request = request;
  one[0].opts = opts;
  run_pipeline(sys, one);
  return std::move(one[0].reply);
}

}  // namespace dpm::daemon
