// Connection matching and the communication graph (§3.3 structural
// studies; §4.1 name-pairing recovery).
#include "analysis/structure.h"

#include <gtest/gtest.h>

#include "analysis_testing.h"

namespace dpm::analysis {
namespace {

using analysis_testing::Stamp;
using meter::MeterAccept;
using meter::MeterConnect;
using meter::MeterRecv;
using meter::MeterSend;

TEST(ConnectionMatcher, PairsConnectWithMirroredAccept) {
  // Client (machine 0, pid 1, sock 5) connects to listener named "131073"
  // (its own name "196612"); server (machine 1, pid 2) accepts: conn
  // socket 9.
  auto trace = analysis_testing::make_trace({
      {Stamp{0, 100, 0}, MeterConnect{1, 0, 5, "196612", "131073"}},
      {Stamp{1, 150, 0}, MeterAccept{2, 0, 7, 9, "131073", "196612"}},
  });
  ConnectionMatcher m(trace);
  EXPECT_EQ(m.matched_connections(), 1u);

  auto remote = m.remote_of(ProcKey{0, 1}, 5);
  ASSERT_TRUE(remote.has_value());
  EXPECT_EQ(remote->proc, (ProcKey{1, 2}));
  EXPECT_EQ(remote->sock, 9u);

  auto back = m.remote_of(ProcKey{1, 2}, 9);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->proc, (ProcKey{0, 1}));
  EXPECT_EQ(back->sock, 5u);
}

TEST(ConnectionMatcher, UnmatchedWhenNamesDoNotMirror) {
  auto trace = analysis_testing::make_trace({
      {Stamp{0, 100, 0}, MeterConnect{1, 0, 5, "196612", "131073"}},
      {Stamp{1, 150, 0}, MeterAccept{2, 0, 7, 9, "131073", "999999"}},
  });
  ConnectionMatcher m(trace);
  EXPECT_EQ(m.matched_connections(), 0u);
  EXPECT_FALSE(m.remote_of(ProcKey{0, 1}, 5).has_value());
}

TEST(ConnectionMatcher, OwnerOfNameFromConnect) {
  auto trace = analysis_testing::make_trace({
      {Stamp{0, 100, 0}, MeterConnect{1, 0, 5, "196612", "131073"}},
  });
  ConnectionMatcher m(trace);
  auto owner = m.owner_of_name(trace.names.intern("196612"));
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(owner->proc, (ProcKey{0, 1}));
  EXPECT_EQ(owner->sock, 5u);
  EXPECT_FALSE(m.owner_of_name(trace.names.intern("nope")).has_value());
}

TEST(CommGraph, StreamEdgeFromSendRecords) {
  auto trace = analysis_testing::make_trace({
      {Stamp{0, 100, 0}, MeterConnect{1, 0, 5, "196612", "131073"}},
      {Stamp{1, 150, 0}, MeterAccept{2, 0, 7, 9, "131073", "196612"}},
      {Stamp{0, 200, 0}, MeterSend{1, 0, 5, 64, ""}},
      {Stamp{0, 300, 0}, MeterSend{1, 0, 5, 36, ""}},
      {Stamp{1, 400, 0}, MeterRecv{2, 0, 9, 100, ""}},
  });
  CommGraph g = build_comm_graph(trace);
  const CommEdge* e = g.edge(ProcKey{0, 1}, ProcKey{1, 2});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->messages, 2u);  // send-side counts are authoritative
  EXPECT_EQ(e->bytes, 100u);
  // No reverse edge (no reverse traffic).
  EXPECT_EQ(g.edge(ProcKey{1, 2}, ProcKey{0, 1}), nullptr);
}

TEST(CommGraph, ReceiveSideFallbackWhenSenderUnmetered) {
  // Only the acceptor is metered: its receive records still produce an
  // edge from the (known, by pairing) connector.
  auto trace = analysis_testing::make_trace({
      {Stamp{0, 100, 0}, MeterConnect{1, 0, 5, "196612", "131073"}},
      {Stamp{1, 150, 0}, MeterAccept{2, 0, 7, 9, "131073", "196612"}},
      {Stamp{1, 400, 0}, MeterRecv{2, 0, 9, 80, ""}},
  });
  CommGraph g = build_comm_graph(trace);
  const CommEdge* e = g.edge(ProcKey{0, 1}, ProcKey{1, 2});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->bytes, 80u);
}

TEST(CommGraph, DatagramEdgesFromReceiveRecords) {
  // Datagram sender connected first (so its name is attributable); the
  // receiver's records carry sourceName.
  auto trace = analysis_testing::make_trace({
      {Stamp{0, 100, 0}, MeterConnect{1, 0, 5, "196612", "131073"}},
      {Stamp{1, 300, 0}, MeterRecv{2, 0, 7, 48, "196612"}},
      {Stamp{1, 350, 0}, MeterRecv{2, 0, 7, 48, "196612"}},
  });
  CommGraph g = build_comm_graph(trace);
  const CommEdge* e = g.edge(ProcKey{0, 1}, ProcKey{1, 2});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->messages, 2u);
  EXPECT_EQ(e->bytes, 96u);
}

TEST(CommGraph, NodesCoverEveryProcessSeen) {
  auto trace = analysis_testing::make_trace({
      {Stamp{0, 1, 0}, MeterSend{1, 0, 5, 10, ""}},
      {Stamp{0, 2, 0}, MeterSend{2, 0, 6, 10, ""}},
      {Stamp{3, 3, 0}, MeterSend{1, 0, 7, 10, ""}},
  });
  CommGraph g = build_comm_graph(trace);
  EXPECT_EQ(g.nodes.size(), 3u);  // (0,1), (0,2), (3,1)
}

}  // namespace
}  // namespace dpm::analysis
