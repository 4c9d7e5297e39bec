// Predicate DSL and online detector: spec parsing/compilation against the
// standard descriptions, and hand-built trace scenarios through
// LiveAnalysis + PredicateDetector — concurrent state overlap yields
// possibly (and definitely when the overlap survives ε), happens-before
// edges exclude ordered intervals, reach conjuncts gate on settled
// channels, wildcard selectors instantiate per observed process, and the
// settled frontier neither wedges on pairing races nor leaks send stamps.
#include <gtest/gtest.h>

#include "analysis/analysis_testing.h"
#include "analysis/live/aggregator.h"
#include "analysis/predicates/detector.h"
#include "analysis/predicates/predicate.h"

namespace dpm::analysis::pred {
namespace {

using dpm::analysis_testing::Stamp;
using meter::MeterAccept;
using meter::MeterConnect;
using meter::MeterRecv;
using meter::MeterRecvCall;
using meter::MeterSend;
using meter::MeterSockCrt;
using meter::MeterTermProc;

const filter::Descriptions& desc() {
  static const filter::Descriptions d =
      *filter::Descriptions::parse(filter::default_descriptions_text());
  return d;
}

using Events = std::vector<std::pair<Stamp, meter::MeterBody>>;

/// Feeds `events` through a LiveAnalysis with the detector subscribed,
/// finishes, and returns every verdict. `stats`/`status` report the
/// detector's final state when non-null.
std::vector<PredicateDetector::Verdict> run_detector(
    const Events& events, const std::string& spec, std::int64_t eps,
    PredicateDetector::Stats* stats = nullptr,
    std::vector<PredicateDetector::PredicateStatus>* status = nullptr) {
  live::LiveAnalysis live;
  PredicateDetector det(desc(), DetectorConfig{.epsilon_us = eps});
  live.add_observer(&det);
  std::string err;
  EXPECT_TRUE(det.add_predicate(spec, &err)) << err;
  const Trace tr = dpm::analysis_testing::make_trace(events);
  for (const Event& e : tr.events) live.add_event(e, tr.names);
  det.finish();
  if (stats != nullptr) *stats = det.stats();
  if (status != nullptr) *status = det.status();
  return det.take_verdicts();
}

// ---- spec parsing ---------------------------------------------------------

TEST(PredicateSpec, ParsesAndRoundTrips) {
  const std::string text =
      "wait: @0:* type=recvcall & @1:101 type=recvcall, sock>=10"
      " & reach @0:* -> @1:*";
  std::string err;
  const auto spec = PredicateSpec::parse(text, &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->name, "wait");
  ASSERT_EQ(spec->locals.size(), 2u);
  EXPECT_EQ(spec->locals[0].sel.machine, 0);
  EXPECT_FALSE(spec->locals[0].sel.pid.has_value());
  EXPECT_EQ(spec->locals[1].sel.pid, 101);
  ASSERT_EQ(spec->locals[1].clauses.size(), 2u);
  EXPECT_EQ(spec->locals[1].clauses[1].field, "sock");
  EXPECT_EQ(spec->locals[1].clauses[1].op, filter::CmpOp::ge);
  ASSERT_EQ(spec->reaches.size(), 1u);

  // Canonical text re-parses to the same structure.
  const auto again = PredicateSpec::parse(spec->to_string(), &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(again->to_string(), spec->to_string());
  EXPECT_EQ(again->locals.size(), spec->locals.size());
  EXPECT_EQ(again->reaches.size(), spec->reaches.size());
}

TEST(PredicateSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                                // no name
      "type=send",                       // no name prefix
      "p: ",                             // empty conjunct list
      "p: @0:* type=send & & @1:* pc=0", // empty conjunct between '&'s
      "p: @0:* type=send, , pc=0",       // empty clause between ','s
      "p: @zork type=send",              // bad selector
      "p: @0:* type",                    // clause without operator
      "p: @0:* type=",                   // clause without value
      "p: @0:* type!*",                  // wildcard with non-'='
      "p: type=send",                    // conjunct without '@'
      "p: @0:*",                         // conjunct without clauses
      "p: reach @0:* -> @1:*",           // reach only, no local conjunct
      "p: @0:* type=send & reach @0:*",  // reach without arrow
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(PredicateSpec::parse(text, &err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(PredicateSpec, CompileValidatesFieldsAndTypeNames) {
  std::string err;
  const auto unknown_field =
      PredicateSpec::parse("p: @0:* bogus=3", &err);
  ASSERT_TRUE(unknown_field.has_value());
  EXPECT_FALSE(
      CompiledPredicate::compile(*unknown_field, desc(), &err).has_value());
  EXPECT_NE(err.find("bogus"), std::string::npos);

  const auto unknown_type =
      PredicateSpec::parse("p: @0:* type=zork", &err);
  ASSERT_TRUE(unknown_type.has_value());
  EXPECT_FALSE(
      CompiledPredicate::compile(*unknown_type, desc(), &err).has_value());

  // A numeric type value canonicalizes to the event name the state holds.
  const auto numeric = PredicateSpec::parse("p: @0:* type=2", &err);
  ASSERT_TRUE(numeric.has_value());
  const auto compiled = CompiledPredicate::compile(*numeric, desc(), &err);
  ASSERT_TRUE(compiled.has_value()) << err;
  EXPECT_EQ(compiled->locals()[0].clauses[0].value,
            meter::event_name(static_cast<meter::EventType>(2)));
}

// ---- detection scenarios --------------------------------------------------

/// Two processes on different machines enter type=recvcall concurrently
/// (no messages, so no happens-before edges): A holds [1000,3000], B
/// holds [1500,3500] on their local clocks.
Events concurrent_overlap() {
  return {
      {Stamp{0, 1000, 0}, MeterRecvCall{100, 0, 10}},
      {Stamp{1, 1500, 0}, MeterRecvCall{101, 0, 11}},
      {Stamp{0, 3000, 0}, MeterSockCrt{100, 0, 50, 2, 1, 0}},
      {Stamp{1, 3500, 0}, MeterSockCrt{101, 0, 51, 2, 1, 0}},
      {Stamp{0, 5000, 0}, MeterTermProc{100, 0, 0}},
      {Stamp{1, 5500, 0}, MeterTermProc{101, 0, 0}},
  };
}

TEST(PredicateDetectorTest, ConcurrentOverlapYieldsPossiblyThenDefinitely) {
  PredicateDetector::Stats st;
  std::vector<PredicateDetector::PredicateStatus> status;
  const auto verdicts = run_detector(
      concurrent_overlap(), "w: @0:* type=recvcall & @1:* type=recvcall",
      /*eps=*/100, &st, &status);

  // The overlap [1500,3000] is 1500us wide, far beyond ε=100: the cut is
  // first witnessed as possibly (while B's interval is still open), then
  // upgraded to definitely once both ends are known.
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].kind, PredicateDetector::VerdictKind::possibly);
  EXPECT_EQ(verdicts[1].kind, PredicateDetector::VerdictKind::definitely);
  EXPECT_EQ(verdicts[0].occurrence, verdicts[1].occurrence);
  ASSERT_EQ(verdicts[1].witness.size(), 2u);
  EXPECT_EQ(verdicts[1].cut_lo_us, 1500);
  EXPECT_EQ(verdicts[1].cut_hi_us, 3000);
  EXPECT_EQ(verdicts[1].witness[0].proc, (ProcKey{0, 100}));
  EXPECT_EQ(verdicts[1].witness[1].proc, (ProcKey{1, 101}));

  EXPECT_EQ(st.events, 6u);
  EXPECT_EQ(st.settled, 6u);
  EXPECT_EQ(st.verdicts_possibly, 1u);
  EXPECT_EQ(st.verdicts_definitely, 1u);
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].strongest, 2);
  EXPECT_EQ(status[0].possibly_count, 1u);
  EXPECT_EQ(status[0].definitely_count, 1u);
}

TEST(PredicateDetectorTest, WideEpsilonDowngradesDefinitelyToPossibly) {
  // With ε=2000 the 1500us overlap no longer survives every skew
  // assignment (max_lo + ε = 3500 > min_hi = 3000): possibly still
  // fires, definitely must not.
  const auto verdicts = run_detector(
      concurrent_overlap(), "w: @0:* type=recvcall & @1:* type=recvcall",
      /*eps=*/2000);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].kind, PredicateDetector::VerdictKind::possibly);
}

TEST(PredicateDetectorTest, HappensBeforeExclusionSuppressesVerdicts) {
  // A's interval [1000,3000] is ordered before B's [5000,5500] by a
  // message: A sends after leaving the state, B receives before entering
  // it. No skew assignment can overlap hb-ordered intervals, so even a
  // huge ε yields nothing.
  const Events ordered = {
      {Stamp{0, 400, 0}, MeterConnect{100, 0, 10, "na", "nb"}},
      {Stamp{1, 600, 0}, MeterAccept{101, 0, 20, 11, "nb", "na"}},
      {Stamp{0, 1000, 0}, MeterRecvCall{100, 0, 10}},
      {Stamp{0, 3000, 0}, MeterSockCrt{100, 0, 50, 2, 1, 0}},
      {Stamp{0, 4000, 0}, MeterSend{100, 0, 10, 32, ""}},
      {Stamp{1, 4500, 0}, MeterRecv{101, 0, 11, 32, ""}},
      {Stamp{1, 5000, 0}, MeterRecvCall{101, 0, 11}},
      {Stamp{1, 5500, 0}, MeterSockCrt{101, 0, 51, 2, 1, 0}},
      {Stamp{0, 6000, 0}, MeterTermProc{100, 0, 0}},
      {Stamp{1, 6500, 0}, MeterTermProc{101, 0, 0}},
  };
  EXPECT_TRUE(run_detector(ordered,
                           "w: @0:* type=recvcall & @1:* type=recvcall",
                           /*eps=*/10000)
                  .empty());

  // The same local timings without the message are merely time-separated:
  // widening by ε=10000 overlaps them, so possibly fires. (B's opening
  // sockcrt binds it before A's interval — an instantiation only tracks
  // intervals from its binding on.)
  const Events unordered = {
      {Stamp{1, 400, 0}, MeterSockCrt{101, 0, 51, 2, 1, 0}},
      {Stamp{0, 1000, 0}, MeterRecvCall{100, 0, 10}},
      {Stamp{0, 3000, 0}, MeterSockCrt{100, 0, 50, 2, 1, 0}},
      {Stamp{1, 5000, 0}, MeterRecvCall{101, 0, 11}},
      {Stamp{1, 5500, 0}, MeterSockCrt{101, 0, 51, 2, 1, 0}},
      {Stamp{0, 6000, 0}, MeterTermProc{100, 0, 0}},
      {Stamp{1, 6500, 0}, MeterTermProc{101, 0, 0}},
  };
  const auto verdicts = run_detector(
      unordered, "w: @0:* type=recvcall & @1:* type=recvcall",
      /*eps=*/10000);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].kind, PredicateDetector::VerdictKind::possibly);
}

TEST(PredicateDetectorTest, TimeExclusionSuppressesAtSmallEpsilon) {
  // Same separated intervals, ε=100: A ends (3000) more than ε before B
  // starts (5000), so no skew assignment overlaps them. B binds early so
  // A's interval is actually tracked and the exclusion logic (not a
  // missing binding) is what suppresses the verdict.
  const Events separated = {
      {Stamp{1, 400, 0}, MeterSockCrt{101, 0, 51, 2, 1, 0}},
      {Stamp{0, 1000, 0}, MeterRecvCall{100, 0, 10}},
      {Stamp{0, 3000, 0}, MeterSockCrt{100, 0, 50, 2, 1, 0}},
      {Stamp{1, 5000, 0}, MeterRecvCall{101, 0, 11}},
      {Stamp{1, 5500, 0}, MeterSockCrt{101, 0, 51, 2, 1, 0}},
      {Stamp{0, 6000, 0}, MeterTermProc{100, 0, 0}},
      {Stamp{1, 6500, 0}, MeterTermProc{101, 0, 0}},
  };
  EXPECT_TRUE(run_detector(separated,
                           "w: @0:* type=recvcall & @1:* type=recvcall",
                           /*eps=*/100)
                  .empty());
}

TEST(PredicateDetectorTest, ReachConjunctGatesOnSettledChannels) {
  const std::string spec =
      "r: @0:* type=recvcall & @1:* type=recvcall & reach @0:* -> @1:*";

  // Concurrent overlap but no message ever flowed 0 -> 1: the reach
  // conjunct never certifies, so the cut is never reported.
  EXPECT_TRUE(run_detector(concurrent_overlap(), spec, /*eps=*/100).empty());

  // An early message (before either interval, so the intervals stay
  // concurrent) settles the 0 -> 1 channel edge and unlocks the verdict.
  const Events reached = {
      {Stamp{0, 100, 0}, MeterConnect{100, 0, 10, "na", "nb"}},
      {Stamp{1, 150, 0}, MeterAccept{101, 0, 20, 11, "nb", "na"}},
      {Stamp{0, 200, 0}, MeterSend{100, 0, 10, 32, ""}},
      {Stamp{1, 300, 0}, MeterRecv{101, 0, 11, 32, ""}},
      {Stamp{0, 1000, 0}, MeterRecvCall{100, 0, 10}},
      {Stamp{1, 1500, 0}, MeterRecvCall{101, 0, 11}},
      {Stamp{0, 3000, 0}, MeterSockCrt{100, 0, 50, 2, 1, 0}},
      {Stamp{1, 3500, 0}, MeterSockCrt{101, 0, 51, 2, 1, 0}},
      {Stamp{0, 5000, 0}, MeterTermProc{100, 0, 0}},
      {Stamp{1, 5500, 0}, MeterTermProc{101, 0, 0}},
  };
  const auto verdicts = run_detector(reached, spec, /*eps=*/100);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].kind, PredicateDetector::VerdictKind::possibly);
  EXPECT_EQ(verdicts[1].kind, PredicateDetector::VerdictKind::definitely);
}

TEST(PredicateDetectorTest, WildcardSelectorInstantiatesPerProcess) {
  PredicateDetector::Stats st;
  const auto verdicts = run_detector(concurrent_overlap(),
                                     "any: @* type=recvcall",
                                     /*eps=*/100, &st);
  // One instantiation per observed process; each interval is 2000us wide,
  // beyond ε, so each process gets possibly + definitely.
  EXPECT_EQ(st.instantiations, 2u);
  EXPECT_EQ(st.verdicts_possibly, 2u);
  EXPECT_EQ(st.verdicts_definitely, 2u);
  ASSERT_EQ(verdicts.size(), 4u);
  bool saw_a = false, saw_b = false;
  for (const auto& v : verdicts) {
    ASSERT_EQ(v.witness.size(), 1u);
    if (v.witness[0].proc == ProcKey{0, 100}) saw_a = true;
    if (v.witness[0].proc == ProcKey{1, 101}) saw_b = true;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST(PredicateDetectorTest, UnmatchedReceiveSettlesOnFinish) {
  // A receive with no send anywhere blocks the settled frontier (its
  // happens-before edge may still arrive) until finish() releases it.
  live::LiveAnalysis live;
  PredicateDetector det(desc(), DetectorConfig{.epsilon_us = 100});
  live.add_observer(&det);
  std::string err;
  ASSERT_TRUE(det.add_predicate("p: @0:* type=recv", &err)) << err;
  const Trace tr = dpm::analysis_testing::make_trace({
      {Stamp{0, 1000, 0}, MeterRecv{100, 0, 10, 32, ""}},
      {Stamp{0, 2000, 0}, MeterTermProc{100, 0, 0}},
  });
  for (const Event& e : tr.events) live.add_event(e, tr.names);
  EXPECT_EQ(det.stats().settled, 0u);
  EXPECT_EQ(det.stats().unsettled, 2u);
  det.finish();
  EXPECT_EQ(det.stats().settled, 2u);
  EXPECT_EQ(det.stats().unsettled, 0u);
  EXPECT_EQ(det.stats().verdicts_possibly, 1u);
}

/// A's send at 4000 is blocked behind an earlier unpaired receive on A
/// (sock 9 never joins — delayed meter chunks); B's receive at 4500 pairs
/// with that send. A's recvcall interval [1000,3000] is hb-ordered before
/// B's [5000,5500] through the message, so with the join intact no ε can
/// produce a verdict.
Events blocked_send_chain() {
  return {
      {Stamp{0, 300, 0}, MeterConnect{100, 0, 10, "na", "nb"}},
      {Stamp{1, 350, 0}, MeterAccept{101, 0, 20, 11, "nb", "na"}},
      {Stamp{0, 500, 0}, MeterRecv{100, 0, 9, 32, ""}},
      {Stamp{0, 1000, 0}, MeterRecvCall{100, 0, 10}},
      {Stamp{0, 3000, 0}, MeterSockCrt{100, 0, 50, 2, 1, 0}},
      {Stamp{0, 4000, 0}, MeterSend{100, 0, 10, 32, ""}},
      {Stamp{1, 4500, 0}, MeterRecv{101, 0, 11, 32, ""}},
      {Stamp{1, 5000, 0}, MeterRecvCall{101, 0, 11}},
      {Stamp{1, 5500, 0}, MeterSockCrt{101, 0, 51, 2, 1, 0}},
      // Filler keeps Lamport progress advancing so a park TTL can expire
      // within the trace.
      {Stamp{1, 5600, 0}, MeterSockCrt{101, 0, 52, 2, 1, 0}},
      {Stamp{1, 5700, 0}, MeterSockCrt{101, 0, 53, 2, 1, 0}},
      {Stamp{1, 5800, 0}, MeterSockCrt{101, 0, 54, 2, 1, 0}},
      {Stamp{0, 6000, 0}, MeterTermProc{100, 0, 0}},
      {Stamp{1, 6500, 0}, MeterTermProc{101, 0, 0}},
  };
}

TEST(PredicateDetectorTest, SettledSendWakesItsWaitingReceive) {
  // When the pairing TTL expels A's stuck receive, A's send settles — and
  // must wake B's waiting receive: the whole trace settles *live* (no
  // finish() needed), the message edge is joined (so the hb-ordered
  // intervals yield nothing even at a huge ε), and the consumed send
  // stamp is reclaimed. The TTL is sized so the expulsion lands *after*
  // B's receive has been announced as paired (the lost-wakeup shape) but
  // before the trace ends.
  live::LiveConfig lcfg;
  lcfg.park_ttl = 4;
  live::LiveAnalysis live(lcfg);
  PredicateDetector det(desc(), DetectorConfig{.epsilon_us = 10000});
  live.add_observer(&det);
  std::string err;
  ASSERT_TRUE(det.add_predicate("w: @0:* type=recvcall & @1:* type=recvcall",
                                &err))
      << err;
  const Trace tr = dpm::analysis_testing::make_trace(blocked_send_chain());
  for (const Event& e : tr.events) live.add_event(e, tr.names);

  const auto st = det.stats();
  EXPECT_EQ(st.settled, tr.events.size());
  EXPECT_EQ(st.unsettled, 0u);
  EXPECT_EQ(st.send_stamps, 0u);

  det.finish();
  EXPECT_TRUE(det.take_verdicts().empty());
}

TEST(PredicateDetectorTest, FinishJoinsWaitingReceiveInsteadOfSevering) {
  // Same chain with the TTL never firing: everything behind A's unpaired
  // receive is still buffered at finish(). Severing that one head must
  // cascade into real settlements — A's send records its stamp, B's
  // waiting receive joins it — rather than severing B's receive too and
  // dropping the happens-before edge (which would emit a bogus possibly).
  live::LiveAnalysis live;
  PredicateDetector det(desc(), DetectorConfig{.epsilon_us = 10000});
  live.add_observer(&det);
  std::string err;
  ASSERT_TRUE(det.add_predicate("w: @0:* type=recvcall & @1:* type=recvcall",
                                &err))
      << err;
  const Trace tr = dpm::analysis_testing::make_trace(blocked_send_chain());
  for (const Event& e : tr.events) live.add_event(e, tr.names);
  EXPECT_GT(det.stats().unsettled, 0u);

  det.finish();
  const auto st = det.stats();
  EXPECT_EQ(st.settled, tr.events.size());
  EXPECT_EQ(st.unsettled, 0u);
  EXPECT_TRUE(det.take_verdicts().empty());
}

TEST(PredicateDetectorTest, SendStampsArePrunedAndBounded) {
  // A datagram send whose destination name never resolves settles (and
  // stamps) immediately, then is expelled by the pairing TTL: the gap
  // notification must reclaim the stamp it left behind.
  {
    live::LiveConfig lcfg;
    lcfg.park_ttl = 2;
    live::LiveAnalysis live(lcfg);
    PredicateDetector det(desc(), DetectorConfig{.epsilon_us = 100});
    live.add_observer(&det);
    std::string err;
    ASSERT_TRUE(det.add_predicate("p: @0:* type=send", &err)) << err;
    const Trace tr = dpm::analysis_testing::make_trace({
        {Stamp{0, 100, 0}, MeterSend{100, 0, 9, 32, "nowhere"}},
        // Unrelated progress on another machine drives the TTL sweep.
        {Stamp{1, 200, 0}, MeterSockCrt{101, 0, 51, 2, 1, 0}},
        {Stamp{1, 300, 0}, MeterSockCrt{101, 0, 52, 2, 1, 0}},
        {Stamp{1, 400, 0}, MeterSockCrt{101, 0, 53, 2, 1, 0}},
        {Stamp{1, 500, 0}, MeterSockCrt{101, 0, 54, 2, 1, 0}},
        {Stamp{1, 600, 0}, MeterSockCrt{101, 0, 55, 2, 1, 0}},
    });
    for (const Event& e : tr.events) live.add_event(e, tr.names);
    EXPECT_EQ(det.stats().send_stamps, 0u);
    EXPECT_GE(det.stats().send_stamps_dropped, 1u);
  }

  // Stream sends whose receives never arrive leave no reclamation signal
  // at all: the cap keeps the retained stamps bounded.
  {
    live::LiveAnalysis live;
    PredicateDetector det(
        desc(), DetectorConfig{.epsilon_us = 100, .max_send_stamps = 2});
    live.add_observer(&det);
    std::string err;
    ASSERT_TRUE(det.add_predicate("p: @0:* type=send", &err)) << err;
    const Trace tr = dpm::analysis_testing::make_trace({
        {Stamp{0, 100, 0}, MeterConnect{100, 0, 10, "na", "nb"}},
        {Stamp{1, 150, 0}, MeterAccept{101, 0, 20, 11, "nb", "na"}},
        {Stamp{0, 1000, 0}, MeterSend{100, 0, 10, 32, ""}},
        {Stamp{0, 2000, 0}, MeterSend{100, 0, 10, 32, ""}},
        {Stamp{0, 3000, 0}, MeterSend{100, 0, 10, 32, ""}},
        {Stamp{0, 4000, 0}, MeterSend{100, 0, 10, 32, ""}},
        {Stamp{0, 5000, 0}, MeterSend{100, 0, 10, 32, ""}},
    });
    for (const Event& e : tr.events) live.add_event(e, tr.names);
    const auto st = det.stats();
    EXPECT_EQ(st.send_stamps, 2u);
    EXPECT_EQ(st.send_stamps_dropped, 3u);
  }
}

TEST(PredicateDetectorTest, TypeClauseAcceptsEverySpelling) {
  // A type clause may name an event in any case, by the description
  // file's name, or by number: each spelling compiles to the name the
  // state holds, so all of them find the same verdicts.
  auto verdicts_of = [](const Events& events, const std::string& type) {
    std::vector<std::tuple<int, std::int64_t, std::int64_t>> out;
    for (const auto& v :
         run_detector(events, "p: @0:* type=" + type, /*eps=*/100)) {
      out.emplace_back(static_cast<int>(v.kind), v.cut_lo_us, v.cut_hi_us);
    }
    return out;
  };
  const Events one_send = {
      {Stamp{0, 1000, 0}, MeterSend{100, 0, 10, 32, ""}},
      {Stamp{0, 2000, 0}, MeterTermProc{100, 0, 0}},
  };
  const auto sends = verdicts_of(one_send, "send");
  EXPECT_FALSE(sends.empty());
  for (const char* spelling : {"SEND", "Send", "1"}) {
    EXPECT_EQ(verdicts_of(one_send, spelling), sends) << spelling;
  }
  const Events one_recv = {
      {Stamp{0, 1000, 0}, MeterRecv{100, 0, 10, 32, ""}},
      {Stamp{0, 2000, 0}, MeterTermProc{100, 0, 0}},
  };
  const auto recvs = verdicts_of(one_recv, "recv");
  EXPECT_FALSE(recvs.empty());
  for (const char* spelling : {"RECEIVE", "2"}) {
    EXPECT_EQ(verdicts_of(one_recv, spelling), recvs) << spelling;
  }

  std::string err;
  const auto nope = PredicateSpec::parse("p: @0:* type=nope", &err);
  ASSERT_TRUE(nope.has_value()) << err;
  EXPECT_FALSE(CompiledPredicate::compile(*nope, desc(), &err).has_value());
  EXPECT_NE(err.find("nope"), std::string::npos) << err;
}

TEST(PredicateDetectorTest, RejectsDuplicateNamesAndBadSpecs) {
  PredicateDetector det(desc());
  std::string err;
  ASSERT_TRUE(det.add_predicate("p: @0:* type=send", &err)) << err;
  EXPECT_FALSE(det.add_predicate("p: @1:* type=recv", &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(det.add_predicate("q: @0:* bogus=1", &err));
  EXPECT_FALSE(det.add_predicate("not a spec", &err));
  EXPECT_EQ(det.stats().predicates, 1u);
}

}  // namespace
}  // namespace dpm::analysis::pred
