// Property test for the compiled rules: on the standard descriptions,
// FilterBytecode deciding each record straight off its wire bytes, with
// the accepted records rendered by trace_line_view, must produce exactly
// the reference filter's lines (decode + the interpreted Templates
// evaluator + trace_line), for random rule sets over random meter
// messages and for long runs of records through one compiled program.
#include <gtest/gtest.h>

#include <set>

#include "filter/bytecode.h"
#include "filter/oracle.h"
#include "filter/trace.h"
#include "meter/metermsgs.h"
#include "util/rng.h"

namespace dpm::filter {
namespace {

// Field pool mixing fields common to every record (header), fields of
// some types only (destName, newPid, sockName...), and one bogus name so
// rules can be infeasible everywhere.
const char* kFields[] = {"machine",  "type",   "pid",      "sock",
                         "msgLength", "cpuTime", "destName", "sockName",
                         "peerName",  "newPid",  "size",     "ghost"};
const char* kOps[] = {"=", "!=", "<", ">", "<=", ">="};

std::string random_name(util::Rng& rng) {
  // Socket names in this kernel render as decimal numbers (internet
  // names, Fig 3.3), but throw in the odd non-numeric string too.
  if (rng.bernoulli(0.2)) return "addr-" + std::to_string(rng.uniform(0, 4));
  return std::to_string(rng.uniform(0, 300000));
}

meter::MeterMsg random_msg(util::Rng& rng) {
  meter::MeterMsg m;
  const meter::Pid pid = static_cast<meter::Pid>(rng.uniform(1, 30));
  const meter::SocketId sock = rng.uniform(0, 8);
  switch (rng.uniform(0, 5)) {
    case 0:
      m.body = meter::MeterSend{pid, 0, sock,
                                static_cast<std::uint32_t>(rng.uniform(0, 2048)),
                                random_name(rng)};
      break;
    case 1:
      m.body = meter::MeterRecv{pid, 0, sock,
                                static_cast<std::uint32_t>(rng.uniform(0, 2048)),
                                random_name(rng)};
      break;
    case 2:
      m.body = meter::MeterFork{pid, 0, static_cast<meter::Pid>(pid + 1)};
      break;
    case 3:
      m.body = meter::MeterAccept{pid, 0, sock, sock + 1, random_name(rng),
                                  random_name(rng)};
      break;
    case 4:
      m.body = meter::MeterConnect{pid, 0, sock, random_name(rng),
                                   random_name(rng)};
      break;
    default:
      m.body = meter::MeterTermProc{pid, 0, 0};
      break;
  }
  m.header.machine = static_cast<std::uint16_t>(rng.uniform(0, 6));
  m.header.cpu_time = rng.uniform(0, 20000);
  m.header.proc_time = rng.uniform(0, 1000);
  return m;
}

std::string random_rules(util::Rng& rng) {
  std::string text;
  const int nrules = static_cast<int>(rng.uniform(1, 4));
  for (int r = 0; r < nrules; ++r) {
    std::string line;
    const int nclauses = static_cast<int>(rng.uniform(1, 3));
    for (int c = 0; c < nclauses; ++c) {
      if (!line.empty()) line += ", ";
      const std::string field = kFields[rng.uniform(0, 11)];
      line += field;
      const bool wildcard = rng.bernoulli(0.2);
      // '*' is only legal with '='; '#' discard works with any value.
      line += wildcard ? "=" : kOps[rng.uniform(0, 5)];
      if (rng.bernoulli(0.25)) line += "#";
      if (wildcard) {
        line += "*";
      } else {
        switch (rng.uniform(0, 3)) {
          case 0:  // integer literal, sometimes with leading zeros; type
                   // clauses draw near the described type numbers
            line += (rng.bernoulli(0.1) ? "00" : "") +
                    std::to_string(field == "type" ? rng.uniform(0, 11)
                                                   : rng.uniform(0, 2048));
            break;
          case 1:  // a name that may or may not be a field of the type
            line += kFields[rng.uniform(0, 11)];
            break;
          case 2:  // socket-name-like literal
            line += std::to_string(rng.uniform(0, 300000));
            break;
          default:  // non-numeric string literal
            line += "addr-" + std::to_string(rng.uniform(0, 4));
            break;
        }
      }
    }
    text += line + "\n";
  }
  return text;
}

/// Checks one record: the compiled path (with and without validate's
/// string scratch) renders exactly the reference line.
void expect_matches_oracle(const Descriptions& desc, const Templates& templ,
                           FilterBytecode& bytecode, const util::Bytes& wire,
                           const std::string& context) {
  const auto expected = oracle_line(desc, templ, wire.data(), wire.size());
  ASSERT_TRUE(expected.has_value()) << context;
  ASSERT_EQ(bytecode_line(desc, bytecode, wire.data(), wire.size()), expected)
      << context;
  ASSERT_EQ(bytecode_line(desc, bytecode, wire.data(), wire.size(),
                          /*scratch=*/false),
            expected)
      << context;
}

class CompiledEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST_P(CompiledEquivalence, MatchesInterpretedOnDecodedRecords) {
  // Decision level: the bytecode's accept bit and discard mask equal the
  // interpreted evaluator's accept bit and discard set on the decoded
  // record.
  util::Rng rng(GetParam() * 977);
  auto desc = Descriptions::parse(default_descriptions_text());
  ASSERT_TRUE(desc.has_value());

  for (int trial = 0; trial < 25; ++trial) {
    const std::string text = random_rules(rng);
    auto templ = Templates::parse(text);
    ASSERT_TRUE(templ.has_value()) << text;
    FilterBytecode bytecode = FilterBytecode::compile(*templ, *desc);

    for (int i = 0; i < 40; ++i) {
      const meter::MeterMsg msg = random_msg(rng);
      const util::Bytes wire = msg.serialize();
      auto rec = desc->decode(wire);
      ASSERT_TRUE(rec.has_value());
      const auto v = make_record_view(wire.data(), wire.size());
      const WirePlan* wp = desc->wire_plan(v->type);
      std::string_view strings[WirePlan::kMaxStringFields];
      ASSERT_TRUE(wp->validate(*v, strings));
      const FilterBytecode::Decision bd = bytecode.evaluate(*wp, *v, strings);
      const Templates::Decision id = templ->evaluate(*rec);
      ASSERT_EQ(bd.accept, id.accept)
          << "rules:\n" << text << "record: " << msg.pretty();
      std::set<std::string> discarded;
      for (std::size_t f = 0; bd.discard && f < bd.discard->size(); ++f) {
        if ((*bd.discard)[f]) discarded.insert(wp->field_names()[f]);
      }
      if (bd.accept) {
        ASSERT_EQ(discarded, id.discard) << "rules:\n" << text;
      } else {
        ASSERT_TRUE(discarded.empty());
      }
    }
  }
}

TEST_P(CompiledEquivalence, BytecodeMatchesCompiledAndInterpretedOnViews) {
  // Line level: each record decided by the compiled rules and rendered
  // from its wire view — with and without validate's string scratch —
  // equals the interpreted reference filter's line, byte for byte.
  util::Rng rng(GetParam() * 271 + 3);
  auto desc = Descriptions::parse(default_descriptions_text());
  ASSERT_TRUE(desc.has_value());

  for (int trial = 0; trial < 15; ++trial) {
    const std::string text = random_rules(rng);
    auto templ = Templates::parse(text);
    ASSERT_TRUE(templ.has_value()) << text;
    FilterBytecode bytecode = FilterBytecode::compile(*templ, *desc);

    for (int i = 0; i < 40; ++i) {
      const meter::MeterMsg msg = random_msg(rng);
      expect_matches_oracle(*desc, *templ, bytecode, msg.serialize(),
                            "rules:\n" + text + "record: " + msg.pretty());
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(CompiledEquivalence, BytecodeStaysEquivalentAcrossAdaptiveReorder) {
  // A long run of records of one type through one compiled program:
  // every record's decision and discard-edited line must match the
  // reference, however many records came before it.
  util::Rng rng(GetParam() * 8837 + 11);
  auto desc = Descriptions::parse(default_descriptions_text());
  ASSERT_TRUE(desc.has_value());

  // Multi-clause rules over one hot type, each led by a clause that never
  // fails, so records are rejected by a later clause of the rule.
  const std::string text =
      "type=1, pid>=0, msgLength>1024, pid<15, machine=2\n"
      "type=1, sock<100, pid>=15, msgLength<=64, machine=#*\n"
      "cpuTime>=0, machine<3, type=1, sock>2\n";
  auto templ = Templates::parse(text);
  ASSERT_TRUE(templ.has_value());
  FilterBytecode bytecode = FilterBytecode::compile(*templ, *desc);

  for (int i = 0; i < 1200; ++i) {
    meter::MeterMsg m;
    m.body = meter::MeterSend{
        static_cast<meter::Pid>(rng.uniform(1, 30)), 0,
        static_cast<meter::SocketId>(rng.uniform(0, 8)),
        static_cast<std::uint32_t>(rng.uniform(0, 2048)), random_name(rng)};
    m.header.machine = static_cast<std::uint16_t>(rng.uniform(0, 6));
    m.header.cpu_time = rng.uniform(0, 20000);
    expect_matches_oracle(*desc, *templ, bytecode, m.serialize(),
                          "at record " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(bytecode.ops_executed(), 1200u);
}

TEST_P(CompiledEquivalence, EmptyRuleSetAgrees) {
  util::Rng rng(GetParam() * 31 + 7);
  auto desc = Descriptions::parse(default_descriptions_text());
  ASSERT_TRUE(desc.has_value());
  const Templates empty;
  FilterBytecode bytecode = FilterBytecode::compile(empty, *desc);
  for (int i = 0; i < 50; ++i) {
    const meter::MeterMsg msg = random_msg(rng);
    expect_matches_oracle(*desc, empty, bytecode, msg.serialize(),
                          msg.pretty());
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(bytecode.ops_executed(), 0u);  // accept-all short-circuits
}

}  // namespace
}  // namespace dpm::filter
