// CompiledTemplates: the rules compiled into FilterBytecode against the
// record descriptions must decide exactly like the interpreted evaluator,
// reading every operand straight off the record's wire bytes.
#include "filter/bytecode.h"

#include <gtest/gtest.h>

#include "filter/oracle.h"
#include "filter/trace.h"
#include "meter/metermsgs.h"

namespace dpm::filter {
namespace {

Descriptions standard_descriptions() {
  auto d = Descriptions::parse(default_descriptions_text());
  EXPECT_TRUE(d.has_value());
  return std::move(*d);
}

FilterBytecode compile(const std::string& rules, const Descriptions& desc) {
  auto templ = Templates::parse(rules);
  EXPECT_TRUE(templ.has_value()) << rules;
  return FilterBytecode::compile(*templ, desc);
}

Record decoded(const Descriptions& desc, const util::Bytes& wire) {
  auto rec = desc.decode(wire);
  EXPECT_TRUE(rec.has_value());
  return std::move(*rec);
}

/// Decides `wire` with the compiled rules the way FilterEngine does:
/// validated against its type's plan, strings resolved once.
FilterBytecode::Decision decide(FilterBytecode& bytecode,
                                const Descriptions& desc,
                                const util::Bytes& wire) {
  const auto v = make_record_view(wire.data(), wire.size());
  EXPECT_TRUE(v.has_value());
  const WirePlan* wp = desc.wire_plan(v->type);
  EXPECT_NE(wp, nullptr);
  std::string_view strings[WirePlan::kMaxStringFields];
  EXPECT_TRUE(wp->validate(*v, strings));
  return bytecode.evaluate(*wp, *v, strings);
}

meter::MeterMsg send_msg(std::uint16_t machine, meter::SocketId sock,
                         std::uint32_t len, const std::string& dest) {
  meter::MeterMsg m;
  m.body = meter::MeterSend{7, 0, sock, len, dest};
  m.header.machine = machine;
  m.header.cpu_time = 5000;
  return m;
}

TEST(CompiledTemplates, EmptyRuleSetAcceptsEverything) {
  const Descriptions desc = standard_descriptions();
  FilterBytecode bytecode = FilterBytecode::compile(Templates{}, desc);
  const auto d = decide(bytecode, desc, send_msg(1, 3, 10, "x").serialize());
  EXPECT_TRUE(d.accept);
  EXPECT_EQ(d.discard, nullptr);
}

TEST(CompiledTemplates, PaperRulesMatchInterpreted) {
  const Descriptions desc = standard_descriptions();
  const std::string rules =
      "machine=5, cpuTime<10000\n"
      "machine=0, type=1, sock=4, destName=228320140\n";
  auto templ = Templates::parse(rules);
  ASSERT_TRUE(templ.has_value());
  FilterBytecode bytecode = FilterBytecode::compile(*templ, desc);
  EXPECT_EQ(bytecode.program_count(), desc.size());

  const util::Bytes hit = send_msg(0, 4, 100, "228320140").serialize();
  const util::Bytes miss = send_msg(0, 5, 100, "228320140").serialize();
  EXPECT_TRUE(decide(bytecode, desc, hit).accept);
  EXPECT_FALSE(decide(bytecode, desc, miss).accept);
  EXPECT_TRUE(templ->evaluate(decoded(desc, hit)).accept);
  EXPECT_FALSE(templ->evaluate(decoded(desc, miss)).accept);
}

TEST(CompiledTemplates, DiscardMaskRendersLikeDiscardSet) {
  const Descriptions desc = standard_descriptions();
  auto templ = Templates::parse("machine=#*, pid=#*, type=1, msgLength>=64\n");
  ASSERT_TRUE(templ.has_value());
  FilterBytecode bytecode = FilterBytecode::compile(*templ, desc);

  const util::Bytes wire = send_msg(3, 2, 64, "name").serialize();
  const auto cd = decide(bytecode, desc, wire);
  ASSERT_TRUE(cd.accept);
  ASSERT_NE(cd.discard, nullptr);
  const Record rec = decoded(desc, wire);
  const Templates::Decision id = templ->evaluate(rec);
  ASSERT_TRUE(id.accept);
  const auto v = make_record_view(wire.data(), wire.size());
  std::string line;
  ASSERT_TRUE(
      trace_line_view(*desc.wire_plan(1), *v, cd.discard, nullptr, line));
  EXPECT_EQ(line, trace_line(rec, id.discard));
  // The mask really drops the fields.
  EXPECT_EQ(line.find("machine="), std::string::npos);
  EXPECT_EQ(line.find(" pid="), std::string::npos);
  EXPECT_NE(line.find("msgLength="), std::string::npos);
}

TEST(CompiledTemplates, FieldReferenceResolvedAgainstDescription) {
  const Descriptions desc = standard_descriptions();
  FilterBytecode bytecode = compile("type=8, sockName=peerName\n", desc);

  meter::MeterMsg same;
  same.body = meter::MeterAccept{1, 0, 4, 5, "131073", "131073"};
  meter::MeterMsg diff;
  diff.body = meter::MeterAccept{1, 0, 4, 5, "131073", "196612"};
  EXPECT_TRUE(decide(bytecode, desc, same.serialize()).accept);
  EXPECT_FALSE(decide(bytecode, desc, diff.serialize()).accept);
}

TEST(CompiledTemplates, LiteralEqualToFieldNameIsAFieldRef) {
  // The documented tie-break: a value token naming a field of the event's
  // record is a field reference — deterministically, per event type. On
  // SEND, "destName=pid" compares the destName string against the pid
  // field, not against the literal "pid".
  const Descriptions desc = standard_descriptions();
  auto templ = Templates::parse("type=1, destName=pid\n");
  ASSERT_TRUE(templ.has_value());
  FilterBytecode bytecode = FilterBytecode::compile(*templ, desc);

  meter::MeterMsg m;
  m.body = meter::MeterSend{7, 0, 3, 10, "7"};  // destName "7" == pid 7
  const util::Bytes ref_match = m.serialize();
  m.body = meter::MeterSend{7, 0, 3, 10, "pid"};  // the literal string
  const util::Bytes lit = m.serialize();

  EXPECT_TRUE(decide(bytecode, desc, ref_match).accept);
  EXPECT_FALSE(decide(bytecode, desc, lit).accept);
  // The interpreted evaluator agrees on the decoded records.
  EXPECT_TRUE(templ->evaluate(decoded(desc, ref_match)).accept);
  EXPECT_FALSE(templ->evaluate(decoded(desc, lit)).accept);
}

TEST(CompiledTemplates, InfeasibleRuleOnlySkippedForThatType) {
  // "newPid=8" can never hold for SEND (no such field) but selects FORKs.
  const Descriptions desc = standard_descriptions();
  FilterBytecode bytecode = compile("newPid=8\n", desc);

  meter::MeterMsg fork;
  fork.body = meter::MeterFork{1, 0, 8};
  EXPECT_TRUE(decide(bytecode, desc, fork.serialize()).accept);
  EXPECT_FALSE(
      decide(bytecode, desc, send_msg(0, 3, 10, "x").serialize()).accept);
}

TEST(CompiledTemplates, UnknownTypeHasNoProgram) {
  // Programs exist exactly for the described types; an undescribed type
  // has no plan, so there is nothing to evaluate (the engine counts its
  // records malformed).
  const Descriptions desc = standard_descriptions();
  FilterBytecode bytecode = compile("machine=1\n", desc);
  EXPECT_EQ(bytecode.program_count(), desc.size());
  EXPECT_EQ(desc.wire_plan(99), nullptr);
  EXPECT_EQ(desc.wire_plan(0), nullptr);
}

TEST(CompiledTemplates, TypeClauseFoldsLikeTheDecodedField) {
  // The header's traceType decodes sign-extended like every u32 field, so
  // a type clause decided at compile time must compare that value, not
  // the unsigned type number: type 4294967295 reads as -1.
  auto desc = Descriptions::parse(
      "TERMPROC 10, pid,0,4,10 pc,4,4,10 status,8,4,10\n"
      "BIG 4294967295, pid,0,4,10 pc,4,4,10 status,8,4,10\n");
  ASSERT_TRUE(desc.has_value());
  meter::MeterMsg m;
  m.body = meter::MeterTermProc{3, 0, 0};
  util::Bytes wire = m.serialize();
  for (std::size_t i = 22; i < 26; ++i) wire[i] = 0xff;  // traceType
  const Record rec = decoded(*desc, wire);

  for (const char* rules : {"type=-1\n", "type=4294967295\n", "type<0\n"}) {
    auto templ = Templates::parse(rules);
    ASSERT_TRUE(templ.has_value());
    FilterBytecode bytecode = FilterBytecode::compile(*templ, *desc);
    EXPECT_EQ(decide(bytecode, *desc, wire).accept,
              templ->evaluate(rec).accept)
        << rules;
  }
}

TEST(CompiledTemplates, OpsPerRecordDoNotDependOnHistory) {
  // A program is fixed at compile: a record costs the same ops on a fresh
  // program as after a long run of records of its type.
  const Descriptions desc = standard_descriptions();
  FilterBytecode bytecode = compile("pid>=0, msgLength>1024\n", desc);
  const util::Bytes small = send_msg(1, 3, 64, "x").serialize();
  auto ops_for_one = [&] {
    const std::uint64_t before = bytecode.ops_executed();
    EXPECT_FALSE(decide(bytecode, desc, small).accept);
    return bytecode.ops_executed() - before;
  };
  // pid>=0 holds, msgLength>1024 fails, reject.
  EXPECT_EQ(ops_for_one(), 3u);
  for (int i = 0; i < 300; ++i) (void)decide(bytecode, desc, small);
  EXPECT_EQ(ops_for_one(), 3u);
}

TEST(CompiledTemplates, DiscardDropsEveryFieldOfItsName) {
  // '#' drops every field of its name, as the reference filter's discard
  // set does. A description names each field once: one that names pid
  // twice, or a body field like the header's machine, is refused. So a
  // discarded name is one field, header (machine) or body (pid), and the
  // compiled mask drops it as the oracle does.
  EXPECT_FALSE(Descriptions::parse(
                   "SEND 1, pid,0,4,10 pid,4,4,10 machine,8,8,10\n")
                   .has_value());
  auto desc = Descriptions::parse(
      "SEND 1, pid,0,4,10 pc,4,4,10 sock,8,8,10 msgLength,16,4,10 "
      "destNameLen,20,4,10 destName,24,0,0\n");
  ASSERT_TRUE(desc.has_value());
  auto templ = Templates::parse("pid=#*, machine=#*\n");
  ASSERT_TRUE(templ.has_value());
  FilterBytecode bytecode = FilterBytecode::compile(*templ, *desc);

  const util::Bytes wire = send_msg(1, 3, 10, "x").serialize();
  const auto expected = oracle_line(*desc, *templ, wire.data(), wire.size());
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(expected->find("pid="), std::string::npos);
  EXPECT_EQ(expected->find("machine="), std::string::npos);
  EXPECT_NE(expected->find("sock="), std::string::npos);
  EXPECT_EQ(bytecode_line(*desc, bytecode, wire.data(), wire.size()),
            expected);
}

TEST(CompiledTemplates, IndicesPastSixteenBitsNameTheirOwnOperands) {
  // 65,536 rules that never match ahead of one that does: the last rule's
  // literal and discard-mask indices pass 16 bits and must still name its
  // own literal and mask. One described type keeps the programs small.
  auto desc = Descriptions::parse(
      "SEND 1, pid,0,4,10 pc,4,4,10 sock,8,8,10 msgLength,16,4,10 "
      "destNameLen,20,4,10 destName,24,0,0\n");
  ASSERT_TRUE(desc.has_value());
  std::string rules = "pid=-1, machine=#*\n";
  for (int i = 1; i < 65536; ++i) rules += "pid=-1\n";
  rules += "pid=7, sock=#*\n";
  auto templ = Templates::parse(rules);
  ASSERT_TRUE(templ.has_value());
  FilterBytecode bytecode = FilterBytecode::compile(*templ, *desc);

  const util::Bytes wire = send_msg(1, 3, 10, "x").serialize();  // pid 7
  const auto expected = oracle_line(*desc, *templ, wire.data(), wire.size());
  ASSERT_TRUE(expected.has_value());
  EXPECT_NE(*expected, "");
  EXPECT_EQ(bytecode_line(*desc, bytecode, wire.data(), wire.size()),
            expected);
}

TEST(CompiledTemplates, RecordLayoutMatchesDecodeOrder) {
  const Descriptions desc = standard_descriptions();
  for (std::uint32_t type : desc.types()) {
    const auto layout = desc.record_layout(type);
    EXPECT_EQ(desc.wire_plan(type)->field_names(), layout) << "type " << type;
    meter::MeterMsg m = meter::make_msg(static_cast<meter::EventType>(type));
    const Record rec = decoded(desc, m.serialize());
    ASSERT_EQ(rec.fields.size(), layout.size()) << "type " << type;
    for (std::size_t i = 0; i < layout.size(); ++i) {
      EXPECT_EQ(rec.fields[i].first, layout[i]) << "type " << type;
    }
  }
  EXPECT_TRUE(desc.record_layout(99).empty());
}

}  // namespace
}  // namespace dpm::filter
