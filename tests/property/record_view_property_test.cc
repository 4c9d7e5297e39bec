// Property test for the zero-copy filter path: on random valid meter
// batches, RecordView field extraction must equal owned-Record extraction
// field for field, and FilterEngine (bytecode over wire views) must render
// exactly the owned-record reference filter's log, with matching
// counters, under random rule sets — whole-batch and chunked feeds alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "filter/filter_program.h"
#include "filter/oracle.h"
#include "filter/trace.h"
#include "meter/metermsgs.h"
#include "util/rng.h"

namespace dpm::filter {
namespace {

std::string random_name(util::Rng& rng) {
  if (rng.bernoulli(0.15)) return "";  // unknown peer (§4.1)
  if (rng.bernoulli(0.2)) return "addr-" + std::to_string(rng.uniform(0, 4));
  return std::to_string(rng.uniform(0, 300000));
}

/// A random message drawn from all ten event types.
meter::MeterMsg random_msg(util::Rng& rng) {
  using namespace meter;
  MeterMsg m;
  const Pid pid = static_cast<Pid>(rng.uniform(1, 30));
  const SocketId sock = rng.uniform(0, 8);
  switch (rng.uniform(0, 10)) {
    case 0:
      m.body = MeterSend{pid, 0, sock,
                         static_cast<std::uint32_t>(rng.uniform(0, 2048)),
                         random_name(rng)};
      break;
    case 1:
      m.body = MeterRecv{pid, 0, sock,
                         static_cast<std::uint32_t>(rng.uniform(0, 2048)),
                         random_name(rng)};
      break;
    case 2: m.body = MeterRecvCall{pid, 0, sock}; break;
    case 3:
      m.body = MeterSockCrt{pid, 0, sock,
                            static_cast<std::uint32_t>(rng.uniform(1, 3)),
                            static_cast<std::uint32_t>(rng.uniform(1, 3)), 0};
      break;
    case 4: m.body = MeterDup{pid, 0, sock, sock + 1}; break;
    case 5: m.body = MeterDestSock{pid, 0, sock}; break;
    case 6: m.body = MeterFork{pid, 0, static_cast<Pid>(pid + 1)}; break;
    case 7:
      m.body = MeterAccept{pid, 0, sock, sock + 1, random_name(rng),
                           random_name(rng)};
      break;
    case 8:
      m.body = MeterConnect{pid, 0, sock, random_name(rng), random_name(rng)};
      break;
    default:
      m.body = MeterTermProc{pid, 0, static_cast<std::int32_t>(rng.uniform(0, 3)) - 1};
      break;
  }
  m.header.machine = static_cast<std::uint16_t>(rng.uniform(0, 6));
  m.header.cpu_time = rng.uniform(0, 20000);
  m.header.proc_time = rng.uniform(0, 1000);
  return m;
}

// Same rule grammar as the compiled-equivalence property test: header
// fields, per-type fields, a bogus name, every operator, wildcards,
// discards, numeric / field-reference / string literals.
const char* kFields[] = {"machine",  "type",   "pid",      "sock",
                         "msgLength", "cpuTime", "destName", "sockName",
                         "peerName",  "newPid",  "size",     "ghost"};
const char* kOps[] = {"=", "!=", "<", ">", "<=", ">="};

std::string random_rules(util::Rng& rng) {
  std::string text;
  const int nrules = static_cast<int>(rng.uniform(0, 4));  // 0 = accept all
  for (int r = 0; r < nrules; ++r) {
    std::string line;
    const int nclauses = static_cast<int>(rng.uniform(1, 3));
    for (int c = 0; c < nclauses; ++c) {
      if (!line.empty()) line += ", ";
      const std::string field = kFields[rng.uniform(0, 11)];
      line += field;
      const bool wildcard = rng.bernoulli(0.2);
      line += wildcard ? "=" : kOps[rng.uniform(0, 5)];
      if (rng.bernoulli(0.25)) line += "#";
      if (wildcard) {
        line += "*";
      } else {
        switch (rng.uniform(0, 3)) {
          case 0:  // type clauses draw near the described type numbers
            line += (rng.bernoulli(0.1) ? "00" : "") +
                    std::to_string(field == "type" ? rng.uniform(0, 11)
                                                   : rng.uniform(0, 2048));
            break;
          case 1: line += kFields[rng.uniform(0, 11)]; break;
          case 2: line += std::to_string(rng.uniform(0, 300000)); break;
          default: line += "addr-" + std::to_string(rng.uniform(0, 4)); break;
        }
      }
    }
    text += line + "\n";
  }
  return text;
}

/// A batch of `n` random records; `per_type` (when non-null) counts the
/// records of each event type.
util::Bytes random_batch(util::Rng& rng, int n,
                         std::map<int, int>* per_type = nullptr) {
  util::Bytes out;
  for (int i = 0; i < n; ++i) {
    const meter::MeterMsg m = random_msg(rng);
    if (per_type) ++(*per_type)[static_cast<int>(m.type())];
    m.serialize_into(out);
  }
  return out;
}

class RecordViewProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RecordViewProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST_P(RecordViewProperty, ViewExtractionEqualsOwnedExtraction) {
  util::Rng rng(GetParam() * 1297);
  auto desc = Descriptions::parse(default_descriptions_text());
  ASSERT_TRUE(desc.has_value());

  const util::Bytes batch = random_batch(rng, 120);
  std::size_t pos = 0;
  int records = 0;
  while (pos < batch.size()) {
    const std::uint32_t size =
        static_cast<std::uint32_t>(batch[pos]) |
        static_cast<std::uint32_t>(batch[pos + 1]) << 8 |
        static_cast<std::uint32_t>(batch[pos + 2]) << 16 |
        static_cast<std::uint32_t>(batch[pos + 3]) << 24;
    auto v = make_record_view(batch.data() + pos, size);
    ASSERT_TRUE(v.has_value());
    auto rec = desc->decode(batch.data() + pos, size);
    ASSERT_TRUE(rec.has_value());
    pos += size;
    ++records;

    const WirePlan* wp = desc->wire_plan(v->type);
    ASSERT_NE(wp, nullptr);
    ASSERT_TRUE(wp->validate(*v));
    ASSERT_EQ(wp->field_count(), rec->fields.size());
    for (std::size_t i = 0; i < rec->fields.size(); ++i) {
      const auto fv = wp->field(*v, i);
      ASSERT_TRUE(fv.has_value());
      const FieldValue& ov = rec->fields[i].second;
      if (std::holds_alternative<std::int64_t>(ov)) {
        ASSERT_TRUE(std::holds_alternative<std::int64_t>(*fv))
            << rec->fields[i].first;
        EXPECT_EQ(std::get<std::int64_t>(ov), std::get<std::int64_t>(*fv));
      } else {
        ASSERT_TRUE(std::holds_alternative<std::string_view>(*fv))
            << rec->fields[i].first;
        EXPECT_EQ(std::get<std::string>(ov), std::get<std::string_view>(*fv));
      }
    }
  }
  EXPECT_EQ(records, 120);
}

/// Feeds `batch` (`records` random records) to a fresh engine whole on
/// connection 1 and in random chunks on connection 2. Both logs must equal
/// the owned-record reference filter's (decode + Templates::evaluate +
/// trace_line per record), and the counters must account every record.
void check_engine_against_oracle(const Descriptions& desc,
                                 const std::string& rules,
                                 const util::Bytes& batch, int records,
                                 std::size_t max_step, util::Rng& rng) {
  auto templ = Templates::parse(rules);
  ASSERT_TRUE(templ.has_value()) << rules;
  const std::string expected = oracle_log(desc, *templ, batch);

  FilterEngine engine(desc, *templ);
  ASSERT_EQ(engine.feed(1, batch), expected) << "rules:\n" << rules;

  // Chunked feed through the same engine: identical output again, and
  // chunk boundaries land mid-record (partial buffering path).
  std::string chunked;
  const std::size_t step = 1 + static_cast<std::size_t>(rng.uniform(1, max_step));
  for (std::size_t pos = 0; pos < batch.size(); pos += step) {
    const std::size_t n = std::min(step, batch.size() - pos);
    chunked += engine.feed(
        2, util::Bytes(batch.begin() + static_cast<std::ptrdiff_t>(pos),
                       batch.begin() + static_cast<std::ptrdiff_t>(pos + n)));
  }
  engine.end_connection(2);
  ASSERT_EQ(chunked, expected) << "rules:\n" << rules << "step " << step;

  const auto total = 2 * static_cast<std::uint64_t>(records);
  const auto accepted = static_cast<std::uint64_t>(
      std::count(expected.begin(), expected.end(), '\n'));
  const FilterStats st = engine.stats();
  EXPECT_EQ(st.records_in, total);
  EXPECT_EQ(st.accepted, 2 * accepted);
  EXPECT_EQ(st.rejected, total - 2 * accepted);
  EXPECT_EQ(st.malformed, 0u);
  EXPECT_EQ(st.truncated, 0u);
  EXPECT_EQ(st.bytes_out, 2 * expected.size());
  // The engine accounts its dispatch work (the accept-all short-circuit
  // of an empty rule set executes no ops by design).
  if (templ->rule_count() > 0) {
    EXPECT_GT(engine.obs().counter("filter.bytecode_ops").value(), 0u);
  }
}

TEST_P(RecordViewProperty, ViewEngineEqualsOwnedEngine) {
  // The engine against the owned-record reference filter on small random
  // batches of all ten event types.
  util::Rng rng(GetParam() * 733 + 5);
  auto desc = Descriptions::parse(default_descriptions_text());
  ASSERT_TRUE(desc.has_value());

  for (int trial = 0; trial < 8; ++trial) {
    const std::string rules = random_rules(rng);
    const util::Bytes batch = random_batch(rng, 60);
    ASSERT_NO_FATAL_FAILURE(
        check_engine_against_oracle(*desc, rules, batch, 60, 120, rng));
  }
}

TEST_P(RecordViewProperty, BytecodeEngineEqualsCompiledEngine) {
  // The bytecode engine against the owned-record reference filter, and
  // the same rules compiled into a standalone program that runs record by
  // record without the engine's reassembly or validate scratch. Batches
  // are large enough that every type sees hundreds of records inside one
  // feed, so each program runs far past its first few evaluations.
  util::Rng rng(GetParam() * 911 + 13);
  auto desc = Descriptions::parse(default_descriptions_text());
  ASSERT_TRUE(desc.has_value());

  constexpr int kRecords = 4000;
  for (int trial = 0; trial < 4; ++trial) {
    const std::string rules = random_rules(rng);
    std::map<int, int> per_type;
    const util::Bytes batch = random_batch(rng, kRecords, &per_type);
    ASSERT_EQ(per_type.size(), 10u);
    for (const auto& [type, n] : per_type) {
      ASSERT_GT(n, 256) << "type " << type;
    }
    ASSERT_NO_FATAL_FAILURE(
        check_engine_against_oracle(*desc, rules, batch, kRecords, 200, rng));

    auto templ = Templates::parse(rules);
    ASSERT_TRUE(templ.has_value()) << rules;
    FilterBytecode bytecode = FilterBytecode::compile(*templ, *desc);
    std::size_t pos = 0;
    while (pos < batch.size()) {
      const std::uint32_t size =
          static_cast<std::uint32_t>(batch[pos]) |
          static_cast<std::uint32_t>(batch[pos + 1]) << 8 |
          static_cast<std::uint32_t>(batch[pos + 2]) << 16 |
          static_cast<std::uint32_t>(batch[pos + 3]) << 24;
      ASSERT_EQ(bytecode_line(*desc, bytecode, batch.data() + pos, size,
                              /*scratch=*/false),
                oracle_line(*desc, *templ, batch.data() + pos, size))
          << "rules:\n" << rules << "record at " << pos;
      pos += size;
    }
  }
}

}  // namespace
}  // namespace dpm::filter
