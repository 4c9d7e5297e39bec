// Fuzz tests for the filter's two input languages: the selection rules
// (templates, Figs 3.3–3.4) and the event record descriptions (Fig 3.2).
// Truncated, byte-flipped and randomly assembled texts never crash either
// parser. Every template text the parser accepts compiles, and the
// compiled rules render exactly the reference filter's line for each
// record; every description text it accepts yields wire plans that
// validate (and render) a record exactly when decode accepts it, and
// rules compiled against it render like the reference filter.
#include <gtest/gtest.h>

#include <string>

#include "filter/bytecode.h"
#include "filter/oracle.h"
#include "filter/trace.h"
#include "meter/metermsgs.h"
#include "util/rng.h"

namespace dpm::filter {
namespace {

// Fig 3.3's rules, and text shaped like the E3 benchmark's rule set.
const char* const kPaperRules =
    "machine=5, cpuTime<10000\n"
    "machine=0, type=1, sock=4, destName=228320140\n";
const char* const kBenchRules =
    "machine=5, cpuTime<10000\n"
    "machine=0, type=1, sock=4, destName=228320140\n"
    "type=8, sockName=peerName\n"
    "machine=#*, pid=#*, type=1, msgLength>128\n"
    "type=2, sourceName=228320140\n";

std::string random_name(util::Rng& rng) {
  switch (rng.uniform(0, 3)) {
    case 0: return "";
    case 1: return "228320140";
    case 2: return std::to_string(rng.uniform(0, 300000));
    default: {
      // Bytes the trace renderer escapes, and ones it does not.
      static const char kBytes[] = {' ', '%', '=', '\n', 'a', '7', '\0', '#'};
      std::string s(static_cast<std::size_t>(rng.uniform(1, 6)), 'x');
      for (char& c : s) c = kBytes[rng.uniform(0, 7)];
      return s;
    }
  }
}

/// A record of any of the ten standard event types, with values drawn
/// near the literals the rule texts use.
util::Bytes random_record(util::Rng& rng) {
  meter::MeterMsg m;
  const auto pid = static_cast<meter::Pid>(rng.uniform(1, 30));
  const auto sock = static_cast<meter::SocketId>(rng.uniform(0, 8));
  const auto len = static_cast<std::uint32_t>(rng.uniform(0, 2048));
  switch (rng.uniform(1, 10)) {
    case 1:
      m.body = meter::MeterSend{pid, 0, sock, len, random_name(rng)};
      break;
    case 2:
      m.body = meter::MeterRecv{pid, 0, sock, len, random_name(rng)};
      break;
    case 3: m.body = meter::MeterRecvCall{pid, 0, sock}; break;
    case 4: m.body = meter::MeterSockCrt{pid, 0, sock, 1, 1, 0}; break;
    case 5: m.body = meter::MeterDup{pid, 0, sock, sock + 1}; break;
    case 6: m.body = meter::MeterDestSock{pid, 0, sock}; break;
    case 7:
      m.body = meter::MeterFork{pid, 0, static_cast<meter::Pid>(pid + 1)};
      break;
    case 8:
      m.body = meter::MeterAccept{pid, 0, sock, sock + 1, random_name(rng),
                                  random_name(rng)};
      break;
    case 9:
      m.body = meter::MeterConnect{pid, 0, sock, random_name(rng),
                                   random_name(rng)};
      break;
    default:
      m.body = meter::MeterTermProc{
          pid, 0, static_cast<std::int32_t>(rng.uniform(-1, 3))};
      break;
  }
  m.header.machine = static_cast<std::uint16_t>(rng.uniform(0, 6));
  m.header.cpu_time = rng.uniform(-5, 20000);
  return m.serialize();
}

/// `text` cut at a random point, or with 1–4 of its bytes changed.
std::string mutate(util::Rng& rng, std::string text) {
  if (text.empty()) return text;
  const auto last = static_cast<std::int64_t>(text.size()) - 1;
  if (rng.bernoulli(0.3)) {
    text.resize(static_cast<std::size_t>(rng.uniform(0, last)));
    return text;
  }
  const int n = static_cast<int>(rng.uniform(1, 4));
  for (int k = 0; k < n; ++k) {
    const auto at = static_cast<std::size_t>(rng.uniform(0, last));
    text[at] = static_cast<char>(static_cast<unsigned char>(text[at]) ^
                                 rng.uniform(1, 255));
  }
  return text;
}

/// Rule-language tokens thrown together: fields, operators, values,
/// separators, comments and the odd arbitrary byte.
std::string clause_soup(util::Rng& rng) {
  static const char* const kTokens[] = {
      "machine", "type",  "pid",     "sock",      "msgLength", "cpuTime",
      "destName", "sockName", "peerName", "newPid", "size", "ghost",
      "=",       "!=",    "<",       ">",         "<=",        ">=",
      "*",       "#",     "#*",      "0",         "1",         "-1",
      "0001",    "1024",  "228320140", "9223372036854775807", "addr-1",
      ",",       ", ",    "\n",      " ",         "\t",        "//",
      "#",       "\r"};
  constexpr std::int64_t kCount = sizeof kTokens / sizeof kTokens[0];
  std::string text;
  const int n = static_cast<int>(rng.uniform(1, 40));
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.05)) {
      text += static_cast<char>(rng.uniform(0, 255));
    } else {
      text += kTokens[rng.uniform(0, kCount - 1)];
    }
  }
  return text;
}

class FilterDslFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FilterDslFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST_P(FilterDslFuzz, AcceptedTemplateTextsRenderLikeTheOracle) {
  util::Rng rng(GetParam() * 7919 + 5);
  auto desc = Descriptions::parse(default_descriptions_text());
  ASSERT_TRUE(desc.has_value());
  int accepted = 0;
  for (int i = 0; i < 120; ++i) {
    std::string text;
    switch (i % 3) {
      case 0: text = mutate(rng, kPaperRules); break;
      case 1: text = mutate(rng, kBenchRules); break;
      default: text = clause_soup(rng); break;
    }
    std::string error;
    auto templ = Templates::parse(text, &error);
    if (!templ) {
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    ++accepted;
    FilterBytecode bytecode = FilterBytecode::compile(*templ, *desc);
    EXPECT_EQ(bytecode.program_count(), desc->size());
    for (int r = 0; r < 50; ++r) {
      const util::Bytes wire = random_record(rng);
      const auto expected =
          oracle_line(*desc, *templ, wire.data(), wire.size());
      ASSERT_TRUE(expected.has_value());
      ASSERT_EQ(bytecode_line(*desc, bytecode, wire.data(), wire.size()),
                expected)
          << "rules:\n" << text;
    }
  }
  // Flips of values and truncations at line ends leave valid rule texts.
  EXPECT_GT(accepted, 0);
}

TEST_P(FilterDslFuzz, DescriptionTextsFailTypedOrValidateLikeDecode) {
  util::Rng rng(GetParam() * 104729 + 3);
  auto templ = Templates::parse(kBenchRules);
  ASSERT_TRUE(templ.has_value());
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string text = mutate(rng, default_descriptions_text());
    DescriptionError error;
    auto desc = Descriptions::parse(text, &error);
    if (!desc) {
      EXPECT_FALSE(error.message.empty()) << text;
      if (error.kind != DescriptionError::Kind::empty) {
        EXPECT_GT(error.line, 0) << error.message;
      }
      continue;
    }
    ++accepted;
    FilterBytecode bytecode = FilterBytecode::compile(*templ, *desc);
    for (int r = 0; r < 50; ++r) {
      util::Bytes wire = random_record(rng);
      if (rng.bernoulli(0.3)) {
        // Past the header, so the record still frames.
        const auto at = static_cast<std::size_t>(rng.uniform(
            static_cast<std::int64_t>(meter::kHeaderSize),
            static_cast<std::int64_t>(wire.size()) - 1));
        wire[at] = static_cast<std::uint8_t>(rng.uniform(0, 255));
      }
      const auto rec = desc->decode(wire);
      const auto v = make_record_view(wire.data(), wire.size());
      ASSERT_TRUE(v.has_value());
      const WirePlan* plan = desc->wire_plan(v->type);
      if (plan == nullptr) {
        EXPECT_FALSE(rec.has_value()) << text;
        continue;
      }
      std::string_view strings[WirePlan::kMaxStringFields];
      const bool valid = plan->validate(*v, strings);
      ASSERT_EQ(valid, plan->validate(*v)) << text;
      ASSERT_EQ(valid, rec.has_value()) << text;
      if (!valid) continue;
      std::string line;
      ASSERT_TRUE(trace_line_view(*plan, *v, nullptr, strings, line)) << text;
      ASSERT_EQ(line, trace_line(*rec, {})) << text;
      ASSERT_EQ(bytecode_line(*desc, bytecode, wire.data(), wire.size()),
                oracle_line(*desc, *templ, wire.data(), wire.size()))
          << text;
    }
  }
  // Flips inside field values leave valid description files.
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace dpm::filter
