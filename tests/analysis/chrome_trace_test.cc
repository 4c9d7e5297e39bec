// Chrome trace_event export: schema-valid documents with the expected
// lanes, flows, and critical-path track — and a checker that actually
// rejects malformed documents.
#include <gtest/gtest.h>

#include "analysis/live/aggregator.h"
#include "analysis/live/chrome_trace.h"
#include "analysis/trace_reader.h"
#include "analysis_testing.h"

namespace dpm::analysis::live {
namespace {

using analysis_testing::Stamp;
using meter::MeterAccept;
using meter::MeterConnect;
using meter::MeterRecv;
using meter::MeterSend;

/// Two machines, one joined channel, two matched cross-machine pairs.
LiveAnalysis paired_analysis() {
  const Trace trace = read_trace(analysis_testing::trace_text({
      {Stamp{0, 100, 0}, MeterConnect{1, 0, 5, "X", "Y"}},
      {Stamp{1, 120, 0}, MeterAccept{2, 0, 7, 9, "Y", "X"}},
      {Stamp{0, 1000, 0}, MeterSend{1, 0, 5, 64, ""}},
      {Stamp{1, 1400, 0}, MeterRecv{2, 0, 9, 64, ""}},
      {Stamp{1, 1500, 0}, MeterSend{2, 0, 9, 32, ""}},
      {Stamp{0, 1900, 0}, MeterRecv{1, 0, 5, 32, ""}},
  }));
  LiveAnalysis live;
  for (const Event& e : trace.events) live.add_event(e, trace.names);
  return live;
}

TEST(ChromeTrace, ExportsValidDocumentWithFlowsAndCriticalPath) {
  LiveAnalysis live = paired_analysis();
  const std::string json = chrome_trace_json(live);
  const ChromeTraceCheck check = check_chrome_trace(json);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.slices, live.events() + live.critical_path().steps.size());
  EXPECT_EQ(check.flow_pairs, 2u);
  EXPECT_EQ(check.cross_machine_flow_pairs, 2u);
  EXPECT_TRUE(check.has_critical_path);
}

TEST(ChromeTrace, OptionsSuppressFlowsAndCriticalPath) {
  LiveAnalysis live = paired_analysis();
  ChromeTraceOptions opts;
  opts.flows = false;
  opts.critical_path = false;
  const ChromeTraceCheck check =
      check_chrome_trace(chrome_trace_json(live, opts));
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.slices, live.events());  // event slices only
  EXPECT_EQ(check.flow_pairs, 0u);
  EXPECT_EQ(check.cross_machine_flow_pairs, 0u);
  EXPECT_FALSE(check.has_critical_path);
}

TEST(ChromeTrace, EmptyAnalysisStillValidates) {
  LiveAnalysis live;
  const ChromeTraceCheck check = check_chrome_trace(chrome_trace_json(live));
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.slices, 0u);
  EXPECT_EQ(check.flow_pairs, 0u);
}

TEST(ChromeTrace, CheckerRejectsMalformedDocuments) {
  EXPECT_FALSE(check_chrome_trace("not json at all").ok);
  EXPECT_FALSE(check_chrome_trace("{}").ok);  // no traceEvents
  EXPECT_FALSE(check_chrome_trace(R"({"traceEvents": 7})").ok);
  // An entry without a phase.
  EXPECT_FALSE(check_chrome_trace(R"({"traceEvents": [{"pid": 1}]})").ok);
  // A slice missing its timestamp.
  EXPECT_FALSE(check_chrome_trace(
                   R"({"traceEvents": [{"ph": "X", "pid": 1, "tid": 1,)"
                   R"( "dur": 5, "name": "send"}]})")
                   .ok);
  // A flow start with no matching finish.
  EXPECT_FALSE(check_chrome_trace(
                   R"({"traceEvents": [{"ph": "s", "pid": 1, "tid": 1,)"
                   R"( "ts": 0, "id": 1, "name": "msg", "cat": "msg"}]})")
                   .ok);
}

TEST(ChromeTrace, SingleProcessHasCriticalPathButNoFlows) {
  // An unpaired single-process trace still gets its program-chain
  // critical-path lane; no message, no flow arrows.
  const Trace trace = read_trace(analysis_testing::trace_text({
      {Stamp{0, 0, 0}, MeterSend{1, 0, 5, 8, ""}},
      {Stamp{0, 10, 0}, MeterSend{1, 0, 5, 8, ""}},
  }));
  LiveAnalysis live;
  for (const Event& e : trace.events) live.add_event(e, trace.names);
  const ChromeTraceCheck check = check_chrome_trace(chrome_trace_json(live));
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.slices, live.events() + live.critical_path().steps.size());
  EXPECT_EQ(check.flow_pairs, 0u);
  EXPECT_TRUE(check.has_critical_path);
}

}  // namespace
}  // namespace dpm::analysis::live
