// full_report pinned byte for byte on three committed traces: a recorded
// quickstart session (3 machines, metered pingpong), a synthetic ring of
// three machines whose clocks disagree by tens of milliseconds, and a
// synthetic datagram sender whose sink loses 6 of 20 datagrams and
// starves. Any change to what the analyses derive or how the report
// renders shows up here as a diff against the expected text. A change
// meant to alter the report rewrites each .report file with
// full_report(read_trace(<its .trace>)) and reviews the diff.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/report.h"

namespace dpm::analysis {
namespace {

std::string golden(const std::string& name) {
  std::ifstream in(std::string(DPM_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void expect_golden_report(const std::string& name) {
  const Trace trace = read_trace(golden(name + ".trace"));
  EXPECT_EQ(trace.malformed, 0u);
  EXPECT_EQ(full_report(trace), golden(name + ".report"));
}

TEST(FullReportGolden, QuickstartSession) {
  expect_golden_report("quickstart");
}

TEST(FullReportGolden, SkewedClocks) { expect_golden_report("skewed"); }

TEST(FullReportGolden, DatagramLossAndStarvation) {
  expect_golden_report("lossy");
}

}  // namespace
}  // namespace dpm::analysis
