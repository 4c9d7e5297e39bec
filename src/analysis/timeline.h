// Activity timeline: a text rendering of each process's life, with the
// machines' clocks aligned from the trace's own message constraints.
//
//   m1/p101 |##....####..######    |  '#' computing, '.' waiting for a
//   m2/p103 |  ####....##......####|      message (recvcall -> receive)
//
// This is the visual form of the parallelism measurement (§3.3): where
// the columns stack, processes overlap; where a row is dots, that process
// starves.
#pragma once

#include <string>

#include "analysis/facts.h"
#include "analysis/trace_reader.h"

namespace dpm::analysis {

struct TimelineOptions {
  int width = 64;           // buckets across the observation window
  bool show_legend = true;
};

std::string render_timeline(const Trace& trace, TimelineOptions opts = {});
/// The same rendering from facts already derived.
std::string render_timeline(const TraceFacts& facts, TimelineOptions opts = {});

}  // namespace dpm::analysis
