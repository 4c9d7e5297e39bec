// Text rendering of the analysis results — the human-readable reports the
// examples and EXPERIMENTS.md show.
#pragma once

#include <string>

#include "analysis/comm_stats.h"
#include "analysis/diagnose.h"
#include "analysis/facts.h"
#include "analysis/ordering.h"
#include "analysis/parallelism.h"
#include "analysis/timeline.h"

namespace dpm::analysis {

std::string render_comm_stats(const CommStats& stats);
std::string render_graph(const CommGraph& graph);
std::string render_ordering(const Trace& trace, const Ordering& ordering);
std::string render_parallelism(const ParallelismProfile& profile);
std::string render_connections(const std::vector<ConnStat>& conns);

/// Runs every analysis over a trace and concatenates the reports. The
/// sections share one TraceFacts, so the trace is matched, ordered and
/// aligned once.
std::string full_report(const Trace& trace);

}  // namespace dpm::analysis
