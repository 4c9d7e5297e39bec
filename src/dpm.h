// dpm — A Distributed Programs Monitor for Berkeley UNIX (ICDCS 1985),
// reproduced as a C++20 library over a deterministic 4.2BSD simulation.
//
// Umbrella header: include this to get the whole public API.
//
//   kernel::World            the simulated distributed system
//   kernel::Sys              the 4.2BSD-like syscall surface (+ setmeter)
//   meter::*                 <meterflags.h> / <metermsgs.h> equivalents
//   filter::*                descriptions, templates, the filter engine
//   daemon::*                the meterdaemon and its RPC protocol
//   control::MonitorSession  the user's terminal: drive the controller
//   analysis::*              statistics, structure, ordering, parallelism
//   apps::*                  ready-made metered workloads
//
// See README.md for a quickstart and DESIGN.md for the paper mapping.
#pragma once

#include "analysis/comm_stats.h"      // IWYU pragma: export
#include "analysis/diagnose.h"        // IWYU pragma: export
#include "analysis/facts.h"           // IWYU pragma: export
#include "analysis/ordering.h"        // IWYU pragma: export
#include "analysis/parallelism.h"     // IWYU pragma: export
#include "analysis/report.h"          // IWYU pragma: export
#include "analysis/structure.h"       // IWYU pragma: export
#include "analysis/timeline.h"        // IWYU pragma: export
#include "analysis/trace_reader.h"    // IWYU pragma: export
#include "apps/apps.h"                // IWYU pragma: export
#include "control/controller.h"       // IWYU pragma: export
#include "control/job.h"              // IWYU pragma: export
#include "control/session.h"          // IWYU pragma: export
#include "daemon/meterdaemon.h"       // IWYU pragma: export
#include "daemon/protocol.h"          // IWYU pragma: export
#include "filter/count_filter.h"      // IWYU pragma: export
#include "filter/descriptions.h"      // IWYU pragma: export
#include "filter/filter_program.h"    // IWYU pragma: export
#include "filter/templates.h"         // IWYU pragma: export
#include "filter/trace.h"             // IWYU pragma: export
#include "kernel/syscalls.h"          // IWYU pragma: export
#include "kernel/world.h"             // IWYU pragma: export
#include "meter/meterflags.h"         // IWYU pragma: export
#include "meter/metermsgs.h"          // IWYU pragma: export
