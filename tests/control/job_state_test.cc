// The process state machine of Fig 4.2 and job bookkeeping.
#include "control/job.h"

#include <gtest/gtest.h>

#include "meter/meterflags.h"

namespace dpm::control {
namespace {

TEST(StateMachine, Fig42TransitionsExactly) {
  using S = ProcState;
  struct Case {
    S from, to;
    bool allowed;
  };
  const Case cases[] = {
      // From new: start or stop, never directly killed.
      {S::fresh, S::running, true},
      {S::fresh, S::stopped, true},
      {S::fresh, S::killed, false},  // "precautionary measure"
      {S::fresh, S::acquired, false},
      // Running <-> stopped; running completes to killed.
      {S::running, S::stopped, true},
      {S::running, S::killed, true},
      {S::running, S::fresh, false},
      {S::running, S::acquired, false},
      // Stopped resumes or is killed at removal.
      {S::stopped, S::running, true},
      {S::stopped, S::killed, true},
      {S::stopped, S::fresh, false},
      // "A process cannot be restarted once it has been killed."
      {S::killed, S::running, false},
      {S::killed, S::stopped, false},
      {S::killed, S::fresh, false},
      // "An acquired process cannot be stopped or killed, it can only be
      // metered."
      {S::acquired, S::running, false},
      {S::acquired, S::stopped, false},
      {S::acquired, S::killed, false},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(can_transition(c.from, c.to), c.allowed)
        << proc_state_name(c.from) << " -> " << proc_state_name(c.to);
  }
}

TEST(StateMachine, SelfTransitionsDisallowed) {
  for (ProcState s : {ProcState::fresh, ProcState::acquired,
                      ProcState::running, ProcState::stopped,
                      ProcState::killed}) {
    EXPECT_FALSE(can_transition(s, s));
  }
}

TEST(StateMachine, Names) {
  EXPECT_STREQ(proc_state_name(ProcState::fresh), "new");
  EXPECT_STREQ(proc_state_name(ProcState::acquired), "acquired");
  EXPECT_STREQ(proc_state_name(ProcState::killed), "killed");
}

TEST(Job, RemovableOnlyWhenNoNewOrRunning) {
  Job job;
  job.procs.push_back({"A", "red", 1, ProcState::killed, 0, ""});
  job.procs.push_back({"B", "green", 2, ProcState::stopped, 0, ""});
  job.procs.push_back({"C", "blue", 3, ProcState::acquired, 0, ""});
  EXPECT_TRUE(job.removable());
  job.procs.push_back({"D", "red", 4, ProcState::running, 0, ""});
  EXPECT_FALSE(job.removable());
  job.procs.back().state = ProcState::fresh;
  EXPECT_FALSE(job.removable());
}

TEST(Job, HasActiveUnlessAllKilled) {
  Job job;
  job.procs.push_back({"A", "red", 1, ProcState::killed, 0, ""});
  EXPECT_FALSE(job.has_active());
  job.procs.push_back({"B", "red", 2, ProcState::stopped, 0, ""});
  EXPECT_TRUE(job.has_active());
}

TEST(Job, FindByNameAndPid) {
  Job job;
  job.procs.push_back({"A", "red", 10, ProcState::fresh, 0, ""});
  job.procs.push_back({"B", "green", 10, ProcState::fresh, 0, ""});
  EXPECT_EQ(job.find("A")->machine, "red");
  EXPECT_EQ(job.find("nope"), nullptr);
  // Pids only mean something per machine (§3.5.1): the same pid on two
  // machines must resolve by (machine, pid).
  EXPECT_EQ(job.find_pid("green", 10)->name, "B");
  EXPECT_EQ(job.find_pid("blue", 10), nullptr);
}

TEST(Flags, UnionSemantics) {
  // §4.3: "If two setflags commands are executed, the set of active flags
  // is the union of the two groups of flags."
  auto m1 = apply_flag_tokens(0, {"send", "receive"}, nullptr);
  ASSERT_TRUE(m1.has_value());
  auto m2 = apply_flag_tokens(*m1, {"fork"}, nullptr);
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(*m2, meter::M_SEND | meter::M_RECEIVE | meter::M_FORK);
}

TEST(Flags, ExplicitResetWithMinus) {
  auto m = apply_flag_tokens(meter::M_SEND | meter::M_RECEIVE, {"-send"},
                             nullptr);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, meter::M_RECEIVE);
}

TEST(Flags, AllAndMinusAll) {
  auto all = apply_flag_tokens(0, {"all"}, nullptr);
  EXPECT_EQ(*all, meter::M_ALL);
  auto none = apply_flag_tokens(meter::M_ALL, {"-all"}, nullptr);
  EXPECT_EQ(*none, 0u);
}

TEST(Flags, UnknownFlagReported) {
  std::string bad;
  auto m = apply_flag_tokens(0, {"send", "bogus"}, &bad);
  EXPECT_FALSE(m.has_value());
  EXPECT_EQ(bad, "bogus");
}

TEST(Flags, PaperSessionFlagList) {
  // Appendix B: "setflags foo send receive fork accept connect".
  auto m = apply_flag_tokens(
      0, {"send", "receive", "fork", "accept", "connect"}, nullptr);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, meter::M_SEND | meter::M_RECEIVE | meter::M_FORK |
                    meter::M_ACCEPT | meter::M_CONNECT);
  EXPECT_EQ(meter::flags_to_string(*m), "send receive fork accept connect");
}

}  // namespace
}  // namespace dpm::control
