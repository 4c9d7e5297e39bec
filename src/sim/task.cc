#include "sim/task.h"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <system_error>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

#if !(defined(__x86_64__) && defined(__linux__))
#error "task fibers switch stacks in x86-64 SysV assembly: port switch_stack() to this target"
#endif

namespace dpm::sim {

// Pushes the callee-saved state (see SwitchFrame) onto the current stack,
// stores the stack pointer in *save_sp, loads load_sp and pops the same
// state from there: the switch returns on whichever stack last saved
// load_sp, or, the first time, into the task's start trampoline. Defined
// in the asm block below; it makes no system call.
void switch_stack(void** save_sp, void* load_sp) noexcept asm("dpm_sim_switch_stack");

namespace {

// What switch_stack leaves at the saved stack pointer, lowest address
// first. These are exactly the registers the x86-64 SysV ABI makes
// callee-saved, plus MXCSR and the x87 control word, whose control bits it
// also makes callee-saved. Task::start writes one by hand as a new task's
// first frame.
struct SwitchFrame {
  std::uint32_t mxcsr;
  std::uint16_t fpcw;
  std::uint16_t pad;
  void* r15;
  void* r14;
  void* r13;  // first frame: the function the trampoline calls
  void* r12;  // first frame: its argument
  void* rbx;
  void* rbp;  // first frame: null, ending frame-pointer walks
  void* ret;  // where the switch returns to
};
static_assert(sizeof(SwitchFrame) == 64, "switch_stack pushes 64 bytes");

}  // namespace

// The pushes and pops mirror SwitchFrame. Both stacks hold that layout at
// the swap, so one set of CFI describes the function on either side.
//
// A new task's first switch returns into the trampoline
// dpm_sim_fiber_start with r12 = its Task*, r13 = Task::entry and the
// stack pointer at the stack's 16-byte-aligned top, so the call lands with
// the ABI's alignment. rip is undefined there, which ends every unwind and
// backtrace at the task's first frame. The leading nop puts the return
// address (dpm_sim_fiber_entry) one byte in, so an unwinder's usual
// pc - 1 lookup still finds this FDE.
asm(R"(
  .pushsection .text
  .p2align 4
  .type dpm_sim_switch_stack, @function
dpm_sim_switch_stack:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size dpm_sim_switch_stack, .-dpm_sim_switch_stack

  .p2align 4
  .type dpm_sim_fiber_start, @function
dpm_sim_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  nop
dpm_sim_fiber_entry:
  movq %r12, %rdi
  call *%r13
  ud2
  .cfi_endproc
  .size dpm_sim_fiber_start, .-dpm_sim_fiber_start
  .popsection
)");

extern "C" char dpm_sim_fiber_entry[];  // the trampoline's return target

namespace {

// Usable stack per task, above one PROT_NONE guard page. Pages are only
// committed as a body touches them, so the size bounds recursion depth,
// not memory. It is sized for the asan build, whose redzones make frames
// larger: across the test suite the deepest body touched 8 KiB optimized
// and 36 KiB under asan.
constexpr std::size_t kStackBytes = 256 * 1024;

// The Itanium C++ ABI's per-thread exception state (__cxa_eh_globals): the
// stack of exceptions being handled and the count thrown but not yet
// caught. Every fiber of a thread shares the thread's copy, so each task
// keeps its own while parked (see Task::resume); otherwise a `throw;` in a
// handler that parked would rethrow whatever another task caught last.
struct EhGlobals {
  void* caught_exceptions = nullptr;
  unsigned int uncaught_exceptions = 0;
};

// Installs `next` as the thread's exception state and returns the old one.
// libstdc++ declares the struct only incomplete, so copy its bytes.
EhGlobals exchange_eh_globals(const EhGlobals& next) {
  void* live = abi::__cxa_get_globals();
  EhGlobals prev;
  std::memcpy(&prev, live, sizeof prev);
  std::memcpy(live, &next, sizeof next);
  return prev;
}

// AddressSanitizer tracks one stack per thread. These bracket every switch
// so it knows which stack runs: without them it misreads fiber frames and
// ignores the no-return calls (throws) made on them. No-ops otherwise.
void start_switch([[maybe_unused]] void** fake_stack_save,
                  [[maybe_unused]] const void* bottom,
                  [[maybe_unused]] std::size_t size) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}

void finish_switch([[maybe_unused]] void* fake_stack_save,
                   [[maybe_unused]] const void** bottom_old,
                   [[maybe_unused]] std::size_t* size_old) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}

}  // namespace

// A started task's stack and everything saved while it is switched out.
struct Task::Fiber {
  Fiber() : guard(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
    void* p = mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (p == MAP_FAILED) throw std::system_error(errno, std::generic_category(), "task stack");
    map = static_cast<char*>(p);
    // The stack grows down, so an overflowing body faults here instead of
    // writing into whatever is mapped below.
    if (mprotect(map, guard, PROT_NONE) != 0) {
      const int err = errno;
      munmap(map, guard + kStackBytes);
      throw std::system_error(err, std::generic_category(), "task stack guard");
    }
  }
  ~Fiber() { munmap(map, guard + kStackBytes); }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  char* stack() const { return map + guard; }

  const std::size_t guard;
  char* map = nullptr;
  void* sp = nullptr;         // the task's SwitchFrame, while parked
  void* caller_sp = nullptr;  // the resumer's, while the task runs
  EhGlobals eh;               // the task's exception state, while parked
  // AddressSanitizer bookkeeping: the task's fake frames while parked, and
  // the resumer's stack, which a switch back to it must name.
  void* fake_stack = nullptr;
  const void* caller_bottom = nullptr;
  std::size_t caller_size = 0;
};

Task::Task(std::string name) : name_(std::move(name)) {}

Task::~Task() {
  // The executive is responsible for aborting and draining tasks before
  // destruction; this is a backstop for abnormal teardown.
  if (started_ && !finished_) {
    request_abort();
    while (!finished_) resume();
  }
}

void Task::start(Body body) {
  assert(!started_);
  fiber_ = std::make_unique<Fiber>();
  started_ = true;
  body_ = std::move(body);
  // The first resume() pops this frame and returns into the trampoline,
  // which calls entry(this) on the stack's page-aligned top. The body
  // starts with the creating thread's rounding mode and exception masks.
  SwitchFrame first{};
  asm volatile("stmxcsr %0" : "=m"(first.mxcsr));
  asm volatile("fnstcw %0" : "=m"(first.fpcw));
  first.r13 = reinterpret_cast<void*>(&Task::entry);
  first.r12 = this;
  first.ret = dpm_sim_fiber_entry;
  auto* top = reinterpret_cast<SwitchFrame*>(fiber_->stack() + kStackBytes);
  fiber_->sp = std::memcpy(top - 1, &first, sizeof first);
}

void Task::entry(Task* task) noexcept {
  Fiber& f = *task->fiber_;
  finish_switch(nullptr, &f.caller_bottom, &f.caller_size);
  if (!task->abort_) {
    try {
      task->body_();
    } catch (const TaskAborted&) {
      // Normal forced-unwind path. Anything else escaping a body ends the
      // program: this function is noexcept.
    }
  }
  task->finished_ = true;
  // No fake frames to keep: this stack is unmapped once resume() returns.
  start_switch(nullptr, f.caller_bottom, f.caller_size);
  switch_stack(&f.sp, f.caller_sp);
  __builtin_unreachable();
}

void Task::resume() {
  assert(started_ && !finished_);
  Fiber& f = *fiber_;
  // The body runs with its own exception state; the resumer's is back in
  // place once the body parks or finishes.
  const EhGlobals mine = exchange_eh_globals(f.eh);
  void* fake_stack = nullptr;
  start_switch(&fake_stack, f.stack(), kStackBytes);
  switch_stack(&f.caller_sp, f.sp);
  finish_switch(fake_stack, nullptr, nullptr);
  f.eh = exchange_eh_globals(mine);
  if (finished_) fiber_.reset();
}

void Task::park() {
  Fiber& f = *fiber_;
  start_switch(&f.fake_stack, f.caller_bottom, f.caller_size);
  switch_stack(&f.sp, f.caller_sp);
  finish_switch(f.fake_stack, &f.caller_bottom, &f.caller_size);
  if (abort_) throw TaskAborted{};
}

void Task::request_abort() { abort_ = true; }

}  // namespace dpm::sim
