#include "sim/task.h"

#include <cxxabi.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <system_error>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

namespace dpm::sim {
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
  ucontext_t self{};    // the task, while parked
  ucontext_t caller{};  // whoever resumed it, while it runs
  EhGlobals eh;         // the task's exception state, while parked
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
  ucontext_t& ctx = fiber_->self;
  getcontext(&ctx);
  ctx.uc_stack.ss_sp = fiber_->stack();
  ctx.uc_stack.ss_size = kStackBytes;
  ctx.uc_link = nullptr;  // entry() never returns
  // makecontext passes int arguments, so `this` travels in two halves.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx, reinterpret_cast<void (*)()>(&Task::entry), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
}

void Task::entry(unsigned hi, unsigned lo) noexcept {
  auto* task = reinterpret_cast<Task*>((std::uintptr_t{hi} << 32) | lo);
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
  setcontext(&f.caller);
}

void Task::resume() {
  assert(started_ && !finished_);
  Fiber& f = *fiber_;
  // The body runs with its own exception state; the resumer's is back in
  // place once the body parks or finishes.
  const EhGlobals mine = exchange_eh_globals(f.eh);
  void* fake_stack = nullptr;
  start_switch(&fake_stack, f.stack(), kStackBytes);
  swapcontext(&f.caller, &f.self);
  finish_switch(fake_stack, nullptr, nullptr);
  f.eh = exchange_eh_globals(mine);
  if (finished_) fiber_.reset();
}

void Task::park() {
  Fiber& f = *fiber_;
  start_switch(&f.fake_stack, f.caller_bottom, f.caller_size);
  swapcontext(&f.self, &f.caller);
  finish_switch(f.fake_stack, &f.caller_bottom, &f.caller_size);
  if (abort_) throw TaskAborted{};
}

void Task::request_abort() { abort_ = true; }

}  // namespace dpm::sim
