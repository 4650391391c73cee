#include "simmpi/fiber.hpp"

#include <cxxabi.h>
#include <pthread.h>
#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "simmpi/runtime.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define ESP_FIB_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ESP_FIB_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define ESP_FIB_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ESP_FIB_TSAN 1
#endif
#endif
#ifdef ESP_FIB_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef ESP_FIB_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "the rank scheduler's context switch is written for x86-64"
#endif

// Saves the callee-saved registers, MXCSR and the x87 control word on the
// current stack, stores the stack pointer to *save_sp, and resumes the
// context whose stack pointer is next_sp (System V x86-64).
extern "C" void esp_fib_switch(void** save_sp, void* next_sp);
asm(R"(
  .text
  .globl esp_fib_switch
  .hidden esp_fib_switch
  .type esp_fib_switch,@function
  .p2align 4
esp_fib_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size esp_fib_switch, .-esp_fib_switch
)");

namespace esp::mpi::fib {

namespace {

constexpr std::size_t kStackBytes = 1 << 20;
constexpr std::size_t kGuardBytes = 4096;
/// Size of libstdc++'s per-thread __cxa_eh_globals (caught-exception
/// chain + uncaught count): each fiber keeps its own.
constexpr std::size_t kEhBytes = 16;
constexpr std::size_t kMapBytes = kStackBytes + kGuardBytes;
/// Stacks a thread keeps for its next run: a 64-rank job with its
/// analyzers, or a 256-rank job without, fits.
constexpr std::size_t kCachedStacks = 256;

/// Guarded stacks of finished runs, reused by the next run on the same
/// carrier: mapping, guarding and unmapping one per rank on every run cost
/// about 3 % of the carrier on a 64-rank run.
class StackCache {
 public:
  StackCache() = default;
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;
  ~StackCache() {
    for (void* m : free_) munmap(m, kMapBytes);
  }

  void* take() {
    if (!free_.empty()) {
      void* m = free_.back();
      free_.pop_back();
      return m;
    }
    void* m = mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) throw std::bad_alloc();
    mprotect(m, kGuardBytes, PROT_NONE);  // overflow faults, not corrupts
    return m;
  }

  void give(void* m) {
#ifdef ESP_FIB_ASAN
    // A finished fiber never unwinds its last frames: clear their redzones.
    __asan_unpoison_memory_region(m, kMapBytes);
#endif
    if (free_.size() < kCachedStacks)
      free_.push_back(m);
    else
      munmap(m, kMapBytes);
  }

 private:
  std::vector<void*> free_;
};

thread_local StackCache t_stacks;

/// A saved execution context: a fiber's, or the carrier's own.
struct Ctx {
  void* sp = nullptr;
  const void* stack_lo = nullptr;  ///< ASan: bounds of this context's stack.
  std::size_t stack_size = 0;
  void* tsan = nullptr;            ///< TSan fiber handle.
  unsigned char eh[kEhBytes] = {};
};

enum class State : std::uint8_t { Ready, Running, Parked, Idle, Busy, Done };

class Scheduler;

}  // namespace

struct Fiber {
  Scheduler* sched = nullptr;
  int rank = -1;
  State state = State::Ready;
  bool in_idle_list = false;
  bool wakeable = false;
  bool woken = false;
  RankContext* rc = nullptr;
  PureTask* task = nullptr;  ///< Work in flight on a helper, if any.
  const char* wait_what = nullptr;
  int wait_peer = -1;
  /// Clock and p-layer call count at the last idle wave (wedge detector).
  double wave_clock = -1.0;
  std::uint64_t wave_calls = 0;
  void* mapping = nullptr;
  Ctx ctx;
};

namespace {

thread_local Fiber* t_current = nullptr;
thread_local Scheduler* t_sched = nullptr;  ///< The one run_fibers runs.

[[noreturn]] void trampoline();

class Scheduler {
 public:
  Scheduler(int n, const std::function<void(int)>& main,
            const std::function<void(const char*)>& wedged)
      : main_fn_(main),
        wedged_(wedged),
        eh_(abi::__cxa_get_globals()),
        trace_(obs::trace_enabled()) {
#ifdef ESP_FIB_ASAN
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
      void* lo = nullptr;
      std::size_t size = 0;
      pthread_attr_getstack(&attr, &lo, &size);
      main_.stack_lo = lo;
      main_.stack_size = size;
      pthread_attr_destroy(&attr);
    }
#endif
#ifdef ESP_FIB_TSAN
    main_.tsan = __tsan_get_current_fiber();
#endif
    std::uint32_t mxcsr = 0;
    std::uint16_t fpucw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fpucw));
    fibers_.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      auto f = std::make_unique<Fiber>();
      f->sched = this;
      f->rank = r;
      void* m = t_stacks.take();
      f->mapping = m;
      auto* lo = static_cast<unsigned char*>(m) + kGuardBytes;
      f->ctx.stack_lo = lo;
      f->ctx.stack_size = kStackBytes;
      // Initial frame, popped by esp_fib_switch: control words, six
      // callee-saved registers, then "return" into the trampoline with the
      // stack aligned as at a call.
      auto top = reinterpret_cast<std::uintptr_t>(lo + kStackBytes) &
                 ~std::uintptr_t{15};
      auto* slot = reinterpret_cast<std::uint64_t*>(top - 16);
      slot[0] = reinterpret_cast<std::uint64_t>(&trampoline);
      slot[1] = 0;
      for (int i = 1; i <= 6; ++i) slot[-i] = 0;
      auto* ctl = reinterpret_cast<unsigned char*>(slot - 7);
      std::memcpy(ctl, &mxcsr, sizeof mxcsr);
      std::memcpy(ctl + 4, &fpucw, sizeof fpucw);
      f->ctx.sp = ctl;
#ifdef ESP_FIB_TSAN
      f->ctx.tsan = __tsan_create_fiber(0);
#endif
      fibers_.push_back(std::move(f));
    }
    // Unstarted fibers sort before every started one.
    for (auto& f : fibers_) push_ready(f.get(), -1.0);
    live_ = n;
  }

  /// Stacks go back in reverse, so the next run's rank r takes rank r's.
  ~Scheduler() {
    for (auto it = fibers_.rbegin(); it != fibers_.rend(); ++it) {
#ifdef ESP_FIB_TSAN
      __tsan_destroy_fiber((*it)->ctx.tsan);
#endif
      t_stacks.give((*it)->mapping);
    }
  }

  void run() {
    while (Fiber* f = next_runnable()) jump(main_, f, false);
    if (live_ > 0) wedged();
  }

  [[noreturn]] void start(Fiber* self) {
    try {
      main_fn_(self->rank);
    } catch (...) {
      std::fprintf(stderr, "esperf: exception escaped rank %d's fiber\n",
                   self->rank);
      std::terminate();
    }
    self->state = State::Done;
    self->rc = nullptr;
    --live_;
    ++events_;
    jump(self->ctx, next_runnable(), true);
    __builtin_unreachable();
  }

  /// Unstarted fibers are keyed before every clock, so this switches out
  /// while one is left. A switch puts the yielding fiber in the root's
  /// place and sifts it down once: the same ready set, so the same pops,
  /// as a push then a pop.
  void yield_point(Fiber* self) {
    const Slot me{slot_key(clock_of(self), self->rank), self};
    if (heap_.empty() || !before(heap_[0], me)) return;
    Fiber* next = heap_[0].f;
    self->state = State::Ready;
    replace_root(me);
    jump(self->ctx, take(next), false);
  }

  void park(Fiber* self, const char* what, int peer) {
    self->state = State::Parked;
    self->wait_what = what;
    self->wait_peer = peer;
    ++events_;
    switch_out(self);
  }

  void wake(Fiber* f, double t) {
    if (f->state == State::Idle && f->wakeable)
      f->woken = true;
    else if (f->state != State::Parked)
      return;
    ++events_;
    push_ready(f, std::max(clock_of(f), t));
  }

  bool idle(Fiber* self, bool wakeable) {
    self->state = State::Idle;
    self->wakeable = wakeable;
    self->woken = false;
    if (!self->in_idle_list) {
      self->in_idle_list = true;
      idle_.push_back(self);
    }
    switch_out(self);
    return self->woken;
  }

  void run_pure(Fiber* self, PureTask& t) {
    helpers::submit(t);
    self->task = &t;
    self->state = State::Busy;
    busy_.push_back(self);
    ++events_;
    switch_out(self);
  }

  void progressed() noexcept { ++events_; }

  std::string status(int r) const {
    const Fiber& f = *fibers_[static_cast<std::size_t>(r)];
    switch (f.state) {
      case State::Idle: return "idle";
      case State::Parked: {
        std::string s = "parked, waits on ";
        s += f.wait_what != nullptr ? f.wait_what : "?";
        if (f.wait_peer >= 0) s += " peer " + std::to_string(f.wait_peer);
        return s;
      }
      case State::Done: return "finished";
      default: return "running";
    }
  }

 private:
  static double clock_of(const Fiber* f) {
    return f->rc != nullptr ? f->rc->clock : 0.0;
  }
  static std::uint64_t calls_of(const Fiber* f) {
    return f->rc != nullptr ? f->rc->calls_made : 0;
  }
  /// A ready-heap entry: the fiber's (key, rank) inline as one unsigned
  /// integer (slot_key), so a sift reads no fiber and compares without a
  /// branch.
  struct Slot {
    unsigned __int128 key;
    Fiber* f;
  };
  /// The key's order-preserving bit image above the rank: integer order is
  /// (key, rank) order. Flipping the sign bit of a non-negative double, or
  /// every bit of a negative one, orders doubles as unsigned integers;
  /// adding +0.0 turns -0.0 into +0.0, equal as `==` has it. Keys are
  /// never NaN.
  static unsigned __int128 slot_key(double key, int rank) {
    const auto bits = std::bit_cast<std::uint64_t>(key + 0.0);
    const auto sign = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(bits) >> 63);
    const std::uint64_t ordered = bits ^ (sign | std::uint64_t{1} << 63);
    return static_cast<unsigned __int128>(ordered) << 32 |
           static_cast<std::uint32_t>(rank);
  }
  /// Strict order of the ready heap. Ranks are distinct, so it is total:
  /// the pop sequence does not depend on the heap's layout.
  static bool before(const Slot& a, const Slot& b) { return a.key < b.key; }

  void push_ready(Fiber* f, double key) {
    f->state = State::Ready;
    heap_.emplace_back();
    sift_up(heap_.size() - 1, {slot_key(key, f->rank), f});
  }

  /// Fill the hole at `i` with `s`, moving larger parents down.
  void sift_up(std::size_t i, const Slot& s) {
    while (i > 0 && before(s, heap_[(i - 1) / 2])) {
      heap_[i] = heap_[(i - 1) / 2];
      i = (i - 1) / 2;
    }
    heap_[i] = s;
  }

  /// Fill the hole at the root with `s`, moving smaller children up.
  void replace_root(const Slot& s) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (std::size_t c; (c = 2 * i + 1) < n; i = c) {
      if (c + 1 < n) c += before(heap_[c + 1], heap_[c]);
      if (!before(heap_[c], s)) break;
      heap_[i] = heap_[c];
    }
    heap_[i] = s;
  }

  /// Mark `f`, just taken off the heap, Running once its helper task (if
  /// any) finished.
  static Fiber* take(Fiber* f) {
    if (f->task != nullptr) {
      helpers::wait(*f->task);
      f->task = nullptr;
    }
    f->state = State::Running;
    return f;
  }

  /// The next fiber to run, marked Running: the ready minimum; else every
  /// busy fiber rejoins at once; else every idle fiber does. Null when
  /// nothing can ever run again; reports a wedge of idle fibers itself.
  Fiber* next_runnable() {
    for (;;) {
      if (!heap_.empty()) {
        Fiber* f = heap_[0].f;
        const Slot last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) replace_root(last);
        return take(f);
      }
      if (!busy_.empty()) {
        for (Fiber* f : busy_) push_ready(f, clock_of(f));
        busy_.clear();
        continue;
      }
      if (idle_.empty()) return nullptr;
      // Idle wave. A wave is quiet when nothing but idle polls happened
      // since the last one and none of them moved its clock or call count.
      bool quiet = events_ == wave_events_;
      for (Fiber* f : idle_) {
        if (f->state != State::Idle) continue;
        quiet = quiet && f->wave_clock == clock_of(f) &&
                f->wave_calls == calls_of(f);
        f->wave_clock = clock_of(f);
        f->wave_calls = calls_of(f);
      }
      wave_events_ = events_;
      quiet_waves_ = quiet ? quiet_waves_ + 1 : 0;
      if (quiet_waves_ == kQuietWaves) wedged();
      for (Fiber* f : idle_) {
        f->in_idle_list = false;
        if (f->state == State::Idle) push_ready(f, clock_of(f));
      }
      idle_.clear();
      if (heap_.empty()) return nullptr;
    }
  }

  void switch_out(Fiber* self) {
    Fiber* next = next_runnable();
    if (next != self) jump(self->ctx, next, false);
  }

  /// Leave `from` for `to` (null: the carrier's own context).
  void jump(Ctx& from, Fiber* to, bool exiting) {
    Ctx& dst = to != nullptr ? to->ctx : main_;
    std::memcpy(from.eh, eh_, kEhBytes);
    std::memcpy(eh_, dst.eh, kEhBytes);
    t_current = to;
    if (trace_)
      obs::bind_track(to != nullptr && to->rc != nullptr
                          ? to->rc->trace_track.get()
                          : nullptr);
#ifdef ESP_FIB_ASAN
    void* fake = nullptr;
    __sanitizer_start_switch_fiber(exiting ? nullptr : &fake, dst.stack_lo,
                                   dst.stack_size);
#else
    (void)exiting;
#endif
#ifdef ESP_FIB_TSAN
    __tsan_switch_to_fiber(dst.tsan, 0);
#endif
    esp_fib_switch(&from.sp, dst.sp);
#ifdef ESP_FIB_ASAN
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  }

  /// No live fiber can make progress again: every one is parked, or idle
  /// through kQuietWaves quiet waves.
  [[noreturn]] void wedged() {
    int parked = 0;
    int idle = 0;
    for (const auto& f : fibers_) {
      parked += f->state == State::Parked;
      idle += f->state == State::Idle;
    }
    const std::string why = "scheduler deadlock: " + std::to_string(parked) +
                            " rank(s) parked and " + std::to_string(idle) +
                            " idle, none can make progress";
    wedged_(why.c_str());
    std::abort();
  }

  const std::function<void(int)>& main_fn_;
  const std::function<void(const char*)>& wedged_;
  void* const eh_;  ///< The carrier's __cxa_eh_globals.
  const bool trace_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<Slot> heap_;
  std::vector<Fiber*> busy_;
  std::vector<Fiber*> idle_;
  Ctx main_;
  int live_ = 0;
  /// Wakes, parks, finishes, run_pure calls and progressed() so far.
  std::uint64_t events_ = 0;
  std::uint64_t wave_events_ = 0;  ///< events_ at the last idle wave.
  int quiet_waves_ = 0;            ///< Quiet idle waves in a row.
};

void trampoline() {
#ifdef ESP_FIB_ASAN
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  Fiber* self = t_current;
  self->sched->start(self);
}

}  // namespace

void run_fibers(int n, const std::function<void(int)>& main,
                const std::function<void(const char*)>& wedged) {
  if (t_current != nullptr)
    throw std::logic_error("Runtime::run called from inside a rank");
  Scheduler sched(n, main, wedged);
  t_sched = &sched;
  sched.run();
  t_sched = nullptr;
}

std::string status(int r) { return t_sched->status(r); }

Fiber* current() noexcept { return t_current; }

RankContext* current_rank() noexcept {
  return t_current != nullptr ? t_current->rc : nullptr;
}

void set_current_rank(RankContext* rc) noexcept {
  if (t_current != nullptr) t_current->rc = rc;
}

void yield_point() {
  if (Fiber* f = t_current) f->sched->yield_point(f);
}

void park(const char* what, int peer) {
  Fiber* f = t_current;
  if (f == nullptr) {
    std::fprintf(stderr,
                 "esperf: blocking wait on %s outside a rank fiber can never "
                 "complete\n",
                 what);
    std::abort();
  }
  f->sched->park(f, what, peer);
}

void wake(Fiber* f, double t) { f->sched->wake(f, t); }

bool idle(bool wakeable) {
  Fiber* f = t_current;
  return f != nullptr && f->sched->idle(f, wakeable);
}

void progressed() noexcept {
  if (Fiber* f = t_current) f->sched->progressed();
}

void run_pure(PureTask& task) {
  if (Fiber* f = t_current)
    f->sched->run_pure(f, task);
  else
    task.fn(task.arg);
}

}  // namespace esp::mpi::fib
