#include "common/helpers.hpp"

#include <linux/futex.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "obs/obs.hpp"

namespace esp::helpers {

namespace {

long futex(std::atomic<std::uint32_t>* addr, int op, std::uint32_t val) {
  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));
  return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), op, val,
                 nullptr, nullptr, 0);
}

std::atomic<bool> g_inline{false};

class Pool {
 public:
  static Pool& get() {
    static Pool* p = new Pool;  // never destroyed: threads are detached
    return *p;
  }

  void submit(PureTask* t) {
    {
      std::lock_guard lock(mu_);
      bytes_.push_back(t);
    }
    wake_one();
  }

  void post(void (*fn)(void*), void* arg) {
    {
      std::lock_guard lock(mu_);
      posts_.push_back({fn, arg});
    }
    wake_one();
  }

  void wait(PureTask* t) {
    while (!t->done.load(std::memory_order_acquire)) {
      if (run_bytes()) continue;
      waiters_.fetch_add(1);
      const std::uint32_t seen = done_seq_.load();
      if (!t->done.load(std::memory_order_acquire))
        futex(&done_seq_, FUTEX_WAIT_PRIVATE, seen);
      waiters_.fetch_sub(1);
    }
  }

 private:
  struct Post {
    void (*fn)(void*);
    void* arg;
  };

  Pool() {
    cpu_set_t set;
    const int cpus =
        sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
    for (int i = 0; i < std::max(1, cpus - 1); ++i)
      std::thread([this, i] { loop(i); }).detach();
  }

  void wake_one() {
    work_seq_.fetch_add(1);
    if (sleepers_.load() > 0) futex(&work_seq_, FUTEX_WAKE_PRIVATE, 1);
  }

  bool run_bytes() {
    PureTask* t = nullptr;
    {
      std::lock_guard lock(mu_);
      if (bytes_.empty()) return false;
      t = bytes_.front();
      bytes_.pop_front();
    }
    t->fn(t->arg);
    // The last touch of `t`: its owner may free it as soon as it sees done.
    t->done.store(true, std::memory_order_release);
    done_seq_.fetch_add(1);
    if (waiters_.load() > 0) futex(&done_seq_, FUTEX_WAKE_PRIVATE, INT_MAX);
    return true;
  }

  bool run_post() {
    Post p{};
    {
      std::lock_guard lock(mu_);
      if (posts_.empty()) return false;
      p = posts_.front();
      posts_.pop_front();
    }
    p.fn(p.arg);
    return true;
  }

  [[noreturn]] void loop(int index) {
    // Background work: a helper woken onto the carrier's core must not
    // preempt it, because every rank waits on the carrier. SCHED_BATCH
    // drops wakeup preemption, and a nicer helper loses a shared core.
    sched_param param{};
    pthread_setschedparam(pthread_self(), SCHED_BATCH, &param);
    setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), 5);
    if (obs::enabled())
      obs::name_current_thread("helper-" + std::to_string(index));
    for (;;) {
      const std::uint32_t seen = work_seq_.load();
      if (run_bytes() || run_post()) continue;
      sleepers_.fetch_add(1);
      futex(&work_seq_, FUTEX_WAIT_PRIVATE, seen);
      sleepers_.fetch_sub(1);
    }
  }

  std::mutex mu_;
  std::deque<PureTask*> bytes_;
  std::deque<Post> posts_;
  std::atomic<std::uint32_t> work_seq_{0};
  std::atomic<std::uint32_t> done_seq_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<int> waiters_{0};
};

}  // namespace

void submit(PureTask& t) {
  if (g_inline.load(std::memory_order_relaxed)) {
    t.fn(t.arg);
    t.done.store(true, std::memory_order_release);
  } else {
    Pool::get().submit(&t);
  }
}

void wait(PureTask& t) {
  if (!t.done.load(std::memory_order_acquire)) Pool::get().wait(&t);
}

void post(void (*fn)(void*), void* arg) {
  if (g_inline.load(std::memory_order_relaxed))
    fn(arg);
  else
    Pool::get().post(fn, arg);
}

void set_inline_for_testing(bool on) noexcept {
  g_inline.store(on, std::memory_order_relaxed);
}

}  // namespace esp::helpers
