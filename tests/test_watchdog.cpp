/// \file test_watchdog.cpp
/// \brief Death tests for sessions that cannot finish: a runaway or wedged
/// session must abort loudly with the per-rank dump instead of hanging
/// until an outer (ctest/CI) timeout kills it silently. A runaway one is
/// ended by the ESP_SESSION_DEADLINE virtual-time deadline; a wedged one
/// by the rank scheduler, with or without the deadline armed. The dump
/// names each rank's partition, clock, call count and state (running,
/// parked with its wait, idle, finished, dead, or failed with the
/// exception's text).
///
/// Uses gtest's fast death-test style: the parent process never launches
/// a Session (and so never starts the helper threads); the statement under
/// EXPECT_DEATH runs in the forked child, which inherits the environment
/// set immediately before. ctest gives each test a short timeout, so a
/// wedge that goes unreported fails fast instead of hanging CI.

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "core/session.hpp"
#include "simmpi/runtime.hpp"

namespace esp {
namespace {

/// Runaway workload: the virtual clock races ahead forever, so the
/// virtual-time deadline is crossed while ranks keep "running".
void run_runaway_session() {
  SessionConfig cfg;
  Session session(cfg);
  session.add_application("hot", 2, [](mpi::ProcEnv&) {
    for (;;) mpi::compute(1.0);  // virtual frontier blows past any deadline
  });
  session.run();
}

/// Wedged workload: rank 0 blocks on a receive no one will ever match, so
/// neither clocks nor call counts move while the analyzer readers poll for
/// its stream — the scheduler must report the wedge.
void run_wedged_session() {
  SessionConfig cfg;
  Session session(cfg);
  session.add_application("stuck", 2, [](mpi::ProcEnv& env) {
    if (env.world_rank == 0) {
      std::vector<std::byte> buf(64);
      env.world.recv(buf.data(), buf.size(), 1, /*tag=*/12345);  // no sender
    }
  });
  session.run();
}

/// Failing workload: rank 1 throws while rank 0 waits for its message.
void run_failing_session() {
  SessionConfig cfg;
  Session session(cfg);
  session.add_application("boom", 2, [](mpi::ProcEnv& env) {
    if (env.world_rank == 1) throw std::runtime_error("boom from rank 1");
    std::vector<std::byte> buf(64);
    env.world.recv(buf.data(), buf.size(), 1, /*tag=*/7);
  });
  session.run();
}

class WatchdogDeath : public testing::Test {
 protected:
  void TearDown() override { ::unsetenv("ESP_SESSION_DEADLINE"); }
};

TEST_F(WatchdogDeath, VirtualDeadlineAbortsWithReason) {
  ::setenv("ESP_SESSION_DEADLINE", "0.01", 1);
  EXPECT_DEATH(run_runaway_session(),
               "session watchdog fired "
               "\\(virtual-time deadline exceeded\\)");
}

TEST_F(WatchdogDeath, VirtualDeadlineDumpListsPerRankProgress) {
  ::setenv("ESP_SESSION_DEADLINE", "0.01", 1);
  // The dump names every rank with partition-relative identity, its
  // virtual clock and p-layer call count, and its liveness state.
  EXPECT_DEATH(run_runaway_session(), "rank 0 \\(hot/0\\): clock=");
  EXPECT_DEATH(run_runaway_session(), "clock=[0-9.]+s calls=[0-9]+ running");
}

TEST_F(WatchdogDeath, RealTimeStallAbortsWithReason) {
  // A far-away virtual deadline never fires; the wedge is reported by the
  // scheduler, with the reason.
  ::setenv("ESP_SESSION_DEADLINE", "1e6", 1);
  EXPECT_DEATH(run_wedged_session(),
               "scheduler deadlock: 1 rank\\(s\\) parked and [0-9]+ idle");
}

TEST_F(WatchdogDeath, StallDumpShowsTheWedgedRank) {
  ::setenv("ESP_SESSION_DEADLINE", "1e6", 1);
  EXPECT_DEATH(run_wedged_session(),
               "rank 0 \\(stuck/0\\): clock=.* waits on MPI_Irecv peer 1");
}

TEST(WedgeDeath, IdleOnlyWedgeAbortsWithTheWatchdogOff) {
  // No ESP_SESSION_* set: the analyzer readers idle-poll for rank 0's
  // stream forever, and the scheduler still reports the wedge.
  EXPECT_DEATH(run_wedged_session(),
               "scheduler deadlock(.|\n)*"
               "rank 0 \\(stuck/0\\): clock=.* waits on MPI_Irecv peer 1");
}

TEST(WedgeDeath, IdlePollerInABareRuntimeAbortsWithTheDump) {
  // Rank 0 polls test() for a message rank 1 never sends: every idle wave
  // is the same, so the scheduler reports the wedge instead of spinning.
  auto wedge = [] {
    std::vector<mpi::ProgramSpec> progs;
    progs.push_back({"poll", 2, [](mpi::ProcEnv& env) {
                       if (env.world_rank == 1) return;
                       int v = 0;
                       mpi::Request q = env.world.irecv(&v, sizeof v, 1, 4);
                       while (!mpi::test(q, nullptr)) {
                       }
                     }});
    mpi::Runtime rt(mpi::RuntimeConfig{}, std::move(progs));
    rt.run();
  };
  EXPECT_DEATH(wedge(),
               "scheduler deadlock: 0 rank\\(s\\) parked and 1 idle(.|\n)*"
               "rank 0 \\(poll/0\\): clock=.* idle(.|\n)*"
               "rank 1 \\(poll/1\\): clock=.* finished");
}

TEST(WedgeDeath, SessionDumpNamesTheRankThatThrew) {
  // The error would be rethrown from run() once every rank finished, but
  // rank 0 never does: the dump must carry the exception's text.
  EXPECT_DEATH(run_failing_session(),
               "rank 0 \\(boom/0\\): clock=.* waits on MPI_Irecv peer "
               "1(.|\n)*rank 1 \\(boom/1\\): .*failed.*boom from rank 1");
}

TEST(Watchdog, DisabledByDefaultSessionsComplete) {
  // No ESP_SESSION_* in the environment: the watchdog never arms and a
  // normal short session completes untouched.
  SessionConfig cfg;
  Session session(cfg);
  session.add_application("ok", 2, [](mpi::ProcEnv&) { mpi::compute(1e-4); });
  auto results = session.run();
  ASSERT_NE(results, nullptr);
  EXPECT_DOUBLE_EQ(session.runtime().config().watchdog_virtual_deadline, 0.0);
}

}  // namespace
}  // namespace esp
