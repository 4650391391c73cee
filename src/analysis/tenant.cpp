#include "analysis/tenant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace esp::an {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<double> poisson_schedule(std::uint64_t seed, int n,
                                     double mean_gap, double start) {
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<std::size_t>(n));
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull;
  double t = start;
  for (int i = 0; i < n; ++i) {
    // Uniform in (0, 1]: never 0, so log() stays finite.
    const double u =
        (static_cast<double>(splitmix64(s) >> 11) + 1.0) / 9007199254740993.0;
    t += -mean_gap * std::log(u);
    arrivals.push_back(t);
  }
  return arrivals;
}

AdmissionController::AdmissionController(mpi::ProcEnv& env, FabricConfig cfg)
    : env_(env), cfg_(std::move(cfg)) {
  for (const auto& t : cfg_.tenants) records_[t.app_id] = Record{};
}

/// Release fact for an admitted tenant: detach time, or the crash oracle.
bool AdmissionController::release_known(int app_id, double* when) const {
  const auto it = records_.find(app_id);
  if (it == records_.end()) return false;
  if (it->second.released) {
    *when = it->second.t_release;
    return true;
  }
  return false;
}

void AdmissionController::drain_control(mpi::RankContext& rc) {
  // All control traffic is out-of-band: probe + receive under a clock
  // warp so the root's data-plane virtual clock (which feeds stream
  // backpressure through max(sender, receiver)) never sees it.
  const double saved = rc.clock;
  mpi::Status st;
  while (env_.universe.piprobe(mpi::kAnySource, kTenantAttachTag, &st)) {
    TenantAttach a;
    env_.universe.precv(&a, sizeof a, st.source, kTenantAttachTag);
    auto& rec = records_[a.app_id];
    if (!rec.attached) {
      rec.attached = true;
      rec.arrival = a.arrival;
      pending_.push_back(a.app_id);
    }
  }
  while (env_.universe.piprobe(mpi::kAnySource, kTenantDetachTag, &st)) {
    TenantDetach d;
    env_.universe.precv(&d, sizeof d, st.source, kTenantDetachTag);
    auto& rec = records_[d.app_id];
    if (!rec.released) {
      rec.released = true;
      rec.t_release = d.t_release;
    }
  }
  rc.clock = saved;

  // Crash-oracle sweep: a tenant whose rank 0 died will never attach or
  // detach again; resolve it from the recorded (deterministic, virtual)
  // death time. Runs *after* the message drain so an attach/detach that
  // was sent before the crash point is always consumed first.
  auto& rt = *env_.runtime;
  for (const auto& t : cfg_.tenants) {
    auto& rec = records_[t.app_id];
    if (rec.released) continue;
    if (!rt.rank_dead(t.rank0_world)) continue;
    const double td = rt.death_time(t.rank0_world);
    if (!rec.attached) {
      // Died before the attach could be sent: never ran, never decided.
      rec.attached = true;
      rec.decided = true;
      rec.arrival = t.arrival;
      rec.released = true;
      rec.released_by_death = true;
      rec.t_release = td;
    } else if (!rec.decided) {
      // Died while waiting for a verdict. Its siblings observe the dead
      // relay and deterministically self-admit at the arrival time, so
      // the root's books must say the same.
      rec.decided = true;
      rec.admitted = true;
      rec.t_admit = rec.arrival;
      ++admitted_total_;
      pending_.erase(std::remove(pending_.begin(), pending_.end(), t.app_id),
                     pending_.end());
      rec.released = true;
      rec.released_by_death = true;
      rec.t_release = td;
    } else if (rec.admitted) {
      rec.released = true;
      rec.released_by_death = true;
      rec.t_release = td;
    }
  }
}

void AdmissionController::decide(mpi::RankContext& rc) {
  auto& rt = *env_.runtime;
  // Membership schedule (disabled outside elastic mode): makes the
  // admission ceiling a function of the active member set at the
  // candidate admit time.
  const net::ElasticSchedule& elastic = rt.elastic();
  // Strict (arrival, app_id) order: the head of the queue decides first,
  // later arrivals never jump it. This makes every verdict a function of
  // facts that are themselves deterministic.
  std::sort(pending_.begin(), pending_.end(), [this](int a, int b) {
    const auto& ra = records_.at(a);
    const auto& rb = records_.at(b);
    if (ra.arrival != rb.arrival) return ra.arrival < rb.arrival;
    return a < b;
  });

  while (!pending_.empty()) {
    const int app = pending_.front();
    const TenantSpec* spec = cfg_.find(app);
    auto& rec = records_.at(app);
    const bool elastic_cap =
        cfg_.max_active_per_member > 0 && elastic.enabled();
    const bool unconstrained = cfg_.max_active <= 0 && !elastic_cap;

    // Occupancy of the already-admitted set at candidate time t:
    //   certain-active:  release known and > t, or rank 0's published
    //                    progress clock is already past t (its eventual
    //                    release time can only be later);
    //   certain-gone:    release known and <= t;
    //   unknown:         neither — the decision must wait for the fact.
    auto occupancy_at = [&](double t, int* n_active) -> bool {
      *n_active = 0;
      for (const auto& tn : cfg_.tenants) {
        if (tn.app_id == app) continue;
        const auto& r = records_.at(tn.app_id);
        if (!r.decided || !r.admitted) continue;
        double rel;
        bool is_active;
        if (release_known(tn.app_id, &rel)) {
          is_active = rel > t;
        } else if (rt.progress_clock(tn.rank0_world) > t) {
          is_active = true;
        } else {
          return false;  // fact not yet known
        }
        if (is_active) ++(*n_active);
      }
      return true;
    };
    auto fits = [&](double t, int n_active) {
      if (cfg_.max_active > 0 && n_active >= cfg_.max_active) return false;
      if (elastic_cap) {
        // The ceiling scales with the member set active at t: a planned
        // shrink lowers it (later arrivals re-queue), a warm-join raises
        // it. Pure function of the elastic schedule, so deterministic.
        const int members = static_cast<int>(
            elastic.active_at(elastic.epoch_at(t)).size());
        if (n_active >= cfg_.max_active_per_member * members) return false;
      }
      return true;
    };

    double t_admit = rec.arrival;
    bool decidable = true;
    bool admit = true;
    if (!unconstrained) {
      // Walk candidate admit times: the arrival, then each known release
      // after it, until the capacity check passes with certainty.
      for (;;) {
        int n_active;
        if (!occupancy_at(t_admit, &n_active)) {
          decidable = false;
          break;
        }
        if (fits(t_admit, n_active)) break;
        // Saturated at t_admit: advance to the next known release, or —
        // under an elastic ceiling — the next membership epoch boundary
        // (a warm-join there may raise the cap).
        double next = kInf;
        for (const auto& tn : cfg_.tenants) {
          if (tn.app_id == app) continue;
          const auto& r = records_.at(tn.app_id);
          double rel;
          if (r.decided && r.admitted && release_known(tn.app_id, &rel) &&
              rel > t_admit)
            next = std::min(next, rel);
        }
        if (elastic_cap) {
          for (int e = 1; e < elastic.epoch_count(); ++e) {
            const double bt = elastic.epoch_time(e);
            if (bt > t_admit) {
              next = std::min(next, bt);
              break;  // epoch times ascend: the first > t_admit is minimal
            }
          }
        }
        if (next == kInf) {
          // Saturated by tenants whose releases are not yet known.
          decidable = false;
          break;
        }
        t_admit = next;
      }
      if (decidable && cfg_.max_admission_delay > 0.0 &&
          t_admit - rec.arrival > cfg_.max_admission_delay) {
        admit = false;
        t_admit = rec.arrival + cfg_.max_admission_delay;
      }
    }
    if (!decidable) break;  // head blocks the queue until facts arrive

    pending_.erase(pending_.begin());
    rec.decided = true;
    rec.admitted = admit;
    rec.t_admit = t_admit;
    if (admit) {
      ++admitted_total_;
    } else {
      ++rejected_total_;
      // A rejected tenant runs no workload and holds no capacity.
      rec.released = true;
      rec.t_release = t_admit;
    }

    // Ship the verdict, stamped at the deterministic decision time. The
    // clock warp makes the sender-side t_ready equal t_admit regardless
    // of where the root's data-plane clock happens to be.
    if (spec && !rt.rank_dead(spec->rank0_world)) {
      const double saved = rc.clock;
      rc.clock = t_admit;
      TenantVerdict v;
      v.app_id = app;
      v.admitted = admit ? 1 : 0;
      v.t_admit = t_admit;
      env_.universe.psend(&v, sizeof v, spec->rank0_world, kTenantVerdictTag);
      rc.clock = saved;
    }
  }
}

bool AdmissionController::poll(mpi::RankContext& rc) {
  drain_control(rc);
  decide(rc);
  for (const auto& t : cfg_.tenants) {
    const auto& rec = records_.at(t.app_id);
    if (!rec.attached || !rec.decided) return false;
    if (rec.admitted && !rec.released) return false;
  }
  return true;
}

}  // namespace esp::an
