#include "analysis/membership.hpp"

namespace esp::an {

int choose_root(const net::ElasticSchedule& schedule,
                const std::function<bool(int)>& has_crash) {
  if (!schedule.enabled()) return -1;
  for (const int m : schedule.active_at(0)) {
    if (schedule.ever_leaves(m)) continue;
    if (has_crash && has_crash(m)) continue;
    return m;
  }
  return -1;
}

}  // namespace esp::an
