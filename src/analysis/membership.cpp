#include "analysis/membership.hpp"

#include "simmpi/runtime.hpp"

namespace esp::an {

int reduce_root(const mpi::Runtime& rt, const mpi::PartitionDesc& analyzer) {
  const auto& inj = rt.injector();
  const auto& elastic = rt.elastic();
  if (elastic.enabled()) {
    for (const int m : elastic.active_at(0))
      if (!elastic.ever_leaves(m) &&
          !inj.has_crash(analyzer.first_world_rank + m))
        return m;
  }
  for (int a = 0; a < analyzer.size; ++a)
    if (!inj.has_crash(analyzer.first_world_rank + a)) return a;
  return 0;
}

}  // namespace esp::an
