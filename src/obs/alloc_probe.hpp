#pragma once
/// \file alloc_probe.hpp
/// \brief Malloc-interposition allocation counter (hotpath allocation gate).
///
/// Linking `esp_alloc_probe` into a binary replaces the global operator
/// new/delete family with counting forwarders to malloc/free. The counters
/// are process-wide relaxed atomics: cheap enough to leave in a benchmark's
/// measured region, precise enough to assert an exact allocation count per
/// pack after warmup (bench/ablation_hotpath.cpp, tests/test_pool.cpp).
///
/// The probe deliberately lives in its own static library so ordinary
/// binaries never pay for it — only targets that explicitly link
/// `esp_alloc_probe` get the interposed operators. Forwarding to
/// malloc/free (not a custom arena) keeps the probe compatible with
/// AddressSanitizer: ASan intercepts malloc underneath us and its
/// poisoning/quarantine machinery still sees every allocation.

#include <cstddef>
#include <cstdint>

namespace esp::obs {

struct AllocCounts {
  std::uint64_t allocs = 0;  ///< operator new calls (all variants).
  std::uint64_t frees = 0;   ///< operator delete calls (all variants).
  std::uint64_t bytes = 0;   ///< Total bytes requested from operator new.
};

/// Snapshot of the process-wide counters. Always zero unless the binary
/// links esp_alloc_probe.
AllocCounts alloc_counts() noexcept;

/// True when the interposed operators are live in this binary.
bool alloc_probe_active() noexcept;

}  // namespace esp::obs
