#pragma once
/// \file env.hpp
/// \brief Environment-variable helpers for benchmark scale knobs.
///
/// Parsing is strict: a malformed or out-of-range value ("8x", "1e3",
/// "99999999999999999999", an unknown boolean token) is rejected, reported
/// once to stderr with the offending name/value, and replaced by the
/// documented default — a typo'd knob must neither crash the run nor be
/// half-accepted silently (ESP_BB_WORKERS=8x used to parse as 8).

#include <cstdint>
#include <string>

namespace esp {

/// Read an integer env var; falls back (with a one-time stderr warning)
/// when the value is not a whole base-10 integer fitting std::int64_t.
/// Unset or empty means fallback, silently.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Read a boolean env var. True tokens: "1", "true", "yes", "on"; false
/// tokens: "0", "false", "no", "off" (case-insensitive). Anything else
/// falls back with a one-time stderr warning.
bool env_flag(const char* name, bool fallback = false);

/// Read a floating-point env var (strtod grammar, so "2e-3" works; a
/// virtual-time knob is naturally fractional). Malformed or non-finite
/// values fall back with a one-time stderr warning.
double env_double(const char* name, double fallback);

/// Read a string env var.
std::string env_str(const char* name, const std::string& fallback);

/// True when ESP_FULL_SCALE=1: benches run paper-scale configurations.
bool full_scale();

}  // namespace esp
