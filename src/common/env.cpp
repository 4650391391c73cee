#include "common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

namespace esp {

namespace {

/// One stderr line per (variable, reason) for the process lifetime: a knob
/// read in a hot loop must not flood the log, but the misconfiguration
/// must not pass silently either.
void warn_bad_env(const char* name, const char* value, const char* what,
                  const char* fallback_shown) {
  static std::mutex mu;
  static std::set<std::string>* warned = new std::set<std::string>;
  std::lock_guard lock(mu);
  if (!warned->insert(std::string(name) + '\0' + what).second) return;
  std::fprintf(stderr, "esperf: %s value %s=\"%s\"; using default %s\n", what,
               name, value, fallback_shown);
}

}  // namespace

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  // Trailing whitespace is harmless (quoting artifacts); anything else —
  // "8x", "1e3", a second token — is a malformed knob, not a number.
  while (*end != '\0' && std::isspace(static_cast<unsigned char>(*end)))
    ++end;
  char shown[32];
  std::snprintf(shown, sizeof shown, "%lld",
                static_cast<long long>(fallback));
  if (end == v || *end != '\0') {
    warn_bad_env(name, v, "malformed integer", shown);
    return fallback;
  }
  if (errno == ERANGE) {
    warn_bad_env(name, v, "out-of-range integer", shown);
    return fallback;
  }
  return parsed;
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  while (*end != '\0' && std::isspace(static_cast<unsigned char>(*end)))
    ++end;
  char shown[32];
  std::snprintf(shown, sizeof shown, "%g", fallback);
  if (end == v || *end != '\0') {
    warn_bad_env(name, v, "malformed number", shown);
    return fallback;
  }
  if (errno == ERANGE || !std::isfinite(parsed)) {
    warn_bad_env(name, v, "out-of-range number", shown);
    return fallback;
  }
  return parsed;
}

bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::string s(v);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  warn_bad_env(name, v, "unrecognized boolean", fallback ? "true" : "false");
  return fallback;
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : fallback;
}

bool full_scale() { return env_flag("ESP_FULL_SCALE"); }

}  // namespace esp
