#!/usr/bin/env bash
# Environment knob allowlist. A run is configured through SessionConfig and
# the other config structs; src/ may read only the ESP_* variables below:
# the observability switches, the session watchdog's virtual deadline and
# the paper-scale bench switch. Fails, listing both sets, when the quoted
# ESP_* names in src/ differ from the list.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
allowed="ESP_FULL_SCALE ESP_OBS ESP_OBS_DIR ESP_OBS_TRACE ESP_OBS_TRACE_MAX"
allowed+=" ESP_SESSION_DEADLINE"
found="$(grep -rhoE '"ESP_[A-Z0-9_]+"' "$repo/src" | tr -d '"' |
  LC_ALL=C sort -u | xargs)"
if [[ "$found" != "$allowed" ]]; then
  echo "error: ESP_* names in src/ differ from the allowlist" >&2
  echo "  allowed: $allowed" >&2
  echo "  found:   $found" >&2
  exit 1
fi
echo "env knob allowlist ok: $found"
