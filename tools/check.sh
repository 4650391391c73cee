#!/usr/bin/env bash
# Full pre-merge check: build and test the default configuration, then the
# ASan+UBSan configuration (-DESP_SANITIZE=ON), then the end-to-end
# benchmark's harness tests and the ablation benches with their regression
# gates. Fault-injection tests must
# pass under both build configs. Run from anywhere; builds live in build/
# and build-sanitize/ at the repo root.
#
# Bench gating (mirrored by .github/workflows/ci.yml): each ablation bench
# keeps its *internal* invariant gate in the binary (degradation
# monotonicity, tenancy isolation promise, hotpath steady-state
# allocation assertion) while baseline drift detection for all of them
# is consolidated in tools/bench_gate.py, which compares the fresh
# ESP_*_BENCH_JSON output against the checked-in bench/*.baseline.json with
# per-metric tolerances and writes a machine-readable diff.
#
#   ESP_BENCH_GATE_MODE    override bench_gate.py strictness for every
#                          bench: "warn" or "fail" (default: per-bench
#                          policy — deterministic virtual-metric benches
#                          fail, wall-clock benches warn)
#   ESP_BENCH_TREND        JSONL file to append each bench's rows to
#                          (default bench_results/trend.jsonl; CI uploads
#                          it as the cross-run trend artifact)
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local dir="$1"; shift
  echo "=== configure $dir ($*) ==="
  cmake -B "$repo/$dir" -S "$repo" "$@"
  echo "=== build $dir ==="
  cmake --build "$repo/$dir" -j "$jobs"
  echo "=== ctest $dir ==="
  ctest --test-dir "$repo/$dir" --output-on-failure -j "$jobs"
}

echo "=== environment knob allowlist ==="
"$repo/tools/check_env_knobs.sh"

run_config build
run_config build-sanitize -DESP_SANITIZE=ON

echo "=== observability artifact schema check ==="
# The ObsPipeline ctest leaves its session artifacts behind under the test
# working directory precisely so this check (and CI's artifact upload) can
# consume them: valid Chrome trace JSON, per-track monotone timestamps,
# well-formed metrics.
obs_dir="$repo/build/tests/obs_artifacts"
if [[ ! -f "$obs_dir/trace.json" || ! -f "$obs_dir/metrics.json" ]]; then
  echo "error: $obs_dir missing trace.json/metrics.json (did the" \
       "ObsPipeline test run?)" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 "$repo/tools/check_trace.py" \
    "$obs_dir/trace.json" "$obs_dir/metrics.json"
else
  echo "warning: python3 not found; skipping trace schema check" >&2
fi

echo "=== test_obs in one process, twice ==="
# ctest runs each test in its own process, which hides state that one test
# leaks into the next. Run the obs suite as one process as well, repeated
# so a test that reads process-global counters must measure deltas, from a
# temp dir so the obs_artifacts checked above stay untouched.
obs_tmp="$(mktemp -d)"
(cd "$obs_tmp" && "$repo/build/tests/test_obs" --gtest_repeat=2)
rm -rf "$obs_tmp"

echo "=== perfbench harness tests ==="
# Schema and metric names of the end-to-end benchmark at tiny size, plus a
# link-drop plan that must report failed ops and exit non-zero.
python3 "$repo/perfbench/test_harness.py"

# Run one ablation bench (internal invariant gate inside the binary) and
# then diff its fresh JSON against the checked-in baseline with
# tools/bench_gate.py. Regenerate the bench/*.baseline.json in the same
# commit whenever the measurement model intentionally changes.
trend="${ESP_BENCH_TREND:-$repo/bench_results/trend.jsonl}"
gate_args=()
[[ -n "${ESP_BENCH_GATE_MODE:-}" ]] && gate_args+=(--mode "$ESP_BENCH_GATE_MODE")

run_bench_gate() {
  local bench="$1" json_var="$2" binary="$3"
  echo "=== $bench sweep + internal gate ==="
  env "$json_var=$repo/BENCH_$bench.json" "$repo/build/bench/$binary"
  echo "=== $bench baseline gate (bench_gate.py) ==="
  python3 "$repo/tools/bench_gate.py" --bench "$bench" \
    --json "$repo/BENCH_$bench.json" \
    --baseline "$repo/bench/BENCH_$bench.baseline.json" \
    --diff-out "$repo/BENCH_$bench.diff.json" \
    --append-trend "$trend" "${gate_args[@]}"
}

run_bench_gate blackboard ESP_BB_BENCH_JSON ablation_blackboard
run_bench_gate degrade ESP_DEGRADE_BENCH_JSON ablation_degrade
run_bench_gate tenancy ESP_TENANCY_BENCH_JSON ablation_tenancy
run_bench_gate hotpath ESP_HOTPATH_BENCH_JSON ablation_hotpath
run_bench_gate stream ESP_STREAM_BENCH_JSON ablation_stream
run_bench_gate elastic ESP_ELASTIC_BENCH_JSON ablation_elastic

echo "=== chaos soak (ASan) ==="
# Randomized seeded fault campaigns against full sessions, each seed run
# twice and required to reproduce bit-identical reports; the sanitizer
# build also catches crash-unwind memory errors. ESP_SOAK_SEED rotates
# the campaign (defaults to the fixed seed baked into the harness);
# ESP_SOAK_RUNS sizes it. On failure the soak prints a copy-pasteable
# repro line and writes soak_failures.txt in the working directory.
ESP_SOAK_SEED="${ESP_SOAK_SEED:-}" \
  "$repo/build-sanitize/tools/soak" --runs "${ESP_SOAK_RUNS:-25}" --seed-from-env

echo "=== multi-tenant chaos soak (ASan) ==="
# Overlapping-tenant campaigns through the fabric: admission, quotas,
# shedding, tenant crashes — every campaign run twice and required to be
# bit-identical. Short by design for the PR gate; the nightly CI job
# scales this to 100+ tenants.
ESP_SOAK_SEED="${ESP_SOAK_SEED:-}" \
  "$repo/build-sanitize/tools/soak" \
  --tenants "${ESP_SOAK_TENANTS:-12}" \
  --runs "${ESP_SOAK_TENANT_RUNS:-4}" --seed-from-env

echo "=== elastic-membership chaos soak (ASan) ==="
# Membership-churn campaigns: seeded random grow/shrink plans (spares
# joining, members draining and leaving, optional re-joins) with crashes
# mixed in — every campaign run twice and required to reproduce
# bit-identical reports; crash-free campaigns must show a zero loss
# ledger (a planned drain is clean by construction).
ESP_SOAK_SEED="${ESP_SOAK_SEED:-}" \
  "$repo/build-sanitize/tools/soak" \
  --elastic "${ESP_SOAK_ELASTIC:-4}" \
  --runs "${ESP_SOAK_ELASTIC_RUNS:-4}" --seed-from-env

echo "=== all checks passed ==="
