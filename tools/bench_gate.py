#!/usr/bin/env python3
"""Unified bench regression gate.

Every ablation bench emits the same JSON shape::

    {"schema": 1, "results": [ {<key fields>, <metric fields>}, ... ]}

This script compares a fresh run against the checked-in baseline with
per-metric tolerances, prints human-readable verdict lines, optionally
writes a machine-readable diff, and optionally appends one trend row per
run to a JSONL history file (the CI trend artifact).

The per-bench *internal* invariant gates (tenancy isolation promise,
degradation monotonicity, the hotpath allocation-count assertion) stay in
the bench binaries where they can see their own raw data; this script owns
the one thing they all duplicated — baseline drift detection.

Usage:
    bench_gate.py --bench hotpath --json BENCH_hotpath.json \
        --baseline bench/BENCH_hotpath.baseline.json \
        [--mode warn|fail] [--diff-out diff.json] \
        [--append-trend bench_results/trend.jsonl]

Exit codes: 0 ok (or warn-mode deviations), 1 baseline drift in fail
mode, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Metric policy per bench. `key` names the fields identifying a row;
# `metrics` maps field -> (tolerance, kind):
#   kind "rel"  : |got-want|/|want| > tol is a deviation
#   kind "exact": any difference is a deviation (tol ignored)
#   kind "drop" : only a *decrease* beyond tol counts (throughput floors:
#                 a faster run never fails the gate)
# `default_mode` is the gate strictness when --mode is not given: noisy
# wall-clock benches warn on shared runners, deterministic virtual-metric
# benches fail. Every virtual metric is exact: ranks run on one
# deterministic scheduler (src/simmpi/fiber.hpp), so a same-seed run
# reproduces each one bit for bit.
SPECS = {
    "blackboard": {
        "key": ("workers", "producers", "batch"),
        "metrics": {"jobs_per_sec": (0.20, "drop")},
        "default_mode": "warn",
    },
    "degrade": {
        "key": ("rung",),
        "metrics": {
            "streamed_bytes": (0.0, "exact"),
            "packs": (0.0, "exact"),
            "events_shipped": (0.0, "exact"),
            "weighted_events": (0.0, "exact"),
            "windows_degraded": (0.0, "exact"),
            "app_walltime": (0.0, "exact"),
        },
        "default_mode": "fail",
    },
    "tenancy": {
        "key": ("scenario",),
        "metrics": {
            "victim_p50": (0.0, "exact"),
            "victim_p99": (0.0, "exact"),
            "victim_events": (0.0, "exact"),
            "victim_walltime": (0.0, "exact"),
            "flooder_shed": (0.0, "exact"),
        },
        "default_mode": "fail",
    },
    "hotpath": {
        "key": ("mode",),
        "metrics": {
            # The steady per-pack allocation count is asserted inside the
            # bench; here it is re-checked exactly so a stale baseline
            # cannot hide a regression, and throughput drift gates as a
            # drop.
            "allocs_per_event": (0.0, "exact"),
            "events_per_sec": (0.30, "drop"),
        },
        "default_mode": "warn",
    },
    "stream": {
        # Virtual coupling walltimes of saturated couplings; the hard
        # load-balancing invariant also stays inside the binary, where it
        # gates a ~4x margin.
        "key": ("case",),
        "metrics": {"app_walltime": (0.0, "exact")},
        "default_mode": "fail",
    },
    "elastic": {
        # Membership transitions are planned, not reactive: every counter
        # is a pure function of (seed, schedule).
        "key": ("scenario",),
        "metrics": {
            "epochs": (0.0, "exact"),
            "joined": (0.0, "exact"),
            "left": (0.0, "exact"),
            "planned_handoffs": (0.0, "exact"),
            "failover_joins": (0.0, "exact"),
            "stream_blocks": (0.0, "exact"),
            "blocks_lost": (0.0, "exact"),
            "total_events": (0.0, "exact"),
            "app_walltime": (0.0, "exact"),
        },
        "default_mode": "fail",
    },
}


def load_results(path: Path) -> list[dict]:
    with path.open() as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "results" not in doc:
        raise ValueError(f"{path}: missing 'results' array")
    return doc["results"]


def row_key(row: dict, key_fields: tuple[str, ...]) -> tuple:
    return tuple(row.get(k) for k in key_fields)


def key_label(key: tuple, key_fields: tuple[str, ...]) -> str:
    return "/".join(f"{f}={v}" for f, v in zip(key_fields, key))


def compare(bench: str, got_rows: list[dict], base_rows: list[dict]):
    """Yield one diff record per (row, metric) pair."""
    spec = SPECS[bench]
    key_fields = spec["key"]
    got_by_key = {row_key(r, key_fields): r for r in got_rows}
    for base in base_rows:
        key = row_key(base, key_fields)
        got = got_by_key.get(key)
        if got is None:
            yield {
                "row": key_label(key, key_fields),
                "metric": None,
                "status": "missing",
                "baseline": None,
                "got": None,
            }
            continue
        for metric, (tol, kind) in spec["metrics"].items():
            want, have = base.get(metric), got.get(metric)
            if want is None or have is None:
                continue  # metric added/removed; regenerating covers it
            if kind == "exact":
                bad = have != want
                delta = have - want
            else:
                denom = abs(want) if want else 1.0
                delta = (have - want) / denom
                bad = (delta < -tol) if kind == "drop" else (abs(delta) > tol)
            yield {
                "row": key_label(key, key_fields),
                "metric": metric,
                "status": "deviation" if bad else "ok",
                "baseline": want,
                "got": have,
                "delta_rel": delta,
                "tolerance": tol,
                "kind": kind,
            }


def append_trend(path: Path, bench: str, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "bench": bench,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "results": rows,
    }
    with path.open("a") as fh:
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True, choices=sorted(SPECS))
    ap.add_argument("--json", required=True, type=Path,
                    help="fresh bench output (ESP_*_BENCH_JSON)")
    ap.add_argument("--baseline", required=True, type=Path,
                    help="checked-in baseline to compare against")
    ap.add_argument("--mode", choices=("warn", "fail"), default=None,
                    help="deviation severity (default: per-bench policy)")
    ap.add_argument("--diff-out", type=Path, default=None,
                    help="write the machine-readable diff here")
    ap.add_argument("--append-trend", type=Path, default=None,
                    help="append this run's rows to a JSONL trend file")
    args = ap.parse_args()

    mode = args.mode or SPECS[args.bench]["default_mode"]
    try:
        got_rows = load_results(args.json)
        base_rows = load_results(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"bench_gate: {err}", file=sys.stderr)
        return 2

    diffs = list(compare(args.bench, got_rows, base_rows))
    bad = [d for d in diffs if d["status"] != "ok"]
    tag = "FAIL" if mode == "fail" else "WARN"
    for d in bad:
        if d["status"] == "missing":
            print(f"{tag}: {args.bench} {d['row']}: row missing from run",
                  file=sys.stderr)
        else:
            print(
                f"{tag}: {args.bench} {d['row']}.{d['metric']} "
                f"{d['baseline']:g} -> {d['got']:g} "
                f"({d['delta_rel']:+.1%}, tol {d['tolerance']:g} {d['kind']})",
                file=sys.stderr)
    checked = len(diffs)
    print(f"bench_gate: {args.bench}: {checked} checks, "
          f"{len(bad)} deviation(s), mode={mode}")

    if args.diff_out:
        args.diff_out.write_text(json.dumps(
            {"bench": args.bench, "mode": mode, "diffs": diffs}, indent=1))
    if args.append_trend:
        append_trend(args.append_trend, args.bench, got_rows)

    return 1 if bad and mode == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
