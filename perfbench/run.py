#!/usr/bin/env python3
"""esperf end-to-end benchmark.

Builds the esperf libraries and the runner (perfbench/e2e.cpp) from the
sources of this checkout, runs one workload, checks its outputs and prints
the metrics. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: medians over the
repetitions that fit in --seconds, the first one excluded as warm-up. With
--trace 1 they are the per-layer ledger of one traced repetition, printed
as a table above the JSON line.

    python3 perfbench/run.py --workload sp_c_online --seed 1 --seconds 30 --trace 0

Run it from the root of the checkout. Builds go to $CARGO_TARGET_DIR
(default .bench_build). The exit code is non-zero when a correctness check
fails, when the build fails, or when the runner does not finish.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sp_c_online", "sp_c_reference", "stream_fanin8")
RUN_TIMEOUT_S = 165  # per runner invocation, counted after the build

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "virt_app_s": "virt_s",
}
PER_LAYER = {
    "simmpi.calls": "count",
    "simmpi.cpu_s": "s",
    "simmpi.blocked_s": "s",
    "simmpi.vol_ctx_switches": "count",
    "simmpi.cpu_sys_s": "s",
    "net.transfers": "count",
    "net.bytes_transferred": "bytes",
    "net.lane_wait_s": "virt_s",
    "instrument.events": "count",
    "instrument.packs": "count",
    "instrument.on_call_s": "s",
    "instrument.on_call_ns_p50": "ns",
    "instrument.on_call_ns_p99": "ns",
    "instrument.virt_record_s": "virt_s",
    "vmpi.blocks_written": "count",
    "vmpi.cpu_s": "s",
    "vmpi.write_ns_per_block": "ns",
    "vmpi.read_ns_per_block": "ns",
    "vmpi.backpressure_waits": "count",
    "vmpi.eagain_returns": "count",
    "vmpi.read_hit_ratio": "ratio",
    "vmpi.virt_write_s": "virt_s",
    "vmpi.virt_backpressure_s": "virt_s",
    "analysis.rank_cpu_s": "s",
    "analysis.rank_vol_ctx_switches": "count",
    "analysis.events_unpacked": "count",
    "analysis.unpack_s": "s",
    "analysis.tail_s": "s",
    "analysis.virt_report_lag_s": "virt_s",
    "blackboard.jobs_executed": "count",
    "blackboard.backoff_waits": "count",
    "blackboard.steals": "count",
    "blackboard.useful_wakeup_ratio": "ratio",
    "blackboard.ks_job_s": "s",
    "ledger.cpu_s": "s",
    "ledger.unattributed_cpu_s": "s",
    "ledger.trace_overhead_s": "s",
    "ledger.overhead_pct": "%",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configure once, then bring the runner up to date; return its path."""
    if not os.path.isfile(os.path.join(SRC_ROOT, "src", "CMakeLists.txt")):
        fail("esperf sources not found next to the benchmark (expected "
             "src/CMakeLists.txt in %s)" % SRC_ROOT)
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=300).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "--target", "esperf_e2e"],
                      stdout=sys.stderr, timeout=850).returncode:
        fail("build failed")
    return os.path.join(build_dir, "esperf_e2e")


def run_e2e(exe, args, workdir, deadline):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--link-drop", str(args.link_drop)]
    if args.iterations:
        cmd += ["--iterations", str(args.iterations)]
    if args.blocks:
        cmd += ["--blocks", str(args.blocks)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                             text=True)
    except subprocess.TimeoutExpired:
        fail("runner did not finish within %.0f s" % timeout)
    if out.returncode:
        fail("runner exited with code %d" % out.returncode)
    lines = {"warmup": [], "rep": [], "reference": [], "proc": [], "setup": []}
    for line in out.stdout.splitlines():
        tag, _, body = line.partition(" ")
        if tag in lines:
            lines[tag].append(json.loads(body))
    if not lines["rep"] or (not args.trace and not (lines["proc"] and lines["setup"])):
        fail("runner printed no results")
    return lines


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(reps, setups, proc):
    # The first repetition of a process pays first-touch page faults and
    # pool warm-up; it is checked but not timed when later ones exist.
    reps = reps[1:] or reps
    per_rep = {
        "setup_s": [r["setup_s"] for r in setups],
        "wall_s": [r["wall_s"] for r in reps],
        "events_per_s": [r["items"] / r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_user_s"] + r["cpu_sys_s"] for r in reps],
        "virt_app_s": [r["virt_app_s"] for r in reps],
    }
    metrics = {}
    print("%-14s %-7s %14s %14s %14s  (n=%d repetitions, setup_s over %d "
          "set-ups)" % ("metric", "unit", "q1", "median", "q3", len(reps),
                        len(per_rep["setup_s"])))
    for name, unit in END_TO_END.items():
        if name == "peak_rss_mb":
            value = proc["peak_rss_mb"]
            print("%-14s %-7s %14s %14.6g %14s" % (name, unit, "", value, ""))
        else:
            q1, value, q3 = quartiles(per_rep[name])
            print("%-14s %-7s %14.6g %14.6g %14.6g" % (name, unit, q1, value, q3))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def determinism(reps):
    """Same-seed repetitions of one process: recorded, not gated."""
    digests = sorted({r["digest"] for r in reps if r["digest"]})
    bits = sorted({r["virt_bits"] for r in reps})
    if digests:
        print("determinism: %d repetitions, %d distinct report digest(s) %s"
              % (len(reps), len(digests), " ".join(digests)))
    print("determinism: %d repetitions, %d distinct virt_app_s bit pattern(s) "
          "%s -> same-seed runs %s"
          % (len(reps), len(bits), " ".join(bits),
             "agreed" if len(bits) == 1 and len(digests) <= 1 else "DIFFERED"))


SPAN_RE = re.compile(r'"name":"([^"]+)".*?"dur":([0-9.]+)')


def span_totals(path):
    """Sum span durations (seconds on each track's own clock) by name."""
    totals = {}
    with open(path) as f:
        for line in f:
            m = SPAN_RE.search(line)
            if m:
                totals[m.group(1)] = totals.get(m.group(1), 0.0) + float(m.group(2)) * 1e-6
    return totals


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(untraced, traced, reference, workload):
    """The ledger of one traced repetition; prints it and returns metrics."""
    t, o = traced, traced["obs"]
    spans = span_totals(t["trace_path"])
    online = workload == "sp_c_online"
    stream = workload == "stream_fanin8"
    n_app = t["app_ranks"]
    cpu = t["cpu_user_s"] + t["cpu_sys_s"]
    stream_cpu = t["stream_write_cpu_s"] + t["stream_read_cpu_s"]
    # Every rank thread's CPU lands in exactly one of these rows.
    simmpi_cpu = t["app_cpu_s"] - t["on_call_cpu_s"] - t["stream_write_cpu_s"]
    if stream:
        simmpi_cpu += t["other_cpu_s"] - t["stream_read_cpu_s"]
    analysis_cpu = t["other_cpu_s"] if online else 0.0
    ks_job = spans.get("ks.job", 0.0)
    rows = [
        ("simmpi.cpu_s", simmpi_cpu, "app rank threads outside tool hooks and stream calls"),
        ("instrument.on_call_s", t["on_call_cpu_s"], "OnlineInstrument::on_call"),
        ("vmpi.cpu_s", stream_cpu, "Stream::write/read called by the benchmark"),
        ("analysis.rank_cpu_s", analysis_cpu, "analyzer rank threads"),
        ("blackboard.ks_job_s", ks_job, "KS jobs on blackboard workers (span wall time)"),
    ]
    unattributed = cpu - sum(r[1] for r in rows)
    flush = spans.get("inst.flush", 0.0)
    bp = spans.get("stream.backpressure", 0.0)
    bb_jobs = o.get("bb.jobs_executed", 0)
    bb_backoff = o.get("bb.backoff_waits", 0)
    blocks_read = o.get("stream.blocks_read", 0)
    eagain = o.get("stream.eagain_returns", 0)
    written = o.get("stream.blocks_written", 0)
    writers = n_app if (online or stream) else 0
    record = ratio(t["tool_virt_s"] - flush, n_app) if online else 0.0
    overhead_pct = 0.0
    if reference:
        ref = reference["virt_app_s"]
        overhead_pct = 100.0 * (untraced["virt_app_s"] - ref) / ref

    values = {
        "simmpi.calls": t["calls"],
        "simmpi.cpu_s": simmpi_cpu,
        "simmpi.blocked_s": t["app_wall_s"] - t["app_cpu_s"],
        "simmpi.vol_ctx_switches": t["app_vcsw"],
        "simmpi.cpu_sys_s": t["app_sys_s"],
        "net.transfers": o.get("net.transfers", 0),
        "net.bytes_transferred": o.get("net.bytes_transferred", 0),
        "net.lane_wait_s": o.get("net.lane_wait_us.sum", 0) * 1e-6,
        "instrument.events": t["events_recorded"],
        "instrument.packs": t["packs"],
        "instrument.on_call_s": t["on_call_cpu_s"],
        "instrument.on_call_ns_p50": t["on_call_ns_p50"],
        "instrument.on_call_ns_p99": t["on_call_ns_p99"],
        "instrument.virt_record_s": record,
        "vmpi.blocks_written": written,
        "vmpi.cpu_s": stream_cpu,
        "vmpi.write_ns_per_block": 1e9 * ratio(t["stream_write_cpu_s"], t["stream_blocks_written"]),
        "vmpi.read_ns_per_block": 1e9 * ratio(t["stream_read_cpu_s"], t["stream_blocks_read"]),
        "vmpi.backpressure_waits": o.get("stream.backpressure_waits", 0),
        "vmpi.eagain_returns": eagain,
        "vmpi.read_hit_ratio": ratio(blocks_read, blocks_read + eagain),
        "vmpi.virt_write_s": ratio(spans.get("stream.write", 0.0), writers),
        "vmpi.virt_backpressure_s": ratio(bp, writers),
        "analysis.rank_cpu_s": analysis_cpu,
        "analysis.rank_vol_ctx_switches": t["other_vcsw"] if online else 0,
        "analysis.events_unpacked": o.get("an.events_unpacked", 0),
        "analysis.unpack_s": spans.get("an.unpack", 0.0),
        "analysis.tail_s": t["tail_s"],
        "analysis.virt_report_lag_s": t["virt_other_s"] - t["virt_app_s"] if online else 0.0,
        "blackboard.jobs_executed": bb_jobs,
        "blackboard.backoff_waits": bb_backoff,
        "blackboard.steals": o.get("bb.steals", 0),
        "blackboard.useful_wakeup_ratio": ratio(bb_jobs, bb_jobs + bb_backoff),
        "blackboard.ks_job_s": ks_job,
        "ledger.cpu_s": cpu,
        "ledger.unattributed_cpu_s": unattributed,
        "ledger.trace_overhead_s": t["wall_s"] - untraced["wall_s"],
        "ledger.overhead_pct": overhead_pct,
    }

    print("host CPU ledger, %s, traced repetition (%d spans dropped)"
          % (workload, o.get("trace.dropped", 0)))
    print("  %-28s %10s %7s  %s" % ("row", "CPU s", "share", "what"))
    for name, v, what in rows + [("ledger.unattributed_cpu_s", unattributed,
                                  "residual: blackboard idle/backoff, main thread")]:
        print("  %-28s %10.3f %6.1f%%  %s" % (name, v, 100 * ratio(v, cpu), what))
    print("  %-28s %10.3f %6.1f%%  process user+sys (getrusage)" % ("= cpu_s", cpu, 100.0))
    print("  analysis.unpack_s %.3f s is part of blackboard.ks_job_s" % values["analysis.unpack_s"])
    print("  trace overhead: traced wall_s %.3f - untraced wall_s %.3f = %.3f s"
          % (t["wall_s"], untraced["wall_s"], values["ledger.trace_overhead_s"]))
    if reference:
        over = untraced["virt_app_s"] - reference["virt_app_s"]
        write = ratio(flush - bp, n_app)
        back = ratio(bp, n_app)
        print("virtual-time overhead, sp_c_online over sp_c_reference, "
              "mean per app rank (virtual s)")
        for name, v in (("event record", record), ("pack write", write),
                        ("backpressure", back),
                        ("remainder", over - record - write - back),
                        ("= overhead", over)):
            print("  %-14s %12.6f %7.2f%% of reference"
                  % (name, v, 100 * ratio(v, reference["virt_app_s"])))
        print("  overhead_pct %.3f %% (reference %.6f s, online %.6f s)"
              % (overhead_pct, reference["virt_app_s"], untraced["virt_app_s"]))
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Size and fault overrides, used by the harness tests.
    ap.add_argument("--iterations", type=int, default=0, help="SP.C timesteps")
    ap.add_argument("--blocks", type=int, default=0, help="stream blocks per writer")
    ap.add_argument("--link-drop", type=float, default=0.0,
                    help="probability that a stream block is dropped")
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_root)
    workdir = os.path.join(build_root, "work", "%s-%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    try:
        out = run_e2e(exe, args, workdir, time.monotonic() + RUN_TIMEOUT_S)
        reps = out["rep"]
        checked = out["warmup"] + reps + out["reference"]
        for r in checked:
            if not r["ok"]:
                print("check failed: %s repetition: %s"
                      % (r["workload"], r["failed_checks"]))
        if args.trace:
            untraced, traced = reps[0], reps[-1]
            reference = out["reference"][0] if out["reference"] else None
            metrics = per_layer(untraced, traced, reference, args.workload)
        else:
            metrics = end_to_end(reps, out["setup"], out["proc"][0])
            if args.workload == "sp_c_online":
                determinism(reps)
            if args.workload == "stream_fanin8":
                r = reps[0]
                print("fig14 point: %d writers -> 8 readers, %.3f GB/s on the "
                      "virtual clock" % (r["app_ranks"],
                                         r["items"] * 2**20 / r["virt_app_s"] / 1e9))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = all(r["ok"] for r in checked)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in checked),
        "failed": sum(r["failed"] for r in checked),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
