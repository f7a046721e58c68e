#!/usr/bin/env python3
"""The repo benchmark: Delphi decision latency, pipelined throughput and
simulator speed, with a per-layer ledger from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR (default .bench_build), runs the gate test, then runs
the driver for S seconds. With --trace 0 it reports the end-to-end metrics
of BENCHMARK.json, with --trace 1 the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exits non-zero when any instance is undecided or violates ε-agreement or
relaxed validity, or when a simulation does not reproduce bit for bit.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sim-cps", "tcp-sequential", "tcp-concurrent", "udp-concurrent")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 150


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure and build under a lock (concurrent runs share the build)."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)],
            [str(build_dir / "perfbench_gate_test")],
        ]
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if r.returncode != 0:
                sys.stderr.write(r.stdout[-4000:])
                fail(3, f"build step failed: {' '.join(cmd)}")


def median(xs):
    return statistics.median(xs) if xs else math.nan


def pct(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)] if s else math.nan


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(reps, end, sim):
    decided = lambda r: r["instances"] - r["undecided"]
    # Latency percentiles are taken within each repetition, then the lower
    # quartile over repetitions: host stalls (5-80 ms on a shared VM) only
    # ever add latency, and they reach the tail of about half the
    # repetitions.
    m = {
        "setup_s": (median([r["setup_s"] for r in reps]), "s"),
        "decide_ms.p50": (pct([pct(r["lat_ms"], 0.5) for r in reps], 0.25), "ms"),
        "decide_ms.p90": (pct([pct(r["lat_ms"], 0.9) for r in reps], 0.25), "ms"),
        "decisions_per_s": (median([ratio(decided(r), r["window_s"]) for r in reps]), "1/s"),
        "deliveries_per_s": (median([ratio(r["deliveries"], r["window_s"]) for r in reps]), "1/s"),
        "kb_per_decision": (median([ratio(r["honest_bytes"] / 1e3, decided(r)) for r in reps]),
                            "KB"),
        "cpu_ms_per_decision": (median([ratio((r["cpu_user_s"] + r["cpu_sys_s"]) * 1e3, decided(r))
                                        for r in reps]), "ms"),
        "teardown_s": (median([r["teardown_s"] for r in reps]), "s"),
        "peak_rss_mb": (end["peak_rss_kb"] / 1024.0, "MB"),
    }
    samples = (f"{sum(len(r['lat_ms']) for r in reps)} instance(s) over "
               f"{len(reps)} repetition(s)")
    if sim:
        samples += "; decide_ms is simulated time, identical in every repetition"
    return m, samples


def per_layer(untraced, traced, codec, sim):
    S = lambda key, reps=traced: sum(r[key] for r in reps)
    decisions = sum(r["instances"] - r["undecided"] for r in traced)
    handler, send, decode = S("handler_ns"), S("send_ns"), S("decode_ns")
    frames, sends, cpu = S("decode_calls"), S("send_calls"), S("node_cpu_ns")
    delphi_self = handler - send
    thread_window_ns = sum(r["node_threads"] * r["window_s"] * 1e9 for r in traced)
    tag_ns, encode_ns, parse_ns = codec["tag_ns"], codec["encode_ns"], codec["parse_ns"]
    # Socket substrates only: the simulator neither encodes, parses nor tags.
    # Sign tags and body encodes run inside the timed send call, so the ledger
    # adds only what runs outside every span: verify tags and frame parses.
    tags = 2 * frames
    outside = (tag_ns + parse_ns) * frames
    user, sys_ = S("cpu_user_s", untraced), S("cpu_sys_s", untraced)
    u_decisions = sum(r["instances"] - r["undecided"] for r in untraced)
    overhead = ratio(median([r["wall_s"] for r in traced]),
                     median([r["wall_s"] for r in untraced])) - 1
    m = {
        "delphi.self_ns_per_delivery": (ratio(delphi_self, S("handler_calls")), "ns"),
        "delphi.busy_frac": (ratio(delphi_self, thread_window_ns), "ratio"),
        "delphi.deliveries_per_decision": (ratio(S("handler_calls"), decisions), "count"),
        "delphi.sends_per_decision": (ratio(sends, decisions), "count"),
        "net.send_ns_per_call": (ratio(send, sends), "ns"),
        "transport.decode_ns_per_frame": (ratio(decode, frames), "ns"),
        "transport.frames_per_decision": (ratio(frames, decisions), "count"),
        "transport.io_frac": (0.0 if sim else ratio(cpu - handler - decode, cpu), "ratio"),
        "udp.retransmit_frac": (ratio(S("catchup_frames"), S("honest_msgs")), "ratio"),
        "crypto.tag_ns": (tag_ns, "ns"),
        "crypto.est_frac": (ratio(tag_ns * tags, cpu), "ratio"),
        "frame.encode_ns": (encode_ns, "ns"),
        "frame.parse_ns": (parse_ns, "ns"),
        "frame.est_frac": (ratio(encode_ns * (0 if sim else sends) + parse_ns * frames, cpu),
                           "ratio"),
        "sim.engine_frac": (ratio(cpu - handler, cpu) if sim else 0.0, "ratio"),
        "os.sys_frac": (ratio(sys_, user + sys_), "ratio"),
        "os.ctxsw_per_decision": (ratio(S("nvcsw", untraced), u_decisions), "count"),
        "scenario.setup_ms": (median([r["setup_all_s"] * 1e3 for r in untraced]), "ms"),
        "scenario.teardown_ms": (median([r["teardown_s"] * 1e3 for r in untraced]), "ms"),
        "ledger.accounted_frac": (ratio(handler + decode + outside, cpu), "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    samples = (f"{len(traced)} traced + {len(untraced)} untraced repetition(s); "
               f"mean frame {codec['mean_frame_bytes']:.1f} B")
    return m, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail(2, "--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "scenario" / "runtime.hpp").is_file():
        fail(2, f"library sources not found under {ROOT / 'src'}; run from a "
                "full checkout")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build(build_dir)

    cmd = [str(build_dir / "perfbench_driver"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(4, f"driver exited with code {r.returncode}")
    records = [json.loads(line) for line in r.stdout.splitlines()
               if line.startswith("{")]
    reps = [x for x in records if x["kind"] == "rep"]
    end = next(x for x in records if x["kind"] == "end")
    untraced = [x for x in reps if not x["traced"]]
    traced = [x for x in reps if x["traced"]]
    sim = a.workload == "sim-cps"

    attempted = sum(x["instances"] for x in reps)
    failed = sum(x["undecided"] + x["violations"] for x in reps)
    problems = [x["first_violation"] for x in reps if x["first_violation"]]
    problems += ["run not ok (node failure or timeout)" for x in reps if not x["ok"]]
    if sim and len({x["digest"] for x in reps}) != 1:
        problems.append("simulation did not reproduce bit for bit across repetitions")
    correct = failed == 0 and not problems

    if a.trace:
        codec = next(x for x in records if x["kind"] == "codec")
        metrics, samples = per_layer(untraced, traced, codec, sim)
    else:
        metrics, samples = end_to_end(reps, end, sim)

    host = {k: end[k] for k in ("nproc", "cpu", "kernel", "build_type", "sha256_hw")}
    print("host " + json.dumps(host))
    print(f"workload {a.workload} seed {a.seed} trace {a.trace}: {samples}; "
          f"{time.monotonic() - t0:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6g} {unit}")
    print(f"  {'failed_frac':34s} {ratio(failed, attempted):16.6g} ratio "
          f"({failed} of {attempted} instances)")
    for p in problems[:5]:
        print(f"  FAILED: {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
