#!/usr/bin/env python3
"""Benchmark of the CNI simulator: one named workload, end to end or per layer.

    python3 cnibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds cnibench/bench.exe with
dune, then:

  --trace 0  repeats the workload in fresh processes (untraced) until about
             S seconds are spent, at least three times, and reports the
             medians of the end-to-end metrics named in BENCHMARK.json
             (simulation host time in units of a reference kernel timed in
             the same process, so that the host's speed drift cancels);
  --trace 1  runs the workload once untraced, once traced and replays each
             layer's public calls, and reports the per-layer metrics named in
             BENCHMARK.json.

Both modes run the output checks. A human-readable report goes to stdout
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. cnibench/README.md explains every metric.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("dsm-cholesky-cni8", "dsm-jacobi-std16", "kv-torus-lossy16")
# set-ups timed per process: each is a few ms (DSM) or under 1 ms (KV)
SETUPS = {"dsm-cholesky-cni8": 20, "dsm-jacobi-std16": 20, "kv-torus-lossy16": 100}
MIN_REPS = 3
EXE = os.path.join("_build", "default", "cnibench", "bench.exe")
SOURCES = ("dune-project", os.path.join("lib", "dune"), os.path.join("cnibench", "bench.ml"), "BENCHMARK.json")
# per-process limit; a run must end within 180 s
PROCESS_TIMEOUT_S = 150
# setup_s is reported at the host speed on which one reference-kernel run
# takes this long (about its time on a 2-vCPU Xeon VM)
REF_NOMINAL_S = 0.2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=1):
    log("cnibench: " + msg)
    sys.exit(code)


def build():
    missing = [f for f in SOURCES if not os.path.isfile(f)]
    if missing:
        die("run from the root of a simulator checkout; missing " + ", ".join(missing), 2)
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    try:
        r = subprocess.run(cmd + ["build", "--root", ".", "./cnibench/bench.exe"],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        log(r.stdout)
        die("build failed")


def bench(*args):
    """Run bench.exe once; return its JSON result (its last stdout line)."""
    try:
        r = subprocess.run([EXE, *args], capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("bench.exe %s timed out" % " ".join(args))
    if r.returncode != 0 or not r.stdout.strip():
        log(r.stderr)
        die("bench.exe %s exited with %d" % (" ".join(args), r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def number(v):
    """A JSON-safe number: NaN/None (no samples) become -1 like other n/a values."""
    return -1.0 if v is None or (isinstance(v, float) and math.isnan(v)) else v


def print_checks(checks):
    """One line per distinct check: passes / runs, and a failing detail if any."""
    seen = {}
    for c in checks:
        e = seen.setdefault(c["what"], [0, 0, c["detail"]])
        e[0] += 1
        e[1] += bool(c["ok"])
        if not c["ok"]:
            e[2] = c["detail"]
    for what, (n, ok, detail) in seen.items():
        print("  check %-4s %s (%d/%d) %s" % ("ok" if ok == n else "FAIL", what, ok, n, detail))


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------- e2e


def run_reps(workload, seed, seconds):
    """Fresh-process repetitions until the time budget is spent."""
    kv = workload.startswith("kv-")
    reps, t0, last = [], time.monotonic(), 0.0
    while len(reps) < MIN_REPS or time.monotonic() - t0 + last <= seconds:
        args = ["e2e", "--workload", workload, "--seed", str(seed), "--setups", str(SETUPS[workload])]
        if kv and not reps:
            args.append("--count-frames")  # deterministic per seed: count once
        t = time.monotonic()
        reps.append(bench(*args))
        last = time.monotonic() - t
    return reps


def deterministic_view(rep, kv):
    """The part of a repetition that must repeat exactly for a seed."""
    if not kv:
        return rep["sim"]
    keep = ("tag", "requests", "responses", "failed", "samples", "p50_us", "p999_us",
            "elapsed_us", "retransmits", "fault_drops", "hop_waits", "error")
    return [{k: p[k] for k in keep if k in p} for p in rep["points"]]


def e2e(workload, seed, seconds):
    kv = workload.startswith("kv-")
    reps = run_reps(workload, seed, seconds)
    checks = [c for rep in reps for c in rep["checks"]]
    same = all(deterministic_view(r, kv) == deterministic_view(reps[0], kv) for r in reps)
    checks.append({"what": "simulated results identical across %d repetitions" % len(reps),
                   "ok": same, "detail": ""})
    first = reps[0]
    if kv:
        checks.append({"what": "delivered frames counted from a trace that kept every record",
                       "ok": all(isinstance(n, int) for n in first["frames"]), "detail": ""})
    failed = sum(1 for c in checks if not c["ok"])

    wall = statistics.median(r["wall_s"] for r in reps)
    ref = statistics.median(x for r in reps for x in r["ref_s"])
    setup_raw = statistics.median(x for r in reps for x in r["setup_s"])
    # host times over their own process's reference time: a process that
    # runs slow (host drift, a busy sibling core) runs both slow
    wall_ref = statistics.median(r["wall_s"] / statistics.mean(r["ref_s"]) for r in reps)
    setup = REF_NOMINAL_S * statistics.median(
        statistics.median(r["setup_s"]) / statistics.mean(r["ref_s"]) for r in reps)
    heap = statistics.median(r["peak_heap_mb"] for r in reps)
    if kv:
        points = first["points"]
        counted = first["frames"]
        frames = sum(counted) if all(isinstance(n, int) for n in counted) else float("nan")
        sim_elapsed_ms = sum(p.get("elapsed_us", 0.0) for p in points) / 1e3
    else:
        frames = first["sim"]["frames"]
        sim_elapsed_ms = first["sim"]["elapsed_ms"]
    values = {
        "setup_s": setup,
        "wall_ref": wall_ref,
        "frames_per_ref": frames / wall_ref,
        "peak_heap_mb": heap,
        "ok_ratio": (len(checks) - failed) / len(checks),
        "sim_elapsed_ms": sim_elapsed_ms,
    }
    n_setups = sum(len(r["setup_s"]) for r in reps)
    samples = {"setup_s": len(reps), "wall_ref": len(reps),
               "frames_per_ref": len(reps), "peak_heap_mb": len(reps), "ok_ratio": len(checks),
               "sim_elapsed_ms": 1}

    print("workload %s  seed %d  repetitions %d  (fresh process each)" % (workload, seed, len(reps)))
    print_checks(checks)
    metrics = {}
    for m in spec()["end_to_end"]:
        v = number(values[m["name"]])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print("  %-22s %18.6f %-8s (median of %d)" % (m["name"], v, m["unit"], samples[m["name"]]))
    print("  raw host times behind setup_s and wall_ref (they drift with the host's speed):")
    print("  %-22s %18.6f %-8s (median of %d)" % ("setup_s (raw)", setup_raw, "s", n_setups))
    print("  %-22s %18.6f %-8s (median of %d)" % ("wall_s", wall, "s", len(reps)))
    print("  %-22s %18.6f %-8s (median of %d)" % ("frames_per_host_s", number(frames / wall), "1/s", len(reps)))
    print("  %-22s %18.6f %-8s (median of %d)" % ("ref_s", ref, "s", sum(len(r["ref_s"]) for r in reps)))
    if kv:
        print_kv_ladder(points, first["capacity_rps"], frames)
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}


def print_kv_ladder(points, capacity, frames):
    print("  KV ladder (simulated; latency from each request's scheduled generation time):")
    for p in points:
        if "error" in p:
            print("    %s  FAILED: %d requests counted failed (%s)" % (p["tag"], p["failed"], p["error"]))
            continue
        print("    sim_p50_us.%-6s %9.3f sim_us (n=%d, %d beyond)   sim_p999_us.%-6s %9.3f sim_us "
              "(n=%d, %d beyond)   served %.3f  drain lag %.1f us  retransmits %d"
              % (p["tag"], p["p50_us"], p["samples"], p["beyond_p50"], p["tag"], p["p999_us"],
                 p["samples"], p["beyond_p999"], p["throughput_rps"] / p["offered_rps"],
                 p["drain_lag_us"], p["retransmits"]))
    print("    sim_capacity_rps       %9.0f 1/sim_s (limit: all answered, >=95%% served, p999 <= 250 us)"
          % capacity)
    print("    delivered frames (traced count) %s" % frames)


# ---------------------------------------------------------------- per layer


def layers(workload, seed):
    out = bench("layers", "--workload", workload, "--seed", str(seed))
    got, info, checks = out["metrics"], out["info"], out["checks"]
    checks.append({"what": "trace retained every record it was asked for",
                   "ok": info["trace_retained_all"], "detail": ""})
    failed = sum(1 for c in checks if not c["ok"])
    print("workload %s  seed %d  per-layer run (untraced, then traced, then replays)" % (workload, seed))
    print_checks(checks)
    print("  untraced wall %.3f s, traced wall %.3f s, %d frames" % (info["wall_s"], info["traced_wall_s"], info["frames"]))
    print("  replay inputs taken from the run: %s" % json.dumps(info["replay_inputs"]))
    print("  replayed public calls (on the simulation's path: calls x ns/call estimates host time):")
    for r in info["replays"]:
        est = "%10.1f ms" % (r["calls"] * r["ns_per_call"] / 1e6) if r["on_path"] else "  (not per frame)"
        print("    %-11s %-34s %12d calls x %10.1f ns  %s" % (r["layer"], r["call"], r["calls"], r["ns_per_call"], est))
    names = [m["name"] for m in spec()["per_layer"]]
    unknown = sorted(set(got) - set(names))
    if unknown:
        die("bench.exe reported metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for m in spec()["per_layer"]:
        # a workload reports only the layers it exercises; -1 marks the rest
        v = number(got.get(m["name"]))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print("  %-36s %18.6f %s" % (m["name"], v, m["unit"] if m["name"] in got else "(n/a on this workload)"))
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    # one CPU for every repetition, so a process's reference and simulation
    # run on the same one
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = layers(a.workload, a.seed) if a.trace else e2e(a.workload, a.seed, a.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
