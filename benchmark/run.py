#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (benchmark/overlay_bench.cpp).

One workload, through the interface BENCHMARK.json declares (run from the
repo root):

    python3 benchmark/run.py --workload construct_4k --seed 1 --seconds 20 --trace 0

prints every metric by name with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones (and
writes a Chrome trace next to the build).

Every workload, untraced then traced, with a host-stamped result set:

    python3 benchmark/run.py --seed 1 [--repeat 5] [--sets 2] [--out PREFIX]

With --sets 2 the runs alternate between two result sets (PREFIX-a.json,
PREFIX-b.json) for benchmark/compare.py. --smoke runs all four workloads at
tiny sizes in a few seconds.

The build lives in .bench_build/ at the repo root. The exit status is
non-zero when the build fails, an output check fails, or a run times out.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "overlay_bench")
RESULTS = os.path.join(BUILD, "results")
# A run measures for --seconds, finishes the operation in flight, then checks
# outputs; anything still running this long after its start has hung.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures once, then rebuilds overlay_bench (a no-op when current)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the overlay sources (CMakeLists.txt, src/) are not next to "
             "benchmark/; run from a full checkout")
    os.makedirs(RESULTS, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "overlay_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   timeout=850)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {' '.join(cmd)} failed: {e}")
            if r.returncode != 0:
                fail(f"build failed (exit {r.returncode}); see {log_path}")


def run_binary(workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process; returns its result dict."""
    tag = f"{workload}-seed{seed}"
    json_path = os.path.join(RESULTS,
                             f"{tag}-{'traced' if trace else 'timed'}.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--json", json_path]
    if trace:
        cmd += ["--trace", os.path.join(RESULTS, tag + ".trace.json")]
    if smoke:
        cmd.append("--smoke")
    if os.path.exists(json_path):
        os.remove(json_path)
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{tag} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode not in (0, 3):  # 3: ran, but an output check failed
        fail(f"{tag} exited with status {proc.returncode}")
    try:
        with open(json_path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"{tag} wrote no readable result: {e}")


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def report(result, spec, trace):
    """Prints one run's metrics; returns the result line printed last."""
    names = expected_metrics(spec, trace)
    got = result["metrics"]
    if list(got) != names:
        fail(f"{result['workload']}: metric set differs from BENCHMARK.json")
    print(f"# {result['workload']} seed={result['seed']} "
          f"trace={int(trace)} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name in names:
        m = got[name]
        print(f"{name:48s} {m['value']:>18.6g} {m['unit']}")
    for err in result.get("errors", []):
        print(f"  error: {err}")
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": got}


def read_first(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def host_meta(seed):
    """The host stamp of a result set."""
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            level = read_first(os.path.join(base, idx, "level"))
            kind = read_first(os.path.join(base, idx, "type"))
            size = read_first(os.path.join(base, idx, "size"))
            if level in ("2", "3") and kind in ("Unified", "Data"):
                caches[f"L{level}"] = size
    model = None
    for line in (read_first("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    try:
        sha = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, timeout=10)
        sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "l2": caches.get("L2"), "l3": caches.get("L3"),
            "machine": platform.machine(), "git_sha": sha, "seed": seed,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def summary(result):
    """A run as stored in a result set: everything but the raw samples."""
    return {k: v for k, v in result.items() if k != "samples"}


def run_all(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = 1 if args.smoke else (args.seconds or spec["run_seconds"])
    names = [chr(ord("a") + k) for k in range(args.sets)]
    sets = {k: {"meta": host_meta(args.seed), "runs": []} for k in names}
    ok = True
    for rep in range(args.repeat):
        for w in workloads:
            # Alternate which set runs first, so drift hits both alike.
            order = names if rep % 2 == 0 else names[::-1]
            for k in order:
                r = run_binary(w, args.seed, seconds, False, args.smoke)
                report(r, spec, False)
                ok = ok and r["correct"] and r["failed"] == 0
                sets[k]["runs"].append(summary(r))
    for w in workloads:
        r = run_binary(w, args.seed, seconds, True, args.smoke)
        report(r, spec, True)
        ok = ok and r["correct"] and r["failed"] == 0
        sets[names[0]]["runs"].append(summary(r))
    for k, data in sets.items():
        run0 = next(iter(data["runs"]), {})
        data["meta"].update({
            "hardware_concurrency": run0.get("hardware_concurrency"),
            "compiler": run0.get("compiler"),
            "build_type": run0.get("build_type"),
            "run_seconds": seconds, "smoke": args.smoke})
        prefix = args.out or os.path.join(
            RESULTS, f"set-seed{args.seed}{'-smoke' if args.smoke else ''}")
        path = prefix + (f"-{k}" if args.sets > 1 else "") + ".json"
        with open(path, "w") as f:
            json.dump(data, f, indent=1)
            f.write("\n")
        print(f"wrote {path}")
    if not ok:
        fail("an output check failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--sets", type=int, default=1, help="1 to 26")
    p.add_argument("--out")
    args = p.parse_args()
    if not 1 <= args.sets <= 26 or args.repeat < 1:
        p.error("--sets must be 1..26 and --repeat at least 1")

    spec = load_spec()
    build()
    if args.workload is None:
        run_all(args, spec)
        return
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    seconds = args.seconds or spec["run_seconds"]
    result = run_binary(args.workload, args.seed, seconds, bool(args.trace),
                        args.smoke)
    line = report(result, spec, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(line))
    if not line["correct"] or line["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
