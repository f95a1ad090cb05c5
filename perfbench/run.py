#!/usr/bin/env python3
"""Build the benchmark and run one workload, or check that it is steady.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness

One run builds perfbench/bench.exe and bin/semimatch_cli.exe with dune
(release profile, build directory .bench_build), runs the workload for S
seconds in a scratch directory under .bench_work, and prints the
benchmark's tables followed, as the last line, by one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

--steadiness runs every workload of BENCHMARK.json as two sets of RUNS runs
on distinct seeds (from FIRST_SEED on, none of them used while tuning) and
reports, per metric and workload, the spread of each set
(interquartile range over median) and whether the second set's median is
within the metric's bound of the first's.  It exits 1 when a metric is
outside its bound.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
CLI_EXE = os.path.join(BUILD_DIR, "default", "bin", "semimatch_cli.exe")
RUN_TIMEOUT_S = 170
RUNS = 10
FIRST_SEED = 1000


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def build():
    for path in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            die(f"{path} not found: run from the root of a semimatch checkout")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
            "./perfbench/bench.exe", "./bin/semimatch_cli.exe"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("build failed")


def stop_group(pgid):
    """Kill what is left of a run's process group (a daemon child whose
    parent died) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_once(workload, seed, seconds, trace, echo=True):
    """Run one workload; return the parsed result object."""
    work = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", work, "--cli", CLI_EXE]
    # A session of its own, so that a daemon child left behind can be
    # stopped with the whole group.  One CPU for the run and its daemon
    # child, so the speed kernel measures the core that does the work.
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        die(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die(f"{workload} printed no result line")
    if echo:
        print("\n".join(lines[:-1]))
    return result


def check_result(result, spec, trace):
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(result.get("metrics", {})) != sorted(names):
        die("metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(result.get('metrics', {})))}")
    for m in declared:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            die(f"metric {m['name']}: unit differs from BENCHMARK.json")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("result keys differ from the contract")


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), statistics.median(values)


def steadiness(spec, seconds):
    rows, ok = [], True
    for w in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(2):
            seeds = range(FIRST_SEED + s * RUNS, FIRST_SEED + (s + 1) * RUNS)
            results = []
            for seed in seeds:
                r = run_once(w, seed, seconds, 0, echo=False)
                check_result(r, spec, False)
                if not r["correct"]:
                    ok = False
                    print(f"perfbench: {w} seed {seed}: wrong answers", file=sys.stderr)
                results.append(r)
                print(f"  {w} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                    file=sys.stderr, flush=True)
            sets.append(results)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sp = [spread([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            (s1, med1), (s2, med2) = sp
            worse = (med2 - med1) / med1 if m["better"] == "lower" else (med1 - med2) / med1
            steady = name == "setup_s" or (s1 <= bound and s2 <= bound)
            agree = worse <= bound
            ok = ok and steady and agree
            rows.append((w, name, bound, s1, s2, med1, med2, worse, steady and agree))
    print(f"\n{'workload':<14} {'metric':<16} {'bound':>6} {'spread1':>8} {'spread2':>8}"
          f" {'median1':>14} {'median2':>14} {'worse':>7}  verdict")
    for w, name, bound, s1, s2, m1, m2, worse, good in rows:
        print(f"{w:<14} {name:<16} {bound:>6.2f} {s1:>8.4f} {s2:>8.4f} {m1:>14.6g} {m2:>14.6g}"
              f" {worse:>+7.3f}  {'ok' if good else 'OUT OF BOUND'}")
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(os.path.join(WORK_DIR, "steadiness.json"), "w") as f:
        json.dump([dict(zip(("workload", "metric", "bound", "spread1", "spread2", "median1",
                             "median2", "worse", "ok"), row)) for row in rows], f, indent=1)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    build()
    if args.steadiness:
        sys.exit(0 if steadiness(spec, seconds) else 1)
    if args.workload not in names:
        die(f"--workload must be one of {', '.join(names)}")
    result = run_once(args.workload, args.seed, seconds, args.trace)
    check_result(result, spec, args.trace == 1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
