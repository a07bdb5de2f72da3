#!/usr/bin/env python3
"""Build and run the skeleton-engine benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/bench.exe from source with dune (from the
repository root), runs one workload in a fresh process and relays its
output; the last stdout line is the result object. The second runs every
workload of BENCHMARK.json at tiny sizes, traced and untraced, and checks
that each emits exactly the metric names BENCHMARK.json declares.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kw):
    """Run [cmd] in its own process group; on timeout kill the whole group
    (bench.exe forks rank processes) and wait for it. Returns the
    CompletedProcess, or None on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build():
    """Build the benchmark; dune's own output goes to stderr. The shared
    dune cache is off so the build writes only under the checkout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = run_group(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            880,
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
        )
    except OSError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False
    if proc is None:
        print("build timed out", file=sys.stderr)
        return False
    return proc.returncode == 0 and os.path.isfile(EXE)


def run_bench(args, timeout=RUN_TIMEOUT_S):
    """Run bench.exe with [args]; returns (exit code, stdout)."""
    proc = run_group([EXE] + args, timeout, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc is None:
        print(f"bench.exe timed out after {timeout} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: sorted(m["name"] for m in spec["end_to_end"]),
        1: sorted(m["name"] for m in spec["per_layer"]),
    }
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "0.3", "--trace", str(trace), "--tiny"]
            code, out = run_bench(args)
            lines = out.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                res = None
            problems = []
            if code != 0 or res is None:
                problems.append(f"exit {code}, no result")
            else:
                if sorted(res["metrics"]) != wanted[trace]:
                    got, want = set(res["metrics"]), set(wanted[trace])
                    problems.append(f"metric names differ: extra {sorted(got - want)}, missing {sorted(want - got)}")
                if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                    problems.append(f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{w['name']:>14} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny-size self-test of every workload")
    a = p.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if a.smoke:
        return smoke()
    if not a.workload:
        p.error("--workload is required")
    code, out = run_bench(
        ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    )
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
