#!/usr/bin/env python3
"""Served-path benchmark of the transactional process manager.

Builds perfbench/perfbench.exe from the checkout with dune, runs it, and
passes its output through.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload serve-stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5
    python3 perfbench/run.py --selftest

Run it from the root of the repository.  It exits non-zero without a
result line when the build fails, and non-zero after the result line when
a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SCRATCH = os.path.join(ROOT, "_perfbench_tmp")
WORKLOADS = ["serve-contended", "serve-stream", "restart"]
# the child must end within the caller's limit of 180 s per run
CHILD_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log("cannot run dune: %s" % e)
        return False
    if r.returncode != 0 or not os.path.exists(EXE):
        log("build failed")
        return False
    return True


def commit():
    """The checked-out commit, or "unknown" outside a git work tree of
    this repository (a git repository around it does not count)."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.splitlines()
        if r.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_child(args, sha):
    """Runs the harness once; returns (exit code, stdout lines)."""
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = os.path.join(SCRATCH, str(os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [EXE] + args + ["--dir", tmp, "--commit", sha]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("harness timed out after %d s" % CHILD_TIMEOUT_S)
        out, proc.returncode = "", 124
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    return proc.returncode, out.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return res


def selftest():
    """Runs every workload tiny, with and without the trace, and asserts
    the correctness gate, the metric names and units of BENCHMARK.json,
    trace coverage on the served workloads, and exact counts that repeat
    across runs of one seed with the same trace setting (timed runs do not
    fsync, traced runs use the workload's sync policy, so the two differ)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        log("selftest: BENCHMARK.json workloads differ from %s" % WORKLOADS)
        return 1
    sha = commit()
    bad = 0
    for w in WORKLOADS:
        counts = {0: set(), 1: set()}
        for trace in (0, 1, 0):
            code, lines = run_child(["--workload", w, "--seed", "7", "--seconds", "0.5",
                                     "--trace", str(trace), "--size", "tiny"], sha)
            res = result_of(lines)
            problems = []
            if code != 0 or res is None or not res["correct"]:
                problems.append("exit %d, correct=%s" % (code, res and res["correct"]))
                problems += [l for l in lines if l.startswith("# FAIL")]
            else:
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want[trace]:
                    problems.append("metric names/units differ from BENCHMARK.json")
                if res["attempted"] < 1:
                    problems.append("nothing attempted")
                if trace == 1 and w.startswith("serve-"):
                    cov = res["metrics"]["trace.coverage"]["value"]
                    if not cov >= 0.9:
                        problems.append("trace.coverage %.3f < 0.9" % cov)
            counts[trace].update(l for l in lines if l.startswith("# counts") or l.startswith("# digest"))
            print("selftest %-16s trace=%d %s" % (w, trace, "ok" if not problems else
                                                   "FAILED: " + "; ".join(problems)))
            bad += bool(problems)
        if len(counts[0]) != 2:
            print("selftest %-16s exact counts or digest differ across runs of one seed" % w)
            bad += 1
    print("selftest: %s" % ("ok" if bad == 0 else "%d failures" % bad))
    return 1 if bad else 0


def run_all(a):
    """Runs every workload once and prints each metric by name, with its
    unit; exits non-zero if any run fails a check."""
    sha = commit()
    bad = 0
    for w in WORKLOADS:
        code, lines = run_child(["--workload", w, "--seed", str(a.seed), "--seconds",
                                 repr(a.seconds), "--trace", str(a.trace)], sha)
        res = result_of(lines)
        if code != 0 or res is None or not res["correct"]:
            bad += 1
            print("%-16s FAILED (exit %d)" % (w, code))
            for l in lines:
                if l.startswith("# FAIL"):
                    print("  " + l)
            continue
        print("%-16s correct attempted=%d failed=%d" % (w, res["attempted"], res["failed"]))
        for name, m in res["metrics"].items():
            print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not build():
        return 1
    if a.selftest:
        return selftest()
    if a.workload is None:
        ap.error("--workload is required")
    if a.workload == "all":
        return run_all(a)
    code, lines = run_child(["--workload", a.workload, "--seed", str(a.seed),
                             "--seconds", repr(a.seconds), "--trace", str(a.trace)], commit())
    for line in lines:
        print(line)
    sys.stdout.flush()
    if result_of(lines) is None:
        log("harness printed no result (exit %d)" % code)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
