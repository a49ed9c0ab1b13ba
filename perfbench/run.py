"""coxdesc benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify-f4|certify-small|algebra-sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  Each run
starts the workload in a fresh process (perfbench/child.py), so memory peaks
and the program's memo tables never carry over between workloads.

--trace 0 prints the end-to-end metrics of an untraced run.  They are CPU
seconds of the workload process, not wall seconds: the program is single
threaded, so on an idle machine the two agree, but on a shared host wall time
also counts the time other tenants hold the cores.  set-up time is the median
of three fresh processes (two that only set up, and the measured one), each
timed in CPU seconds from process start until its first op is ready.  The wall
time figures go to the metadata line.

--trace 1 runs the workload twice, untraced and then traced, and prints the
per-layer metrics of the traced run (per pass of the workload), the tracing
overhead as traced minus untraced seconds per pass, and primes_per_s of the
untraced run.  The traced run writes its spans to .perfbench-out/.

Stdout ends with one JSON line: {"correct", "attempted", "failed", "metrics"},
each metric {"value", "unit"}.  The line before it holds run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

BUDGET_S = 170          # the whole run must end well within 180 s
SETUP_SAMPLES = 3
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

E2E_UNITS = {"ops_per_cpu_s": "1/s", "op_cpu_s.p50": "s", "op_cpu_s.p90": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(args, deadline, *, trace=0, controls=1, setup_only=False):
    """Start child.py; return (its CPU seconds until "ready", result dict or None)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--controls", str(controls)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline().split()
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or len(first) != 2 or first[0] != "ready":
        raise ChildFailed(f"workload process exited {rc}")
    ready_s = float(first[1])
    if setup_only:
        return ready_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise ChildFailed("workload process printed no result")
    return ready_s, json.loads(lines[-1])


def quantile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def controls_ok(res) -> bool:
    c = res.get("controls")
    return c is None or all(c.values())


def git_commit():
    """HEAD of ./.git if the checkout is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def src_stats():
    """Line count and sha256 of src/coxdesc/*.py, which identify the program
    where the checkout carries no git metadata."""
    pkg = os.path.join(ROOT, "src", "coxdesc")
    lines, digest = 0, hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            lines += data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    return lines, digest.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_unit(name: str) -> str:
    if name == "primes_per_s":
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "coxdesc", "cli.py")):
        print("error: run from the repository root; src/coxdesc not found",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S

    lines, src_sha256 = src_stats()
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit(), "src_sha256": src_sha256,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "python": platform.python_version(), "src_coxdesc_lines": lines,
            "client": "one closed-loop client, in-process coxdesc.cli.main"}
    try:
        if args.trace:
            _, base = run_child(args, deadline, trace=0, controls=1)
            _, traced = run_child(args, deadline, trace=1, controls=0)
            runs = (base, traced)
            layers = traced["layers"]
            base_pass = base["phase_s"] / base["passes"]
            layers["trace.untraced_pass_s"] = base_pass
            layers["trace.overhead_s"] = layers["trace.pass_s"] - base_pass
            layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / base_pass
            layers["primes_per_s"] = base["primes_checked"] / base["phase_s"]
            metrics = {k: metric(v, _layer_unit(k)) for k, v in sorted(layers.items())}
        else:
            setups = [run_child(args, deadline, setup_only=True)[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            ready_s, base = run_child(args, deadline)
            setups.append(ready_s)
            runs = (base,)
            ops, wall = base["op_cpu_s"], base["op_s"]
            values = {"ops_per_cpu_s": base["attempted"] / base["phase_cpu_s"],
                      "op_cpu_s.p50": statistics.median(ops),
                      "op_cpu_s.p90": quantile(ops, 90),
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": base["peak_rss_mb"]}
            metrics = {k: metric(v, E2E_UNITS[k]) for k, v in values.items()}
            beyond = sum(1 for t in ops if t > values["op_cpu_s.p90"])
            meta.update({"op_samples": len(ops), "samples_beyond_p90": beyond,
                         "setup_samples_cpu_s": setups,
                         "wall": {"ops_per_s": base["attempted"] / base["phase_s"],
                                  "op_s.p50": statistics.median(wall),
                                  "op_s.p90": quantile(wall, 90),
                                  "phase_s": base["phase_s"],
                                  "phase_cpu_s": base["phase_cpu_s"]},
                         "primes_per_s": base["primes_checked"] / base["phase_s"]})
            if beyond < 10:
                meta["note"] = (f"only {beyond} of {len(ops)} op samples lie beyond "
                                "p90; p90 is not resolved at that count")
    except (ChildFailed, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    meta.update({"numpy": base["numpy"], "passes": [r["passes"] for r in runs],
                 "error_rate": failed / attempted,
                 "failures": [f for r in runs for f in r["failures"]],
                 "controls": base.get("controls")})
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0 and all(controls_ok(r) for r in runs),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
