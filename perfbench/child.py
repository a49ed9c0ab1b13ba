"""One workload run in a fresh process (started by run.py, not by hand).

Protocol on stdout: the line "ready <cpu seconds>" once set-up is done, with
the process CPU time used so far (interpreter start included), then, unless
--setup-only, one JSON line with the run's raw results.  The program's own
output is captured per op and never reaches this stdout.

Set-up imports coxdesc and numpy from ./src, writes the seeded inputs and
builds every group the workload touches cold (no cache) with its
ParabolicAtlas.  The timed phase then repeats whole passes of CLI calls,
in-process through coxdesc.cli.main, one after another, until --seconds have
elapsed; each op is timed in both wall and process CPU seconds.  Outputs are
checked after the timed phase, and the controls run after that, so neither is
on the clock.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402

import coxdesc  # noqa: E402
import coxdesc.cli  # noqa: E402
import coxdesc.oracle  # noqa: E402
from coxdesc.coxeter import CoxeterSpec, ParabolicAtlas, build_group  # noqa: E402
from coxdesc.modular import DEFAULT_PRIMES, charpoly_mod  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def run_cli(argv, tracer=None, index=0):
    """coxdesc.cli.main(argv) with its output captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tracer.op(index, coxdesc.cli.main, argv) if tracer else coxdesc.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that crashes is a failed op, not a dead run
            rc = "crash: " + traceback.format_exc(limit=3).replace("\n", " | ")
    return rc, out.getvalue()


def setup(inputs) -> None:
    for name in inputs.groups:
        spec_arg = inputs.specs[name]
        if spec_arg.startswith("@"):
            with open(spec_arg[1:], "r", encoding="utf-8") as fh:
                spec = CoxeterSpec.from_json(json.load(fh))
        else:
            spec = CoxeterSpec.from_name(spec_arg)
        ParabolicAtlas(build_group(spec, use_cache=False))


def timed_phase(ops, seconds, tracer):
    """Repeat whole passes for `seconds` of wall time.  Returns the results
    (op, rc, output, wall s, cpu s), the pass count and the phase's wall and
    CPU seconds."""
    results = []
    passes = 0
    t0, c0 = time.perf_counter(), time.process_time()
    while True:
        for op in ops:
            t, c = time.perf_counter(), time.process_time()
            rc, out = run_cli(op[3], tracer, len(results))
            results.append((op, rc, out, time.perf_counter() - t, time.process_time() - c))
        passes += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return results, passes, time.perf_counter() - t0, time.process_time() - c0


def negative_control(seed: int, tmp: str) -> bool:
    """verify H3 with one Delta_j shifted by 1 must exit 1 with a MISMATCH."""
    path = os.path.join(tmp, "control-weights.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workloads.seeded_weights(3, random.Random(f"control:{seed}")), fh)
    real = coxdesc.oracle.spectrum

    def shifted(*args, **kwargs):
        rep = real(*args, **kwargs)
        values = list(rep.delta_values)
        values[-1] += 1
        return dataclasses.replace(rep, delta_values=values)

    coxdesc.oracle.spectrum = shifted
    try:
        rc, out = run_cli(["verify", "H3", "--weights", path, "--format", "json",
                           "--cache-dir", os.path.join(tmp, "control-cache")])
    finally:
        coxdesc.oracle.spectrum = real
    return rc == 1 and False in json.loads(out)["matched"]


def kernel_reference(seed: int) -> bool:
    """charpoly_mod on small seeded integer matrices against exact charpolys."""
    rng = random.Random(f"kernel:{seed}")
    primes = (DEFAULT_PRIMES[0], workloads.seeded_prime62(rng), 1000003)
    for n in (1, 2, 3, 5, 8, 12):
        bound = rng.choice((3, 1000, 2 ** 70))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if n >= 5:
            rows[-1] = list(rows[0])     # singular: charpoly has a zero root
        want = checks.exact_charpoly(rows)
        for p in primes:
            if charpoly_mod(rows, p) != [c % p for c in want]:
                return False
    return True


def layer_metrics(tracer, passes: int, phase_s: float) -> dict:
    own = tracer.self_times()
    counts = tracer.counts

    def secs(name):
        return own.get(name, (0.0, 0))[0] / passes

    def calls(name):
        return own.get(name, (0.0, 0))[1] / passes

    structure_calls = own.get("descent.structure", (0.0, 0))[1]
    return {
        "cli.self_s": secs("cli"),
        "cache.load_s": secs("cache.load"),
        "cache.save_s": secs("cache.save"),
        "cache.hits": counts["cache.hits"] / passes,
        "cache.misses": counts["cache.misses"] / passes,
        "coxeter.build_group_self_s": secs("coxeter.build_group"),
        "coxeter.enumerate_s": secs("coxeter.enumerate"),
        "coxeter.atlas_s": secs("coxeter.atlas"),
        "coxeter.conj_gen_s": secs("coxeter.conj_gen"),
        "coxeter.closure_counts_s": secs("coxeter.closure_counts"),
        "descent.structure_s": secs("descent.structure"),
        "descent.structure_calls": calls("descent.structure"),
        "descent.structure_memo_ratio": (counts["descent.structure_repeats"]
                                         / structure_calls if structure_calls else 0.0),
        "descent.ajkk_formula_s": secs("descent.ajkk_formula"),
        "descent.spectrum_self_s": secs("descent.spectrum"),
        "oracle.verify_self_s": secs("oracle.verify"),
        "oracle.expand_s": secs("oracle.expand"),
        "oracle.primes_checked": counts["oracle.primes_checked"] / passes,
        "modular.charpoly_s": secs("modular.charpoly"),
        "modular.charpoly_calls": calls("modular.charpoly"),
        "modular.charpoly_n3_sum": counts["modular.charpoly_n3_sum"] / passes,
        "modular.prime_search_s": secs("modular.prime_search"),
        "trace.pass_s": phase_s / passes,
        "trace.spans_per_pass": len(tracer.spans) / passes,
    }


def write_spans(tracer, results, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "ops": [r[0][0] for r in results],
                   "spans": tracer.spans}, fh)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--controls", type=int, choices=(0, 1), default=1)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tmp_root = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        inputs = workloads.Inputs(args.workload, args.seed, tmp)
        setup(inputs)
        print(f"ready {time.process_time()!r}", flush=True)
        if args.setup_only:
            return 0
        golden = checks.load_golden()
        tracer = None
        if args.trace:
            import spans  # only traced runs load the tracer
            tracer = spans.Tracer()
            tracer.install()
        try:
            results, passes, phase_s, phase_cpu_s = timed_phase(
                inputs.ops(), args.seconds, tracer)
        finally:
            if tracer:
                tracer.remove()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        checker = checks.OutputChecker(golden, inputs)
        failures = []
        primes_checked = 0
        for (op_id, kind, group, _), rc, out, _, _ in results:
            why = checker.check(op_id, kind, group, rc, out)
            if why:
                failures.append(f"{op_id}: {why}")
            elif kind in ("verify", "certify"):
                primes_checked += len(json.loads(out)["primes"])
        res = {
            "passes": passes,
            "phase_s": phase_s,
            "phase_cpu_s": phase_cpu_s,
            "op_s": [r[3] for r in results],
            "op_cpu_s": [r[4] for r in results],
            "attempted": len(results),
            "failed": len(failures),
            "failures": failures[:5],
            "peak_rss_mb": peak_rss_mb,
            "primes_checked": primes_checked,
            "numpy": numpy.__version__,
        }
        if args.controls:
            res["controls"] = {"negative_control_mismatch": negative_control(args.seed, tmp),
                               "kernel_reference_equal": kernel_reference(args.seed)}
        if tracer:
            res["layers"] = layer_metrics(tracer, passes, phase_s)
            write_spans(tracer, results, os.path.join(
                ROOT, ".perfbench-out", f"spans-{args.workload}-seed{args.seed}.json"))
        print(json.dumps(res), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
