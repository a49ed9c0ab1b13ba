"""Write golden.json: digests of every op's seed-independent output.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_golden.py

Every op of every workload is run once for each of two seeds; the script
fails if the projected outputs differ between the seeds, since the digests
must hold for any seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import child  # puts ./src on sys.path
import checks
import workloads


def record(seed: int) -> dict:
    ops, groups = {}, {}
    tmp = tempfile.mkdtemp(dir=os.path.join(child.ROOT, ".perfbench-tmp"))
    try:
        for name in workloads.WORKLOADS:
            inputs = workloads.Inputs(name, seed, tmp)
            for op_id, kind, group, argv in inputs.ops():
                rc, out = child.run_cli(argv)
                if rc != 0:
                    sys.exit(f"{op_id} exited {rc}")
                data = checks.projection(kind, json.loads(out))
                keys = sorted(data)
                ops[op_id] = {"keys": keys, "sha256": checks.digest(data, keys)}
                g = groups.setdefault(group, {"order": data.get("order")})
                if kind == "group":
                    g["closure_counts"] = [c["elements"] for c in data["classes"]]
                elif kind == "spectrum":
                    g["forms"] = [{"multiplicity": c["multiplicity"],
                                   "delta_symbolic": c["delta_symbolic"]}
                                  for c in data["classes"]]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"ops": ops, "groups": groups}


def main() -> int:
    os.makedirs(os.path.join(child.ROOT, ".perfbench-tmp"), exist_ok=True)
    first, second = record(1), record(2)
    if first != second:
        sys.exit("projected outputs depend on the seed")
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(first, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
