"""Workload definitions and the seeded inputs they run on.

A workload is a fixed list of CLI calls, one "pass".  The timed phase repeats
whole passes until the run's seconds are used up, so every run measures the
same mix of calls.  Inputs come only from the seed and are written as files:
weight JSON for --weights and Coxeter matrices for @file specs.

Seeded weights are positive, all with the prime denominator 97, and their
numerators sum to a fixed total per subset.  The largest coefficient of the
expanded group-algebra element (at the identity) is then the same for every
seed, so a certified run needs the same number of primes whatever the seed.
Every numerator is above 256, so every coefficient of the scaled element is
too: CPython shares the int objects up to 256, and a seed-dependent share of
such entries would make the oracle's memory use depend on the seed.
"""

from __future__ import annotations

import json
import os
import random

WEIGHT_DENOMINATOR = 97
WEIGHT_NUMERATOR_MIN = 257
WEIGHT_NUMERATOR_MEAN = 500

# Explicit matrices for groups the CLI has no name for.
EXPLICIT_MATRICES = {
    "H4": [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]],
    "B5": [[1, 3, 2, 2, 2], [3, 1, 3, 2, 2], [2, 3, 1, 3, 2],
           [2, 2, 3, 1, 4], [2, 2, 2, 4, 1]],
    "D5": [[1, 3, 2, 2, 2], [3, 1, 3, 2, 2], [2, 3, 1, 3, 3],
           [2, 2, 3, 1, 2], [2, 2, 3, 2, 1]],
}

SWEEP_GROUPS = ("A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "D4", "H3", "F4",
                "I2(5)", "I2(8)", "I2(12)", "H4", "B5", "D5")
CERTIFY_GROUPS = ("H3", "A4", "B3")
SWEEP_TABLES = ("ajkk", "ajkk-naive", "structure")

WORKLOADS = ("verify-f4", "certify-small", "algebra-sweep")


def rank_of(name: str) -> int:
    return 2 if name.startswith("I2(") else int(name[1:])


def subset_name(mask: int) -> str:
    return ",".join(f"s{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


def seeded_weights(rank: int, rng: random.Random) -> dict:
    """x-basis weight file: numerators > 256, none divisible by 97, fixed sum."""
    parts = 1 << rank
    spare = parts * (WEIGHT_NUMERATOR_MEAN - WEIGHT_NUMERATOR_MIN)
    while True:
        cuts = sorted(rng.choices(range(spare + 1), k=parts - 1))
        bounds = [0] + cuts + [spare]
        nums = [WEIGHT_NUMERATOR_MIN + b - a for a, b in zip(bounds, bounds[1:])]
        if all(n % WEIGHT_DENOMINATOR for n in nums):
            break
    return {"basis": "x",
            "weights": {subset_name(m): f"{n}/{WEIGHT_DENOMINATOR}"
                        for m, n in enumerate(nums)}}


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases (exact below 3.3e24)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def seeded_prime62(rng: random.Random) -> int:
    """A prime in [2^61, 2^62): the largest one below a seeded start."""
    c = rng.randrange(2 ** 61 + 2 ** 40, 2 ** 62) | 1
    while not is_probable_prime(c):
        c -= 2
    return c


class Inputs:
    """Files and op lists of one workload for one seed, under `root`."""

    def __init__(self, workload: str, seed: int, root: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.root = root
        self.cache_dir = os.path.join(root, "cache")
        rng = random.Random(f"{workload}:{seed}")
        self.weights = {}        # group name -> weight dict
        self.specs = {}          # group name -> CLI spec argument
        self.prime = None
        if workload == "verify-f4":
            groups = ("F4",)
            self.prime = seeded_prime62(rng)
        elif workload == "certify-small":
            groups = CERTIFY_GROUPS
        else:
            groups = SWEEP_GROUPS
        for name in groups:
            self.weights[name] = seeded_weights(rank_of(name), rng)
            self.specs[name] = name
            if name in EXPLICIT_MATRICES:
                path = os.path.join(root, f"matrix-{name}.json")
                m = EXPLICIT_MATRICES[name]
                _write_json(path, {"rank": len(m), "m": m})
                self.specs[name] = "@" + path
            _write_json(self.weight_path(name), self.weights[name])
        self.groups = groups

    def weight_path(self, name: str) -> str:
        return os.path.join(self.root, f"weights-{name}.json")

    def ops(self):
        """One pass: list of (op id, kind, group name, argv)."""
        common = ["--format", "json", "--cache-dir", self.cache_dir]
        out = []
        for g in self.groups:
            spec, w = self.specs[g], self.weight_path(g)
            if self.workload == "verify-f4":
                out.append((f"verify:{g}", "verify", g,
                            ["verify", spec, "--primes", str(self.prime),
                             "--weights", w] + common))
            elif self.workload == "certify-small":
                out.append((f"certify:{g}", "certify", g,
                            ["verify", spec, "--certify", "--weights", w] + common))
            else:
                out.append((f"group:{g}", "group", g, ["group", spec] + common))
                for what in SWEEP_TABLES:
                    out.append((f"table-{what}:{g}", "table", g,
                                ["table", spec, "--what", what] + common))
                out.append((f"spectrum:{g}", "spectrum", g,
                            ["spectrum", spec, "--weights", w] + common))
        return out


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
