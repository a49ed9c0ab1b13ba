"""Output checks, the golden digests they compare against, and references.

Every op's JSON is checked in three ways:

* exit code 0, plus facts known independently of the program: group orders,
  multiplicities summing to |W| and equal to the closure counts, the F4
  multiplicities 180/180/385, all primes matched, certified where asked;
* values that depend on the seeded weights are recomputed here from the
  weights: each Delta_j is the linear form printed as delta_symbolic applied
  to the weights, and verify must predict exactly those (Delta_j, m_j);
* the sha256 of the rest of the JSON must equal the digest recorded in
  golden.json at the seed commit.  Only the top-level keys present then are
  hashed, so later additive keys (timings, cache) do not break the check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

from workloads import is_probable_prime

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

F4_CORRECTED = (180, 180, 385)


def known_order(name: str) -> int:
    fixed = {"H3": 120, "H4": 14400, "F4": 1152}
    if name in fixed:
        return fixed[name]
    if name.startswith("I2("):
        return 2 * int(name[3:-1])
    n = int(name[1:])
    return {"A": math.factorial(n + 1), "B": 2 ** n * math.factorial(n),
            "D": 2 ** (n - 1) * math.factorial(n)}[name[0]]


def projection(kind: str, data: dict) -> dict:
    """The seed-independent part of an op's JSON, which golden.json pins."""
    data = {k: v for k, v in data.items() if k != "seconds"}
    if kind == "spectrum":
        data["classes"] = [{k: v for k, v in c.items() if k != "delta"}
                           for c in data["classes"]]
    elif kind in ("verify", "certify"):
        data = {"group": data["group"], "order": data["order"],
                "certified": data["certified"],
                "multiplicities": [f["multiplicity"] for f in data["predicted_factors"]]}
    return data


def digest(data: dict, keys) -> str:
    kept = {k: data[k] for k in keys if k in data}
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _deltas(forms, weights: dict):
    """Delta_j = sum over K of delta_symbolic_j[K] * lambda_K."""
    lam = {k: Fraction(v) for k, v in weights["weights"].items()}
    return [sum((int(c) * lam.get(k, 0) for k, c in f["delta_symbolic"].items()),
                Fraction(0)) for f in forms]


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class OutputChecker:
    """Checks op results; remembers closure counts seen in `group` output."""

    def __init__(self, golden: dict, inputs):
        self.golden = golden
        self.inputs = inputs
        self.closure = {}

    def check(self, op_id: str, kind: str, group: str, rc, text: str):
        """Return None if the op's output is right, else a reason."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            data = json.loads(text)
        except ValueError:
            return "output is not JSON"
        try:
            return self._check(op_id, kind, group, data)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {exc!r}"

    def _check(self, op_id, kind, group, data):
        why = self._check_values(kind, group, data)
        if why:
            return why
        want = self.golden["ops"].get(op_id)
        if want is None:
            return "no golden digest for this op"
        if digest(projection(kind, data), want["keys"]) != want["sha256"]:
            return "sha256 differs from the seed commit"
        return None

    def _check_values(self, kind, group, data):
        order = known_order(group)
        counts = self.golden["groups"][group]["closure_counts"]
        if kind in ("verify", "certify"):
            return self._check_verify(kind, group, data, order, counts)
        if kind == "group":
            if data["order"] != order:
                return f"order {data['order']} != {order}"
            mult = [c["elements"] for c in data["classes"]]
            if sum(mult) != order:
                return "closure counts do not sum to |W|"
            self.closure[group] = mult
        elif kind == "spectrum":
            mult = [c["multiplicity"] for c in data["classes"]]
            if data["order"] != order or sum(mult) != order:
                return "multiplicities do not sum to |W|"
            if mult != self.closure.get(group, counts):
                return "multiplicities differ from the group closure counts"
            want_d = _deltas(data["classes"], self.inputs.weights[group])
            if [Fraction(c["delta"]) for c in data["classes"]] != want_d:
                return "Delta_j differ from the weights applied to delta_symbolic"
        else:
            return None
        return _check_f4(mult) if group == "F4" else None

    def _check_verify(self, kind, group, data, order, counts):
        if data["order"] != order:
            return f"order {data['order']} != {order}"
        primes, matched = data["primes"], data["matched"]
        if not primes or len(matched) != len(primes) or not all(m is True for m in matched):
            return "not every prime matched"
        if data["skipped_primes"]:
            return "primes were skipped"
        if kind == "certify":
            if data["certified"] is not True:
                return "certify did not report certified: true"
            if len(set(primes)) != len(primes) or not all(
                    p < 2 ** 62 and is_probable_prime(p) for p in primes):
                return "certified moduli are not distinct 62-bit primes"
        elif primes != [self.inputs.prime]:
            return "verify did not use the requested prime"
        if data["weights"] != self.inputs.weights[group]["weights"]:
            return "weights echoed differ from the weight file"
        forms = self.golden["groups"][group]["forms"]
        want = [{"delta": _rat(d), "multiplicity": f["multiplicity"]}
                for d, f in zip(_deltas(forms, self.inputs.weights[group]), forms)]
        if data["predicted_factors"] != want:
            return "predicted factors differ from the recomputed spectrum"
        mult = [f["multiplicity"] for f in want]
        if sum(mult) != order or mult != counts:
            return "multiplicities differ from the closure counts"
        if group == "F4":
            return _check_f4(mult)
        return None


def _check_f4(mult):
    rest = list(mult)
    for m in F4_CORRECTED:
        if m not in rest:
            return "F4 lacks the corrected multiplicities 180/180/385"
        rest.remove(m)
    return None


def exact_charpoly(rows) -> list[int]:
    """det(tI - M) over the integers, ascending, by Faddeev-LeVerrier."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        coeffs[n - k] = -sum(am[i][i] for i in range(n)) / k
        m = am
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("Faddeev-LeVerrier left a fraction")
    return [int(c) for c in coeffs]
