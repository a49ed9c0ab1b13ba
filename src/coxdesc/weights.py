"""Weight vectors for descent elements: files, presets, seeded randomness.

Weight file format (JSON): {"basis": "x", "weights": {"": "1", "s1,s3": "3/2"}}
with subset names comma-joined ("" is the empty set; each subset at most
once) and rationals as "p/q" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random

from .coxeter import CoxeterSpec
from .descent import DescentElement
from .exact import rational_from_string
from .subsets import iter_subsets, subset_from_name, subset_indices, subset_name


def load_weight_file(path: str, rank: int) -> DescentElement:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return weights_from_dict(data, rank)


def weights_from_dict(data: dict, rank: int) -> DescentElement:
    if not isinstance(data, dict):
        raise ValueError("weight file must hold a JSON object")
    basis = data.get("basis", "x")
    if basis not in ("x", "y"):
        raise ValueError(f"bad basis {basis!r}")
    raw = data.get("weights")
    if not isinstance(raw, dict):
        raise ValueError('weight file needs a "weights" object')
    coeffs = {}
    for key, val in raw.items():
        try:
            mask = subset_from_name(key, rank)
        except ValueError as exc:
            raise ValueError(f"bad subset key {key!r}: {exc}") from None
        if mask in coeffs:
            raise ValueError(f"subset {subset_name(mask)!r} given twice")
        try:
            coeffs[mask] = rational_from_string(str(val))
        except ValueError:
            raise ValueError(f"bad rational for key {key!r}: {val!r}") from None
    return DescentElement(basis, coeffs)


def preset_uniform(rank: int) -> DescentElement:
    """lambda_J = 1 for every J, in the x-basis."""
    return DescentElement("x", {m: Fraction(1) for m in iter_subsets(rank)})


def _require_type_a(spec: CoxeterSpec, what: str):
    tag = spec.type_tag or ""
    if not (tag.startswith("A") and tag[1:].isdigit()):
        raise ValueError(f"preset {what} is only defined for type A groups")


def preset_qmaj(spec: CoxeterSpec, q: Fraction) -> DescentElement:
    """sum over J of q^Maj(J) y_J, Maj(J) = sum of the 1-based indices in J."""
    _require_type_a(spec, "qmaj")
    coeffs = {}
    for m in iter_subsets(spec.rank):
        maj = sum(i + 1 for i in subset_indices(m))
        coeffs[m] = q ** maj
    return DescentElement("y", coeffs)


def preset_desx(spec: CoxeterSpec, xs: list[Fraction]) -> DescentElement:
    """sum over J of (sum of X_i over t_i in J) y_J."""
    _require_type_a(spec, "desx")
    if len(xs) != spec.rank:
        raise ValueError(f"desx needs {spec.rank} values, got {len(xs)}")
    coeffs = {}
    for m in iter_subsets(spec.rank):
        coeffs[m] = sum((xs[i] for i in subset_indices(m)), Fraction(0))
    return DescentElement("y", coeffs)


def parse_preset(text: str, spec: CoxeterSpec) -> DescentElement:
    """uniform | qmaj:Q | desx:X1,..,Xn  (Q and X_i are rationals)."""
    if text == "uniform":
        return preset_uniform(spec.rank)
    if text.startswith("qmaj:"):
        return preset_qmaj(spec, rational_from_string(text[5:]))
    if text.startswith("desx:"):
        xs = [rational_from_string(part) for part in text[5:].split(",")]
        return preset_desx(spec, xs)
    raise ValueError(f"unknown preset {text!r}")


def random_weights(rank: int, seed: int) -> DescentElement:
    """Seeded random rationals of height <= 100 on every subset."""
    rng = Random(seed)
    coeffs = {}
    for m in iter_subsets(rank):
        num = rng.randint(-100, 100)
        den = rng.randint(1, 100)
        coeffs[m] = Fraction(num, den)
    return DescentElement("x", coeffs)
