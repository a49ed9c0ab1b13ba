"""Group cache: skip the root-system closure on repeat builds.

Version 2 stores only the generator permutations of the root set, keyed by a
hash of the canonical spec matrix.  Element enumeration from these
permutations is deterministic, so a cache load reproduces the exact same
element table and query results as a fresh build.

Location: the directory named by the COXDESC_CACHE environment variable,
default ".coxdesc-cache".  Files are versioned JSON; stale versions,
malformed files and permutations that do not act like the group's generators
are ignored (the group is rebuilt and the file rewritten).  A file that is
used holds `rank` involutions of one root set in which s_i moves root i and
s_i s_j has order m_ij, and every element of the group they generate is
fixed by its images of the simple roots, which is all CoxeterSystem stores
of an element (it enumerates by those of w^-1); so a cache load can merge no
two elements.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

CACHE_VERSION = 2
ENV_VAR = "COXDESC_CACHE"
DEFAULT_DIR = ".coxdesc-cache"


def cache_dir(override: str | None = None) -> str:
    return override or os.environ.get(ENV_VAR) or DEFAULT_DIR


def _path(spec, override):
    digest = hashlib.sha256(spec.canonical_key().encode()).hexdigest()[:24]
    return os.path.join(cache_dir(override), f"group-{digest}.json")


def _order(perm) -> int:
    """Order of a permutation of range(n): lcm of its cycle lengths."""
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def _valid_perms(perms, spec) -> bool:
    """`rank` involutions of one range(n), n >= rank (an involution of
    range(n) into itself is a permutation), that act like the group's
    generators: s_i moves the simple root i, s_i s_j has order exactly m_ij
    on the roots, and the simple roots identify elements."""
    rank = spec.rank
    if not isinstance(perms, list) or len(perms) != rank:
        return False
    n = len(perms[0]) if isinstance(perms[0], list) else -1
    if n < rank or not all(
            isinstance(p, list) and len(p) == n
            and all(type(x) is int and 0 <= x < n for x in p)
            and all(p[x] == i for i, x in enumerate(p)) for p in perms):
        return False
    return all(perms[i][i] != i for i in range(rank)) and all(
        _order([perms[i][x] for x in perms[j]]) == spec.matrix[i][j]
        for i in range(rank) for j in range(i + 1, rank)
    ) and _simple_roots_identify(perms, rank)


def _simple_roots_identify(perms, rank) -> bool:
    """Does every element of the group the permutations generate follow from
    its images of the simple roots 0..rank-1 (all CoxeterSystem stores)?

    True when every root x is reached from a simple root, and the reflection
    t_x, set to s_i on root i and to s_i t_x s_i on s_i x, is well defined.
    Then t_(w alpha_i) = w s_i w^-1, so w(s_i x) = t_(w alpha_i)(w x), and by
    induction along the reaching paths w is fixed on every root.
    """
    n = len(perms[0])
    refl = {i: tuple(perms[i]) for i in range(rank)}
    frontier = list(range(rank))
    while frontier:
        nxt = []
        for x in frontier:
            tx = refl[x]
            for p in perms:
                t = tuple([p[tx[p[z]]] for z in range(n)])
                got = refl.setdefault(p[x], t)
                if got is t:
                    nxt.append(p[x])
                elif got != t:
                    return False
        frontier = nxt
    return len(refl) == n


def load(spec, override: str | None = None):
    """Return the generator permutations, or None when absent/stale/malformed."""
    path = _path(spec, override)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
        return None
    if data.get("spec_key") != spec.canonical_key():
        return None
    perms = data.get("gen_perms")
    if not _valid_perms(perms, spec):
        return None
    return [tuple(p) for p in perms]


def save(spec, gen_perms, override: str | None = None) -> str:
    """Write atomically through a unique temporary file in the cache dir."""
    path = _path(spec, override)
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    data = {
        "version": CACHE_VERSION,
        "spec_key": spec.canonical_key(),
        "gen_perms": [list(p) for p in gen_perms],
    }
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path
