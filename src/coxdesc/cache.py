"""Group cache: skip the root-system closure on repeat builds.

Version 2 stores only the generator permutations of the root set, keyed by a
hash of the canonical spec matrix; root signs are derived from them on load,
as on a fresh build.  Element enumeration from these permutations is
deterministic, so a cache load reproduces the exact same element table and
query results as a fresh build.

Location: the directory named by the COXDESC_CACHE environment variable,
default ".coxdesc-cache".  Files are versioned JSON; stale versions and
malformed files are ignored (the group is rebuilt and the file rewritten).
"""

from __future__ import annotations

import hashlib
import json
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


def _valid_perms(perms, rank: int) -> bool:
    """`rank` involutions of one range(n), n >= rank (an involution of
    range(n) into itself is a permutation)."""
    if not isinstance(perms, list) or len(perms) != rank:
        return False
    n = len(perms[0]) if isinstance(perms[0], list) else -1
    return n >= rank and all(
        isinstance(p, list) and len(p) == n
        and all(type(x) is int and 0 <= x < n for x in p)
        and all(p[x] == i for i, x in enumerate(p)) for p in perms)


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
    if not _valid_perms(perms, spec.rank):
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
