"""Subsets of the generator set as bitmasks, and the Bergeron total order.

A subset J of the generators {s1, ..., sn} is an n-bit mask: bit i set means
s_{i+1} in J.  Subset names used in files and CLI output are comma-joined
generator names ("s1,s3"), with the empty string denoting the empty set.
"""

from __future__ import annotations


def iter_subsets(rank: int):
    """All 2^rank masks in ascending bitmask order."""
    return range(1 << rank)


def subset_indices(mask: int) -> list[int]:
    """0-based generator indices of a mask, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def subset_name(mask: int) -> str:
    """Comma-joined generator names; empty string for the empty set."""
    return ",".join(f"s{i + 1}" for i in subset_indices(mask))


def subset_from_name(name: str, rank: int) -> int:
    """Inverse of subset_name.  Raises ValueError on malformed names."""
    name = name.strip()
    if not name:
        return 0
    mask = 0
    for part in name.split(","):
        part = part.strip()
        if not part.startswith("s"):
            raise ValueError(f"bad generator name {part!r}")
        try:
            i = int(part[1:])
        except ValueError:
            raise ValueError(f"bad generator name {part!r}") from None
        if not 1 <= i <= rank:
            raise ValueError(f"generator {part!r} out of range for rank {rank}")
        mask |= 1 << (i - 1)
    return mask


def _min_index(mask: int, rank: int) -> int:
    """Smallest 1-based generator index in mask; rank+1 for the empty set."""
    if mask == 0:
        return rank + 1
    return (mask & -mask).bit_length()


def bergeron_compare(j: int, k: int, rank: int) -> int:
    """Bergeron order on subset masks: +1 if J > K, -1 if J < K, 0 if equal.

    Recursive rule: the set with the larger smallest generator index is the
    larger; on ties, strip the common smallest generator and recurse.  The
    empty set is the unique maximum.
    """
    while True:
        if j == k:
            return 0
        mj = _min_index(j, rank)
        mk = _min_index(k, rank)
        if mj > mk:
            return 1
        if mj < mk:
            return -1
        j &= j - 1  # drop lowest set bit
        k &= k - 1
