"""Exact rationals and their "p/q" string serialization.

Rationals are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator).  This module adds the "p/q" string serialization used
in all file formats.  Root coordinates never need a field beyond the
integers: the root closure runs over a prime field (see coxeter).

All operations are pure functions, safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


def rational_from_string(s: str) -> Fraction:
    """Parse "p/q" or "p" (q omitted when 1).  ValueError when q is 0."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def rational_to_string(x: Fraction) -> str:
    """Render as "p/q", omitting "/q" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
