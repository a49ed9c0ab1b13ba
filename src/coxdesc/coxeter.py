"""Finite Coxeter groups: construction, cosets, parabolics, conjugacy.

A group is built from its Coxeter matrix.  The classification of the
Coxeter graph (Humphreys, Reflection Groups and Coxeter Groups, ch. 2)
decides up front whether W is finite and gives |W| and |Phi|; an infinite or
oversized group is refused before any other work.  The root system of the
geometric realization is closed under the simple reflections over a prime
field (exact, since the closure must reach exactly |Phi| roots), and each
element is stored as the permutation it induces on the roots.  The geometric
representation is faithful and the simple roots are a basis (Humphreys,
Reflection Groups and Coxeter Groups, 5.3-5.4), so an element is identified
by its images of the simple roots, root indices 0..rank-1: `index` is keyed
by those rank images, and products are composed only there.  Everything
after the build is integer table work.

CoxeterSystem and ParabolicAtlas are immutable once built (the lazy caches
are guarded), so instances can be shared freely across threads; the build
itself is single-threaded.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from math import factorial, lcm
from operator import mul

from .errors import GroupTooLargeError, InvariantError
from .modular import prime_one_mod, root_of_unity
from .subsets import (
    bergeron_compare,
    bergeron_sorted,
    iter_subsets,
    subset_indices,
)

DEFAULT_ELEMENT_CAP = 2_000_000


# ---------------------------------------------------------------------------
# Specs

def _chain(rank, labels):
    """Coxeter matrix for a path graph; labels[i] joins s_{i+1} and s_{i+2}."""
    m = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 1
    for i, lab in enumerate(labels):
        m[i][i + 1] = m[i + 1][i] = lab
    return m


def _named_matrix(name: str):
    name = name.strip().upper()
    if name.startswith("A") and name[1:].isdigit():
        n = int(name[1:])
        if 1 <= n <= 6:
            return _chain(n, [3] * (n - 1))
    if name.startswith("B") and name[1:].isdigit():
        n = int(name[1:])
        if 2 <= n <= 4:
            return _chain(n, [3] * (n - 2) + [4])
    if name == "D4":
        # star: s2 central, bonded to s1, s3, s4
        m = [[2] * 4 for _ in range(4)]
        for i in range(4):
            m[i][i] = 1
        for j in (0, 2, 3):
            m[1][j] = m[j][1] = 3
        return m
    if name == "H3":
        return [[1, 5, 2], [5, 1, 3], [2, 3, 1]]
    if name == "F4":
        return _chain(4, [3, 4, 3])
    if name.startswith("I2(") and name.endswith(")"):
        try:
            mm = int(name[3:-1])
        except ValueError:
            return None
        if 2 <= mm <= 12:
            return [[1, mm], [mm, 1]]
    return None


SUPPORTED_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "D4", "H3", "F4",
    "I2(m) for 2 <= m <= 12",
)


@dataclass(frozen=True)
class CoxeterSpec:
    """Rank and symmetric bond-label matrix, with an optional type tag."""

    rank: int
    matrix: tuple
    type_tag: str | None = None

    @staticmethod
    def from_matrix(matrix, type_tag=None) -> "CoxeterSpec":
        if not isinstance(matrix, (list, tuple)) or not matrix:
            raise ValueError("Coxeter matrix must be a non-empty list of rows")
        rank = len(matrix)
        if any(not isinstance(row, (list, tuple)) or len(row) != rank
               for row in matrix):
            raise ValueError("Coxeter matrix must be square")
        if any(type(x) is not int for row in matrix for x in row):
            raise ValueError("Coxeter matrix entries must be integers")
        m = tuple(tuple(row) for row in matrix)
        for i in range(rank):
            if m[i][i] != 1:
                raise ValueError("Coxeter matrix diagonal must be all 1")
            for j in range(rank):
                if m[i][j] != m[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if i != j and m[i][j] < 2:
                    raise ValueError("off-diagonal bond labels must be >= 2")
        return CoxeterSpec(rank, m, type_tag)

    @staticmethod
    def from_name(name: str) -> "CoxeterSpec":
        m = _named_matrix(name)
        if m is None:
            raise ValueError(
                f"unknown group type {name!r}; supported: {', '.join(SUPPORTED_TYPES)}"
            )
        return CoxeterSpec.from_matrix(m, type_tag=name.strip().upper())

    @staticmethod
    def from_json(data) -> "CoxeterSpec":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError("spec JSON must be an object")
        if "type" in data:
            if not isinstance(data["type"], str):
                raise ValueError('spec "type" must be a string')
            return CoxeterSpec.from_name(data["type"])
        if "m" not in data:
            raise ValueError('spec JSON needs "type" or "m"')
        spec = CoxeterSpec.from_matrix(data["m"])
        if "rank" in data and data["rank"] != spec.rank:
            raise ValueError("rank does not match matrix size")
        return spec

    def to_json(self) -> dict:
        if self.type_tag is not None:
            return {"type": self.type_tag}
        return {"rank": self.rank, "m": [list(r) for r in self.matrix]}

    def canonical_key(self) -> str:
        """Stable serialization of the matrix, used for cache hashing."""
        return json.dumps({"rank": self.rank, "m": [list(r) for r in self.matrix]},
                          sort_keys=True, separators=(",", ":"))

    def label(self) -> str:
        return self.type_tag or f"rank{self.rank}-custom"


# ---------------------------------------------------------------------------
# Classification (Humphreys, Reflection Groups and Coxeter Groups, ch. 2)

def _component_sizes(m, comp):
    """(|W|, |Phi|) of the irreducible group on the connected vertex list
    `comp` of the Coxeter graph, or None when that group is infinite."""
    n = len(comp)
    if n <= 2:
        k = m[comp[0]][comp[-1]] if n == 2 else 1
        return 2 * k, 2 * k  # A1, I2(k)
    adj = {v: [u for u in comp if u != v and m[v][u] >= 3] for v in comp}
    if sum(map(len, adj.values())) != 2 * (n - 1):
        return None  # the graph has a cycle
    heavy = [(v, u) for v in comp for u in adj[v] if v < u and m[v][u] > 3]
    branch = [v for v in comp if len(adj[v]) > 2]
    if not branch:  # a path
        if not heavy:
            return factorial(n + 1), n * (n + 1)  # A_n
        if len(heavy) > 1:
            return None
        v, u = heavy[0]
        k, at_end = m[v][u], min(len(adj[v]), len(adj[u])) == 1
        if k == 4 and at_end:
            return 2 ** n * factorial(n), 2 * n * n  # B_n
        if k == 4 and n == 4:
            return 1152, 48  # F4
        if k == 5 and at_end and n <= 4:
            return (120, 30) if n == 3 else (14400, 120)  # H3, H4
        return None
    if heavy or len(branch) > 1 or len(adj[branch[0]]) > 3:
        return None
    arms = []  # vertices on each arm of the star, centre excluded
    for v in adj[branch[0]]:
        prev, size = branch[0], 1
        while len(adj[v]) == 2:
            prev, v = v, next(u for u in adj[v] if u != prev)
            size += 1
        arms.append(size)
    arms.sort()
    if arms[:2] == [1, 1]:
        return 2 ** (n - 1) * factorial(n), 2 * n * (n - 1)  # D_n
    return {(1, 2, 2): (51840, 72), (1, 2, 3): (2903040, 126),
            (1, 2, 4): (696729600, 240)}.get(tuple(arms))  # E6, E7, E8


def group_sizes(spec: CoxeterSpec) -> tuple[int, int]:
    """(|W|, |Phi|), read from the types of the components of the Coxeter
    graph (an edge wherever m_ij >= 3): |W| is the product of the component
    orders and |Phi| the sum of rank times Coxeter number.

    GroupTooLargeError when W is infinite or |W| > DEFAULT_ELEMENT_CAP.
    """
    m, rank = spec.matrix, spec.rank
    order, roots, seen = 1, 0, set()
    for start in range(rank):
        if start in seen:
            continue
        comp = [start]
        for v in comp:  # the list grows: a BFS queue
            comp += [u for u in range(rank) if m[v][u] >= 3 and u not in comp]
        seen.update(comp)
        sizes = _component_sizes(m, sorted(comp))
        if sizes is None:
            raise GroupTooLargeError(
                f"group too large or infinite: {spec.label()} is infinite")
        order *= sizes[0]
        roots += sizes[1]
    if order > DEFAULT_ELEMENT_CAP:
        raise GroupTooLargeError(
            f"group too large or infinite: |W| = {order} > {DEFAULT_ELEMENT_CAP}")
    return order, roots


# ---------------------------------------------------------------------------
# Root system construction

def _build_root_permutations(spec: CoxeterSpec):
    """Close the simple roots under the simple reflections, over F_p.

    Returns the generator permutations of the root set; the simple roots are
    root indices 0..rank-1.  Root coordinates lie in Z[2cos(pi/N)], N = lcm
    of the bond labels.  Sending 2cos(pi/m) to z^(N/m) + z^(-N/m), for z of
    order 2N in F_p and a prime p = 1 (mod 2N), is a ring map, so the
    closure mod p is the image of Phi.  It has exactly |Phi| points iff no
    two roots collide; then every equality test agrees with the exact one,
    and the breadth-first root numbering is the exact closure's.
    InvariantError when the count differs from the classification.  Root
    signs are not decided here (see CoxeterSystem._positive_roots).
    """
    rank = spec.rank
    _, num_roots = group_sizes(spec)
    n = max(2, lcm(*(k for row in spec.matrix for k in row)))
    p = prime_one_mod(2 * n)
    z = root_of_unity(2 * n, p)
    # t[i][j] = 2cos(pi/m_ij) mod p; t[i][i] = 2cos(pi) = -2
    t = [[(pow(z, n // k, p) + pow(z, -(n // k), p)) % p for k in row]
         for row in spec.matrix]

    def reflect(i, v):
        # s_i v = v - 2B(alpha_i, v) alpha_i, with 2B(alpha_i, alpha_j) = -t[i][j]
        return v[:i] + ((v[i] + sum(map(mul, t[i], v))) % p,) + v[i + 1:]

    roots = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    index = {r: i for i, r in enumerate(roots)}
    frontier = list(roots)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                w = reflect(i, v)
                if w not in index:
                    if len(roots) == num_roots:
                        raise InvariantError(
                            f"root closure mod {p} exceeds |Phi| = {num_roots}")
                    index[w] = len(roots)
                    roots.append(w)
                    nxt.append(w)
        frontier = nxt
    if len(roots) != num_roots:
        raise InvariantError(f"root closure mod {p} has {len(roots)} roots, "
                             f"not |Phi| = {num_roots}")
    return [tuple(index[reflect(i, v)] for v in roots) for i in range(rank)]


# ---------------------------------------------------------------------------
# The group

class CoxeterSystem:
    """A finite Coxeter group with full element and length tables.

    Elements are indices 0..order-1 with the identity at index 0; the
    enumeration is breadth-first over right multiplication by generators
    (ascending generator index), so it is deterministic and length-graded.
    It must reach exactly the |W| of `group_sizes` (InvariantError).
    """

    def __init__(self, spec: CoxeterSpec, gen_perms):
        self.spec = spec
        self.rank = spec.rank
        self.gen_perms = [tuple(p) for p in gen_perms]
        self.num_roots = len(self.gen_perms[0])
        positive = self._positive_roots()
        self.root_signs = tuple(1 if r in positive else -1
                                for r in range(self.num_roots))
        self._enumerate(group_sizes(spec)[0])
        self._lock = threading.Lock()
        self._mult_rows: dict[int, list[int]] = {}
        self._conj_gen = None
        self._subgroups: dict[int, frozenset] = {}

    # -- construction --------------------------------------------------------

    def _positive_roots(self) -> set:
        """Phi+ as root indices: the simple roots 0..rank-1 closed under s_j
        applied to roots other than alpha_j (s_j permutes Phi+ minus alpha_j)."""
        positive = set(range(self.rank))
        frontier = list(positive)
        while frontier:
            nxt = []
            for r in frontier:
                for j, perm in enumerate(self.gen_perms):
                    x = perm[r]
                    if r != j and x not in positive:
                        positive.add(x)
                        nxt.append(x)
            frontier = nxt
        return positive

    def _enumerate(self, predicted):
        rank = self.rank
        gens = self.gen_perms
        heads = [g[:rank] for g in gens]
        identity = tuple(range(self.num_roots))
        elements = [identity]
        index = {identity[:rank]: 0}
        rt = [[0] * rank]
        length = [0]
        parent = [(-1, -1)]
        frontier = [0]
        while frontier:
            nxt = []
            for w in frontier:
                pw = elements[w]
                row = rt[w]
                for i, head in enumerate(heads):
                    key = tuple([pw[x] for x in head])
                    idx = index.get(key)
                    if idx is None:
                        idx = len(elements)
                        if idx == predicted:
                            raise InvariantError(
                                f"enumeration exceeds |W| = {predicted}")
                        index[key] = idx
                        elements.append(tuple([pw[x] for x in gens[i]]))
                        rt.append([0] * rank)
                        length.append(length[w] + 1)
                        parent.append((w, i))
                        nxt.append(idx)
                    row[i] = idx
            frontier = nxt
        if len(elements) != predicted:
            raise InvariantError(
                f"enumerated {len(elements)} elements, not |W| = {predicted}")
        self.order = len(elements)
        self.elements = elements
        self.index = index
        self.right_table = rt
        self.length = length
        self.parent = parent
        # for w = v s_i: s_j w = (s_j v) s_i and w^-1 = s_i v^-1, where v and
        # v^-1 are shorter than w, so they precede it in BFS order
        lt = [list(rt[0])]
        inv = [0]
        for w in range(1, self.order):
            v, i = parent[w]
            lt.append([rt[x][i] for x in lt[v]])
            inv.append(lt[inv[v]][i])
        self.left_table = lt
        self.inverse = inv
        full = (1 << rank) - 1
        des_r = []
        des_l = []
        for w in range(self.order):
            lw = length[w]
            mr = 0
            ml = 0
            for i in range(rank):
                if length[rt[w][i]] < lw:
                    mr |= 1 << i
                if length[lt[w][i]] < lw:
                    ml |= 1 << i
            des_r.append(mr)
            des_l.append(ml)
        self.des_r = des_r
        self.des_l = des_l
        self.longest = max(range(self.order), key=lambda w: length[w])
        assert des_r[self.longest] == full and des_l[self.longest] == full
        assert sum(1 for w in range(self.order) if length[w] == 0) == 1

    # -- basic operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        row = self._mult_rows.get(a)
        if row is not None:
            return row[b]
        pa, pb = self.elements[a], self.elements[b]
        return self.index[tuple([pa[x] for x in pb[:self.rank]])]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, w: int) -> int:
        """w^-1 a w."""
        wi = self.inverse[w]
        return self.mul(self.mul(wi, a), w)

    def word(self, w: int) -> tuple:
        """A stored reduced word for w (generator indices, left to right)."""
        out = []
        while w != 0:
            w, i = self.parent[w]
            out.append(i)
        return tuple(reversed(out))

    def descent_sets(self, w: int) -> tuple[int, int]:
        """(left descent mask, right descent mask)."""
        return self.des_l[w], self.des_r[w]

    def mult_row(self, u: int) -> list[int]:
        """Row of the multiplication table: index of u*v for every v."""
        row = self._mult_rows.get(u)
        if row is not None:
            return row
        row = self.product_row(u)
        with self._lock:
            self._mult_rows[u] = row
        return row

    def product_row(self, u: int) -> list[int]:
        """The same row as `mult_row`, built afresh and not memoized."""
        rt = self.right_table
        parent = self.parent
        row = [0] * self.order
        row[0] = u
        for v in range(1, self.order):
            pv, i = parent[v]
            row[v] = rt[row[pv]][i]
        return row

    @property
    def conj_gen(self) -> list[list[int]]:
        """conj_gen[w][i] = index of w s_i w^-1.

        Kept as a reference table and a benchmark hook; nothing in coxdesc
        calls it (parabolic conjugation is read from simple-root images).
        """
        if self._conj_gen is None:
            with self._lock:
                if self._conj_gen is None:
                    table = []
                    for w, pw in enumerate(self.elements):
                        ip = self.elements[self.inverse[w]][:self.rank]
                        table.append([self.index[tuple([pw[g[x]] for x in ip])]
                                      for g in self.gen_perms])
                    self._conj_gen = table
        return self._conj_gen

    # -- roots ---------------------------------------------------------------

    def length_by_roots(self, w: int) -> int:
        """Number of positive roots sent negative by w (equals l(w))."""
        pw = self.elements[w]
        signs = self.root_signs
        return sum(1 for r in range(self.num_roots)
                   if signs[r] > 0 and signs[pw[r]] < 0)

    # -- parabolic subgroups and cosets ---------------------------------------

    def subgroup(self, mask: int) -> frozenset:
        """Element-index set of the standard parabolic subgroup W_J."""
        got = self._subgroups.get(mask)
        if got is not None:
            return got
        gens = subset_indices(mask)
        seen = {0}
        frontier = [0]
        rt = self.right_table
        while frontier:
            nxt = []
            for w in frontier:
                for i in gens:
                    v = rt[w][i]
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        out = frozenset(seen)
        with self._lock:
            self._subgroups[mask] = out
        return out

    def min_coset_reps(self, mask: int, side: str = "right") -> list[int]:
        """W^J (side="right": l(ws) > l(w) for s in J) or ^JW (side="left").

        Sorted by element index, which is length-graded BFS order.
        """
        if side == "right":
            des = self.des_r
        elif side == "left":
            des = self.des_l
        else:
            raise ValueError("side must be 'left' or 'right'")
        return [w for w in range(self.order) if not des[w] & mask]

    def double_coset_reps(self, j_mask: int, k_mask: int) -> list[int]:
        """The distinguished cross-section ^J W^K, sorted by element index."""
        des_l, des_r = self.des_l, self.des_r
        return [w for w in range(self.order)
                if not des_l[w] & j_mask and not des_r[w] & k_mask]

    def double_coset_rep(self, w: int, j_mask: int, k_mask: int) -> int:
        """The unique minimal-length element of W_J w W_K."""
        des_l, des_r = self.des_l, self.des_r
        lt, rt = self.left_table, self.right_table
        while True:
            dl = des_l[w] & j_mask
            if dl:
                w = lt[w][(dl & -dl).bit_length() - 1]
                continue
            dr = des_r[w] & k_mask
            if dr:
                w = rt[w][(dr & -dr).bit_length() - 1]
                continue
            return w

    def coxeter_element(self, mask: int, order_reversed: bool = False) -> int:
        """Product of the generators of J, ascending index by default."""
        gens = subset_indices(mask)
        if order_reversed:
            gens = gens[::-1]
        w = 0
        for i in gens:
            w = self.right_table[w][i]
        return w

    def conjugacy_class(self, x: int) -> frozenset:
        """Orbit of x under conjugation, by generator-conjugation BFS."""
        lt, rt = self.left_table, self.right_table
        seen = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for i in range(self.rank):
                    z = rt[lt[y][i]][i]  # s_i y s_i
                    if z not in seen:
                        seen.add(z)
                        nxt.append(z)
            frontier = nxt
        return frozenset(seen)

    def __repr__(self):
        return f"CoxeterSystem({self.spec.label()}, order={self.order})"


def build_group(spec: CoxeterSpec, use_cache: bool = False,
                cache_dir: str | None = None) -> CoxeterSystem:
    """Build the full CoxeterSystem for a spec.

    With use_cache the generator permutations are loaded from / saved to the
    cache directory (COXDESC_CACHE env var, default ".coxdesc-cache");
    element enumeration from cached data is deterministic, so queries are
    identical to a fresh build.  Fails with GroupTooLargeError("group too
    large or infinite") for an infinite W or |W| > DEFAULT_ELEMENT_CAP,
    before any cache load, closure or enumeration.
    """
    from . import cache as _cache

    group_sizes(spec)
    if use_cache:
        gen_perms = _cache.load(spec, cache_dir)
        if gen_perms is not None:
            return CoxeterSystem(spec, gen_perms)
    gen_perms = _build_root_permutations(spec)
    group = CoxeterSystem(spec, gen_perms)
    if use_cache:
        _cache.save(spec, gen_perms, cache_dir)
    return group


# ---------------------------------------------------------------------------
# Parabolic atlas

class ParabolicAtlas:
    """Per-subset parabolic data and the conjugacy classes of parabolics.

    Classes are ordered descending by the Bergeron order of their minimal
    representatives (class 0 is the class of the empty set).  Conjugating
    elements between class members are fixed deterministically: minimal
    length, ties broken by the lexicographically smallest root permutation
    (or largest, with tiebreak="revlex").
    """

    def __init__(self, group: CoxeterSystem, tiebreak: str = "lex"):
        if tiebreak not in ("lex", "revlex"):
            raise ValueError("tiebreak must be 'lex' or 'revlex'")
        self.group = group
        self.tiebreak = tiebreak
        rank = group.rank
        self.all_masks = list(iter_subsets(rank))
        self._lock = threading.Lock()
        self._conjugators: dict[tuple[int, int], int] = {}
        self._nj: dict[int, frozenset] = {}
        self._class_sizes: dict[int, int] = {}
        self._closure_counts = None
        self._build_classes()

    # -- normalizer complements ----------------------------------------------

    def normalizer_complement(self, mask: int) -> frozenset:
        """N_J: minimal coset representatives w with w^-1 W_J w = W_J.

        w in W^J normalizes W_J iff it permutes the simple roots Delta_J
        (Howlett, J. London Math. Soc. 21, 1980), read from w's images of
        the simple roots: root index r < rank is alpha_r.
        """
        got = self._nj.get(mask)
        if got is not None:
            return got
        g = self.group
        gens = subset_indices(mask)
        res = frozenset(w for w in g.min_coset_reps(mask, "right")
                        if all(mask >> g.elements[w][i] & 1 for i in gens))
        with self._lock:
            self._nj[mask] = res
        return res

    # -- parabolic conjugacy classes ------------------------------------------

    def _conjugate_parabolics(self, j_mask: int, k_mask: int) -> bool:
        """Whether some w in W^K has w Delta_K = Delta_J (w W_K w^-1 = W_J)."""
        g = self.group
        if len(g.subgroup(j_mask)) != len(g.subgroup(k_mask)):
            return False
        gens = subset_indices(k_mask)
        return any(all(j_mask >> g.elements[w][k] & 1 for k in gens)
                   for w in g.min_coset_reps(k_mask, "right"))

    def _build_classes(self):
        rank = self.group.rank
        classes: list[list[int]] = []
        for mask in iter_subsets(rank):
            for cls in classes:
                if self._conjugate_parabolics(cls[0], mask):
                    cls.append(mask)
                    break
            else:
                classes.append([mask])
        from functools import cmp_to_key

        keyf = cmp_to_key(lambda a, b: bergeron_compare(a, b, rank))
        with_reps = []
        for cls in classes:
            rep = bergeron_sorted(cls, rank, descending=False)[0]
            with_reps.append((rep, sorted(cls)))
        # classes descending by the Bergeron order of their representatives
        with_reps.sort(key=lambda rc: keyf(rc[0]), reverse=True)
        self.classes = with_reps
        self.p = len(with_reps)
        self.class_reps = [rep for rep, _ in with_reps]
        self.class_of = {}
        for idx, (_, members) in enumerate(with_reps):
            for m in members:
                self.class_of[m] = idx

    # -- Coxeter elements ------------------------------------------------------

    def coxeter_class_size(self, mask: int, order_reversed: bool = False) -> int:
        """Size of the conjugacy class of the Coxeter element c_J.

        Note: this is the literal orbit size.  The spectral multiplicity
        attached to a parabolic class is `closure_class_counts`, which
        coincides with this orbit size in type A but not in general (in H3
        the two classes of order-5 rotations merge into one closure count).
        """
        if order_reversed:
            g = self.group
            return len(g.conjugacy_class(g.coxeter_element(mask, order_reversed=True)))
        got = self._class_sizes.get(mask)
        if got is None:
            g = self.group
            got = len(g.conjugacy_class(g.coxeter_element(mask)))
            with self._lock:
                self._class_sizes[mask] = got
        return got

    # -- parabolic closures ------------------------------------------------------

    def closure_class_counts(self) -> list[int]:
        """Per class: how many w in W have parabolic closure in that class.

        The parabolic closure of w is the smallest parabolic subgroup
        containing w (intersections of parabolics are parabolic, so it is
        well defined and is the unique containing parabolic of minimal
        order).  These counts are the eigenvalue multiplicities of the
        regular representation of a generic descent-algebra element.

        w lies in a conjugate of W_J iff its conjugacy class meets W_J, so
        each conjugacy class gets the class of the smallest W_J it meets.
        """
        if self._closure_counts is not None:
            return list(self._closure_counts)
        g = self.group
        label = [None] * g.order
        sizes = []
        for w in range(g.order):
            if label[w] is None:
                members = g.conjugacy_class(w)
                for x in members:
                    label[x] = len(sizes)
                sizes.append(len(members))
        # stable sort: among equal orders the first mask in all_masks wins
        best = [None] * len(sizes)
        for mask in sorted(self.all_masks, key=lambda m: len(g.subgroup(m))):
            for u in g.subgroup(mask):
                if best[label[u]] is None:
                    best[label[u]] = self.class_of[mask]
        assert None not in best
        counts = [0] * self.p
        for cls, size in zip(best, sizes):
            counts[cls] += size
        with self._lock:
            self._closure_counts = counts
        return list(counts)

    # -- conjugators ------------------------------------------------------------

    def conjugator(self, kp_mask: int, k_mask: int) -> int:
        """The fixed c with c^-1 W_K' c = W_K, minimal in its normalizer coset.

        The minimal-length elements of {c : c^-1 W_K' c = W_K} lie in W^K
        and are exactly the minimal-length w with w Delta_K = Delta_K'
        (Howlett, J. London Math. Soc. 21, 1980); the tiebreak picks one.
        """
        if self.class_of[kp_mask] != self.class_of[k_mask]:
            raise ValueError("not conjugate")
        if kp_mask == k_mask:
            return 0
        key = (kp_mask, k_mask)
        got = self._conjugators.get(key)
        if got is not None:
            return got
        g = self.group
        gens = subset_indices(k_mask)
        elements, length = g.elements, g.length
        cands = []
        for w in range(g.order):  # length-graded: stop past the first hits
            if cands and length[w] > length[cands[0]]:
                break
            if all(kp_mask >> elements[w][k] & 1 for k in gens):
                cands.append(w)
        keyfun = (lambda x: g.elements[x]) if self.tiebreak == "lex" \
            else (lambda x: tuple(-v for v in g.elements[x]))
        c = min(cands, key=keyfun)
        # checked by conjugating in the group, not by the root test
        sub_k = g.subgroup(k_mask)
        assert all(g.conj(g.right_table[0][i], c) in sub_k
                   for i in subset_indices(kp_mask))
        with self._lock:
            self._conjugators[key] = c
        return c

    def __repr__(self):
        return f"ParabolicAtlas({self.group.spec.label()}, p={self.p})"
