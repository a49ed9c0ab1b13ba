"""Finite Coxeter groups: construction, cosets, parabolics, conjugacy.

A group is built from its Coxeter matrix through the geometric realization:
the root system is closed under the simple reflections with exact coordinates
in Q(2cos(pi/N)), N = lcm of the bond labels, and each group element is
stored as the permutation it induces on the finite root set.  Element
identity is the root permutation; everything after the build is integer
table work.

CoxeterSystem and ParabolicAtlas are immutable once built (the lazy caches
are guarded), so instances can be shared freely across threads; the build
itself is single-threaded.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

from .errors import GroupTooLargeError
from .exact import cyclo_field, lcm
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
        rank = len(matrix)
        if rank < 1:
            raise ValueError("rank must be positive")
        m = tuple(tuple(int(x) for x in row) for row in matrix)
        if any(len(row) != rank for row in m):
            raise ValueError("Coxeter matrix must be square")
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
        if "type" in data:
            return CoxeterSpec.from_name(data["type"])
        if "m" not in data:
            raise ValueError('spec JSON needs "type" or "m"')
        if "rank" in data and data["rank"] != len(data["m"]):
            raise ValueError("rank does not match matrix size")
        return CoxeterSpec.from_matrix(data["m"])

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
# Root system construction

def _build_root_permutations(spec: CoxeterSpec, cap: int):
    """Close the simple roots under the simple reflections.

    Returns the generator permutations of the root set; the simple roots are
    root indices 0..rank-1.  Only exact equality of coordinates is used, so
    root signs are not decided here (see CoxeterSystem._positive_roots).
    """
    rank = spec.rank
    labels = [spec.matrix[i][j] for i in range(rank) for j in range(i + 1, rank)]
    field = cyclo_field(max(2, lcm(*labels))) if labels else cyclo_field(2)
    # bond values t[i][j] = 2cos(pi/m_ij)
    t = [[field.two_cos_pi_over(spec.matrix[i][j]) if i != j else None
          for j in range(rank)] for i in range(rank)]
    zero, one = field.zero, field.one

    def reflect(i, v):
        new_i = -v[i]
        for j in range(rank):
            if j != i and not v[j].is_zero():
                new_i = new_i + t[i][j] * v[j]
        return v[:i] + (new_i,) + v[i + 1 :]

    simple = [tuple(one if j == i else zero for j in range(rank)) for i in range(rank)]
    roots = list(simple)
    index = {r: i for i, r in enumerate(roots)}
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                w = reflect(i, v)
                if w not in index:
                    if len(roots) >= cap:
                        raise GroupTooLargeError("group too large or infinite")
                    index[w] = len(roots)
                    roots.append(w)
                    nxt.append(w)
        frontier = nxt
    return [tuple(index[reflect(i, v)] for v in roots) for i in range(rank)]


# ---------------------------------------------------------------------------
# The group

class CoxeterSystem:
    """A finite Coxeter group with full element and length tables.

    Elements are indices 0..order-1 with the identity at index 0; the
    enumeration is breadth-first over right multiplication by generators
    (ascending generator index), so it is deterministic and length-graded.
    """

    def __init__(self, spec: CoxeterSpec, gen_perms,
                 cap: int = DEFAULT_ELEMENT_CAP):
        self.spec = spec
        self.rank = spec.rank
        self.gen_perms = [tuple(p) for p in gen_perms]
        self.num_roots = len(self.gen_perms[0])
        positive = self._positive_roots()
        self.root_signs = tuple(1 if r in positive else -1
                                for r in range(self.num_roots))
        self._enumerate(cap)
        self._lock = threading.Lock()
        self._mult_rows: dict[int, list[int]] = {}
        self._conj_gen = None
        self._subgroups: dict[int, frozenset] = {}
        self._subgroup_masks: dict[int, int] = {}

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

    def _enumerate(self, cap):
        rank = self.rank
        identity = tuple(range(self.num_roots))
        elements = [identity]
        index = {identity: 0}
        rt = [[0] * rank]
        length = [0]
        parent = [(-1, -1)]
        frontier = [0]
        while frontier:
            nxt = []
            for w in frontier:
                pw = elements[w]
                row = rt[w]
                for i in range(rank):
                    key = tuple(pw[x] for x in self.gen_perms[i])
                    idx = index.get(key)
                    if idx is None:
                        idx = len(elements)
                        if idx >= cap:
                            raise GroupTooLargeError("group too large or infinite")
                        index[key] = idx
                        elements.append(key)
                        rt.append([0] * rank)
                        length.append(length[w] + 1)
                        parent.append((w, i))
                        nxt.append(idx)
                    row[i] = idx
            frontier = nxt
        self.order = len(elements)
        self.elements = elements
        self.index = index
        self.right_table = rt
        self.length = length
        self.parent = parent
        # left table, inverses
        lt = []
        inv = [0] * self.order
        for w, pw in enumerate(elements):
            lt.append([index[tuple(self.gen_perms[i][x] for x in pw)]
                       for i in range(rank)])
            ip = [0] * self.num_roots
            for r, x in enumerate(pw):
                ip[x] = r
            inv[w] = index[tuple(ip)]
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
        return self.index[tuple(pa[x] for x in pb)]

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
        rt = self.right_table
        parent = self.parent
        row = [0] * self.order
        row[0] = u
        for v in range(1, self.order):
            pv, i = parent[v]
            row[v] = rt[row[pv]][i]
        with self._lock:
            self._mult_rows[u] = row
        return row

    def right_translation(self, v: int) -> list[int]:
        """Column of the multiplication table: index of w*v for every w."""
        col = list(range(self.order))
        for i in self.word(v):
            rt = self.right_table
            col = [rt[x][i] for x in col]
        return col

    @property
    def conj_gen(self) -> list[list[int]]:
        """conj_gen[w][i] = index of w s_i w^-1."""
        if self._conj_gen is None:
            with self._lock:
                if self._conj_gen is None:
                    table = []
                    for w, pw in enumerate(self.elements):
                        ip = self.elements[self.inverse[w]]
                        table.append([
                            self.index[tuple(pw[self.gen_perms[i][x]] for x in ip)]
                            for i in range(self.rank)
                        ])
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
        bits = 0
        for w in seen:
            bits |= 1 << w
        with self._lock:
            self._subgroups[mask] = out
            self._subgroup_masks[mask] = bits
        return out

    def subgroup_bits(self, mask: int) -> int:
        """W_J as a big-int membership bitmask over element indices."""
        if mask not in self._subgroup_masks:
            self.subgroup(mask)
        return self._subgroup_masks[mask]

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

    def is_subgroup(self, elems) -> bool:
        s = set(elems)
        if 0 not in s:
            return False
        return all(self.mul(a, b) in s for a in s for b in s)

    def min_rep_general(self, w: int, u_elems, v_elems, check: bool = True) -> list[int]:
        """All minimal-length elements of the double coset U w V.

        U and V are subgroups given as element-index iterables; unlike the
        parabolic case the minimum need not be unique.
        """
        u_list, v_list = list(u_elems), list(v_elems)
        if check and (not self.is_subgroup(u_list) or not self.is_subgroup(v_list)):
            raise ValueError("not a subgroup")
        length = self.length
        coset = set()
        for u in u_list:
            uw = self.mul(u, w)
            row = self.mult_row(uw)
            for v in v_list:
                coset.add(row[v])
        best = min(length[x] for x in coset)
        return sorted(x for x in coset if length[x] == best)

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


def build_group(spec: CoxeterSpec, cap: int = DEFAULT_ELEMENT_CAP,
                use_cache: bool = False,
                cache_dir: str | None = None) -> CoxeterSystem:
    """Build the full CoxeterSystem for a spec.

    With use_cache the generator permutations are loaded from / saved to the
    cache directory (COXDESC_CACHE env var, default ".coxdesc-cache");
    element enumeration from cached data is deterministic, so queries are
    identical to a fresh build.  Fails with GroupTooLargeError("group too
    large or infinite") if the enumeration exceeds `cap` elements.
    """
    from . import cache as _cache

    if use_cache:
        gen_perms = _cache.load(spec, cache_dir)
        if gen_perms is not None:
            return CoxeterSystem(spec, gen_perms, cap=cap)
    gen_perms = _build_root_permutations(spec, cap)
    group = CoxeterSystem(spec, gen_perms, cap=cap)
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
        """N_J: minimal coset representatives w with w^-1 W_J w = W_J."""
        got = self._nj.get(mask)
        if got is not None:
            return got
        g = self.group
        gens = subset_indices(mask)
        bits = g.subgroup_bits(mask)
        conj_gen = g.conj_gen
        inv = g.inverse
        out = []
        for w in g.min_coset_reps(mask, "right"):
            cw = conj_gen[inv[w]]
            if all((bits >> cw[i]) & 1 for i in gens):
                out.append(w)
        res = frozenset(out)
        with self._lock:
            self._nj[mask] = res
        return res

    # -- parabolic conjugacy classes ------------------------------------------

    def _conjugate_parabolics(self, j_mask: int, k_mask: int) -> bool:
        g = self.group
        if len(g.subgroup(j_mask)) != len(g.subgroup(k_mask)):
            return False
        if j_mask == k_mask:
            return True
        gens = subset_indices(j_mask)
        bits = g.subgroup_bits(k_mask)
        conj_gen = g.conj_gen
        inv = g.inverse
        for w in g.min_coset_reps(k_mask, "right"):
            cw = conj_gen[inv[w]]
            if all((bits >> cw[i]) & 1 for i in gens):
                return True
        return False

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
        """
        if self._closure_counts is not None:
            return list(self._closure_counts)
        g = self.group
        n = g.order
        best_size = [None] * n
        best_cls = [0] * n
        best_size[0] = 1
        best_cls[0] = self.class_of[0]
        for mask in self.all_masks:
            if mask == 0:
                continue
            sub = sorted(g.subgroup(mask))
            size = len(sub)
            cls = self.class_of[mask]
            for x in g.min_coset_reps(mask, "right"):
                px = g.elements[x]
                ip = g.elements[g.inverse[x]]
                for u in sub:
                    if u == 0:
                        continue
                    pu = g.elements[u]
                    w = g.index[tuple(px[pu[r]] for r in ip)]
                    if best_size[w] is None or size < best_size[w]:
                        best_size[w] = size
                        best_cls[w] = cls
        counts = [0] * self.p
        for w in range(n):
            assert best_size[w] is not None
            counts[best_cls[w]] += 1
        with self._lock:
            self._closure_counts = counts
        return list(counts)

    # -- conjugators ------------------------------------------------------------

    def _normalizer_group(self, mask: int) -> list[int]:
        """N_J W_J as an element list (the full normalizer of W_J)."""
        g = self.group
        out = []
        for n in self.normalizer_complement(mask):
            row = g.mult_row(n)
            out.extend(row[u] for u in g.subgroup(mask))
        return out

    def conjugator(self, kp_mask: int, k_mask: int) -> int:
        """The fixed c with c^-1 W_K' c = W_K, minimal in its normalizer coset."""
        if self.class_of[kp_mask] != self.class_of[k_mask]:
            raise ValueError("not conjugate")
        if kp_mask == k_mask:
            return 0
        key = (kp_mask, k_mask)
        got = self._conjugators.get(key)
        if got is not None:
            return got
        g = self.group
        gens = subset_indices(kp_mask)
        bits = g.subgroup_bits(k_mask)
        conj_gen = g.conj_gen
        inv = g.inverse
        c0 = None
        for w in range(g.order):
            cw = conj_gen[inv[w]]
            if all((bits >> cw[i]) & 1 for i in gens):
                c0 = w
                break
        assert c0 is not None
        u_elems = self._normalizer_group(kp_mask)
        v_elems = self._normalizer_group(k_mask)
        cands = g.min_rep_general(c0, u_elems, v_elems, check=False)
        keyfun = (lambda x: g.elements[x]) if self.tiebreak == "lex" \
            else (lambda x: tuple(-v for v in g.elements[x]))
        c = min(cands, key=keyfun)
        # the chosen element must itself conjugate W_K' onto W_K
        ci = inv[c]
        assert all((bits >> conj_gen[ci][i]) & 1 for i in gens)
        with self._lock:
            self._conjugators[key] = c
        return c

    def __repr__(self):
        return f"ParabolicAtlas({self.group.spec.label()}, p={self.p})"
