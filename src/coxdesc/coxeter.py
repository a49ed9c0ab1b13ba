"""Finite Coxeter groups: construction, cosets, parabolics, conjugacy.

A group is built from its Coxeter matrix.  The classification of the
Coxeter graph (Humphreys, Reflection Groups and Coxeter Groups, ch. 2)
decides up front whether W is finite and gives the degrees of W and of
every standard parabolic W_K (ibid., 3.7).  Every order question is read
from them: |W| = prod d_i, |Phi| = 2 sum (d_i - 1), and the parabolic
closure counts (ParabolicAtlas.closure_class_counts).  An infinite group is
refused by the classification, and one above DEFAULT_ELEMENT_CAP by
build_group, before any other work.  The root system of the
geometric realization is closed under the simple reflections over a prime
field (exact, since the closure must reach exactly |Phi| roots).  The
geometric representation is faithful and the simple roots are a basis
(Humphreys, Reflection Groups and Coxeter Groups, 5.3-5.4), so an element is
fixed by its images of the simple roots, root indices 0..rank-1, and those
rank images are all that is stored of it.  Everything after the build is
integer table work.

CoxeterSystem and ParabolicAtlas are immutable once built; the two memos
they keep (parabolic subgroups and per-subset root-image tables) are filled
under a lock, so instances can be shared freely across threads.  The build
itself is single-threaded.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from functools import cmp_to_key
from math import lcm, prod
from operator import mul

from .errors import GroupTooLargeError, InvariantError
from .modular import prime_one_mod, root_of_unity
from .subsets import bergeron_compare, iter_subsets, subset_indices

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

def _component_degrees(m, comp):
    """Degrees d_1..d_n of the irreducible group on the connected vertex list
    `comp` of the Coxeter graph (Humphreys, Reflection Groups and Coxeter
    Groups, 3.7), or None when that group is infinite."""
    n = len(comp)
    if n <= 2:
        return [2, m[comp[0]][comp[1]]] if n == 2 else [2]  # I2(k), A1
    adj = {v: [u for u in comp if u != v and m[v][u] >= 3] for v in comp}
    if sum(map(len, adj.values())) != 2 * (n - 1):
        return None  # the graph has a cycle
    heavy = [(v, u) for v in comp for u in adj[v] if v < u and m[v][u] > 3]
    branch = [v for v in comp if len(adj[v]) > 2]
    if not branch:  # a path
        if not heavy:
            return list(range(2, n + 2))  # A_n
        if len(heavy) > 1:
            return None
        v, u = heavy[0]
        k, at_end = m[v][u], min(len(adj[v]), len(adj[u])) == 1
        if k == 4 and at_end:
            return list(range(2, 2 * n + 1, 2))  # B_n
        if k == 4 and n == 4:
            return [2, 6, 8, 12]  # F4
        if k == 5 and at_end and n <= 4:
            return [2, 6, 10] if n == 3 else [2, 12, 20, 30]  # H3, H4
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
        return list(range(2, 2 * n - 1, 2)) + [n]  # D_n
    return {(1, 2, 2): [2, 5, 6, 8, 9, 12],  # E6
            (1, 2, 3): [2, 6, 8, 10, 12, 14, 18],  # E7
            (1, 2, 4): [2, 8, 12, 14, 18, 20, 24, 30]}.get(tuple(arms))  # E8


def parabolic_degrees(spec: CoxeterSpec, mask: int) -> list[int]:
    """Degrees of W_K for the subset mask K, from the types of the components
    of K's Coxeter graph (an edge wherever m_ij >= 3); [] for K empty.

    GroupTooLargeError when W_K is infinite.
    """
    m = spec.matrix
    verts = subset_indices(mask)
    degrees, seen = [], set()
    for start in verts:
        if start in seen:
            continue
        comp = [start]
        for v in comp:  # the list grows: a BFS queue
            comp += [u for u in verts if m[v][u] >= 3 and u not in comp]
        seen.update(comp)
        got = _component_degrees(m, sorted(comp))
        if got is None:
            raise GroupTooLargeError(
                f"group too large or infinite: {spec.label()} is infinite")
        degrees += got
    return degrees


def group_sizes(spec: CoxeterSpec) -> tuple[int, int]:
    """(|W|, |Phi|) of any finite W: |W| = prod d_i and |Phi| = 2 sum (d_i - 1)
    over the degrees of W.  GroupTooLargeError when W is infinite."""
    degrees = parabolic_degrees(spec, (1 << spec.rank) - 1)
    return prod(degrees), 2 * sum(d - 1 for d in degrees)


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
    `elements[w]` holds w's images of the simple roots as root indices:
    w alpha_i is root `elements[w][i]`.
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
        # keyed by the simple-root images of w^-1: (w s_i)^-1 = s_i w^-1, so
        # key(w s_i) is s_i applied to key(w), rank lookups per product
        rank = self.rank
        gens = self.gen_perms
        keys = [tuple(range(rank))]
        index = {keys[0]: 0}
        rt = [[0] * rank]
        length = [0]
        parent = [(-1, -1)]
        des_r = []  # filled in index order: each level is a run of indices
        frontier = [0]
        while frontier:
            # w s_i is one length off w, so i is a right descent iff w s_i
            # was numbered before this level added any element
            end = len(keys)
            nxt = []
            for w in frontier:
                kw = keys[w]
                row = rt[w]
                mr = 0
                for i, g in enumerate(gens):
                    key = tuple([g[x] for x in kw])
                    idx = index.get(key)
                    if idx is None:
                        idx = len(keys)
                        if idx == predicted:
                            raise InvariantError(
                                f"enumeration exceeds |W| = {predicted}")
                        index[key] = idx
                        keys.append(key)
                        rt.append([0] * rank)
                        length.append(length[w] + 1)
                        parent.append((w, i))
                        nxt.append(idx)
                    elif idx < end:
                        mr |= 1 << i
                    row[i] = idx
                des_r.append(mr)
            frontier = nxt
        if len(keys) != predicted:
            raise InvariantError(
                f"enumerated {len(keys)} elements, not |W| = {predicted}")
        self.order = len(keys)
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
        self.elements = [keys[v] for v in inv]
        # Des_L(w) = Des_R(w^-1)
        self.des_r = des_r
        self.des_l = des_l = [des_r[v] for v in inv]
        full = (1 << rank) - 1
        self.longest = max(range(self.order), key=lambda w: length[w])
        if des_r[self.longest] != full or des_l[self.longest] != full:
            raise InvariantError("the longest element lacks a descent")
        if length.count(0) != 1:
            raise InvariantError("more than one element of length 0")

    # -- basic operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Index of ab, along a's stored word: if a = v s_i, ab = v (s_i b)."""
        parent, lt = self.parent, self.left_table
        while a:
            a, i = parent[a]
            b = lt[b][i]
        return b

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, w: int) -> int:
        """w^-1 a w."""
        wi = self.inverse[w]
        return self.mul(self.mul(wi, a), w)

    def mult_row(self, u: int) -> list[int]:
        """Row of the multiplication table, index of u*v for every v, built
        afresh along the stored words: if v = v' s_i, uv = (uv') s_i."""
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
                    self._conj_gen = [[self.mul(row[i], self.inverse[w])
                                       for i in range(self.rank)]
                                      for w, row in enumerate(self.right_table)]
        return self._conj_gen

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

    def min_coset_reps(self, mask: int) -> list[int]:
        """W^J: every w with l(ws) > l(w) for s in J.

        Sorted by element index, which is length-graded BFS order.
        """
        return [w for w, k in enumerate(self.des_r) if not k & mask]

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

    order, _ = group_sizes(spec)
    if order > DEFAULT_ELEMENT_CAP:
        raise GroupTooLargeError(
            f"group too large or infinite: |W| = {order} > {DEFAULT_ELEMENT_CAP}")
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

    Everything is read from one root-image table per subset K, `images(K)`:
    the w with w Delta_K = Delta_J, grouped by J (Howlett, J. London Math.
    Soc. 21, 1980).  W_K and W_J are conjugate iff J is a key, N_K is the
    entry at K, and the conjugator c_{K'K} is the first w at K'.  Classes
    are ordered descending by the Bergeron order of their minimal
    representatives (class 0 is the class of the empty set).
    """

    def __init__(self, group: CoxeterSystem):
        self.group = group
        rank = group.rank
        self.all_masks = list(iter_subsets(rank))
        self._lock = threading.Lock()
        self._images: dict[int, dict[int, list[int]]] = {}
        keyf = cmp_to_key(lambda a, b: bergeron_compare(a, b, rank))
        classes, placed = [], set()
        for mask in self.all_masks:
            if mask not in placed:
                members = sorted(self.images(mask))
                placed.update(members)
                classes.append((min(members, key=keyf), members))
        # classes descending by the Bergeron order of their representatives
        classes.sort(key=lambda rc: keyf(rc[0]), reverse=True)
        self.classes = classes
        self.p = len(classes)
        self.class_reps = [rep for rep, _ in classes]
        self.class_of = {m: idx for idx, (_, members) in enumerate(classes)
                         for m in members}

    def images(self, k_mask: int) -> dict[int, list[int]]:
        """{J: [w, ...]}: every w with w Delta_K = Delta_J, by element index.

        w alpha_k is root `elements[w][k]`, and root index r < rank is
        alpha_r.  Such a w is in W^K, since a simple root is positive, so
        only W^K is scanned.
        """
        got = self._images.get(k_mask)
        if got is not None:
            return got
        g = self.group
        rank = g.rank
        gens = subset_indices(k_mask)
        table: dict[int, list[int]] = {}
        for w in g.min_coset_reps(k_mask):
            pw = g.elements[w]
            j_mask = 0
            for k in gens:
                if pw[k] >= rank:
                    break
                j_mask |= 1 << pw[k]
            else:
                table.setdefault(j_mask, []).append(w)
        with self._lock:
            self._images[k_mask] = table
        return table

    def normalizer_complement(self, mask: int) -> frozenset:
        """N_J: minimal coset representatives w with w^-1 W_J w = W_J.

        w in W^J normalizes W_J iff it permutes Delta_J: the entry of
        `images(J)` at J itself.
        """
        return frozenset(self.images(mask)[mask])

    # -- parabolic closures ------------------------------------------------------

    def closure_class_counts(self) -> list[int]:
        """Per class: how many w in W have parabolic closure in that class.

        The parabolic closure of w is the smallest parabolic subgroup
        containing w (intersections of parabolics are parabolic, so it is
        well defined and is the unique containing parabolic of minimal
        order).  These counts are the eigenvalue multiplicities of the
        regular representation of a generic descent-algebra element.

        The closure of w is the pointwise stabilizer of w's fixed space
        (Steinberg, Trans. AMS 112, 1964), so w has closure P iff w fixes
        no nonzero vector of P's span; W_K has prod (d_i - 1) such elements
        over its degrees d_i (Shephard-Todd 1954, Solomon 1963).  W_K has
        |W| / (|W_K| |N_K|) conjugates, so its class counts
        |W| / (|W_K| |N_K|) * prod (d_i - 1) elements.  Conjugate subsets
        share |W_K| and |N_K|; each is read at the class's first member,
        whose table the constructor built.
        """
        order = self.group.order
        counts = []
        for _, members in self.classes:
            k = members[0]
            degrees = parabolic_degrees(self.group.spec, k)
            index = prod(degrees) * len(self.images(k)[k])
            if order % index:
                raise InvariantError(
                    f"|W_K| |N_K| = {index} does not divide |W| = {order}")
            counts.append(order // index * prod(d - 1 for d in degrees))
        return counts

    # -- conjugators ------------------------------------------------------------

    def conjugator(self, kp_mask: int, k_mask: int) -> int:
        """The fixed c with c^-1 W_K' c = W_K, minimal in its normalizer coset.

        The minimal-length elements of {c : c^-1 W_K' c = W_K} lie in W^K
        and are exactly the minimal-length w with w Delta_K = Delta_K'
        (Howlett, J. London Math. Soc. 21, 1980).  Element indices are
        length-graded, so c is the first w of `images(K)` at K'.
        ValueError when W_K' and W_K are not conjugate.
        """
        hits = self.images(k_mask).get(kp_mask)
        if hits is None:
            raise ValueError("not conjugate")
        c = hits[0]
        # checked by conjugating in the group, not by the root test
        g = self.group
        sub_k = g.subgroup(k_mask)
        if not all(g.conj(g.right_table[0][i], c) in sub_k
                   for i in subset_indices(kp_mask)):
            raise InvariantError(
                f"conjugator {c} does not conjugate W_{kp_mask} into W_{k_mask}")
        return c

    def __repr__(self):
        return f"ParabolicAtlas({self.group.spec.label()}, p={self.p})"
