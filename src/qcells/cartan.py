"""Finite-type root data and Weyl group combinatorics.

Conventions, fixed once for the whole package:

* Cartan matrix entries are ``a[i][j] = <h_i, alpha_j>``, Bourbaki
  numbering, with the minimal positive symmetrizers d so that
  ``d_i a_ij = d_j a_ji``.  Short roots get d = 1.
  In particular B2 has a_12 = -1, a_21 = -2, d = (2, 1) and G2 has
  a_12 = -3, a_21 = -1, d = (1, 3).
* Weights live in the weight lattice with fundamental-weight coordinates,
  root vectors in the root lattice with simple-root coordinates.  Each is
  a tuple of ints of its own class: ``+`` and ``-`` act on each coordinate
  and reject a rank mismatch, and two values are equal only within one
  class, so a weight never equals a root vector or a plain tuple.  The
  coordinate ``lam[i - 1]`` is the pairing ``<h_i, lam>``, and the Cartan
  matrix converts root coordinates into weight coordinates.  Every pairing
  ``<w h_i, lam> = <h_i, w^{-1} lam>`` the package needs is read off a
  weight this way.
* A word ``(i_1, ..., i_m)`` over the 1-based index set acts as the group
  element s_{i_1} ... s_{i_m}, i.e. s_{i_m} is applied first.
* Words are handled on the weight side, by walking one weight through
  reflections.  A group element w is represented by the regular weight
  w.rho, which determines it: its left descents are the i with
  <h_i, w.rho> < 0.  The root-side routines (``positive_roots``,
  ``weyl_act_root``, ``length``) stay as the independent reference.

Supported types: A1-A4, B2-B3, C2-C3, D4, G2.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import add, mul, neg, sub


__all__ = [
    "Weight",
    "RootVector",
    "RootDatum",
    "build_root_datum",
    "weyl_act",
    "weyl_act_root",
    "dominant_conjugate",
    "walk_word",
    "word_exponents",
    "is_reduced",
    "length",
    "reduced_words",
    "weyl_elements",
    "weyl_dim",
]


_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


class _Lattice(tuple):
    """Integer coordinates of a lattice element, a tuple of its own class.

    Equal only to a value of the same class with the same coordinates, and
    hashed as the tuple; ``+`` and ``-`` act on each coordinate and raise
    ValueError when the ranks differ."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and _tuple_eq(self, other)

    def __ne__(self, other: object) -> bool:
        return type(other) is not type(self) or _tuple_ne(self, other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return f"{type(self).__name__}(coords={tuple(self)!r})"

    @property
    def coords(self) -> tuple[int, ...]:
        """The coordinates as a plain tuple."""
        return tuple(self)

    def __add__(self, other: _Lattice) -> _Lattice:
        if len(self) != len(other):
            raise ValueError(f"rank mismatch: {self!r} + {other!r}")
        return type(self)(map(add, self, other))

    def __sub__(self, other: _Lattice) -> _Lattice:
        if len(self) != len(other):
            raise ValueError(f"rank mismatch: {self!r} - {other!r}")
        return type(self)(map(sub, self, other))

    def __neg__(self) -> _Lattice:
        return type(self)(map(neg, self))


class Weight(_Lattice):
    """Element of the weight lattice, coordinates over fundamental weights."""

    __slots__ = ()

    def scaled(self, n: int) -> Weight:
        return Weight([n * a for a in self])

    def is_dominant(self) -> bool:
        return all(a >= 0 for a in self)


class RootVector(_Lattice):
    """Element of the root lattice, coordinates over simple roots."""

    __slots__ = ()

    def height(self) -> int:
        return sum(self)

    def is_positive(self) -> bool:
        """Nonzero with all coordinates >= 0."""
        return any(self) and all(a >= 0 for a in self)


class RootDatum:
    """Immutable root datum of finite type plus per-type caches.

    Instances are interned by :func:`build_root_datum`, so identity
    comparison and datum-local caches are safe.
    """

    def __init__(self, family: str, rank: int, a: tuple[tuple[int, ...], ...], d: tuple[int, ...]):
        self.family = family
        self.rank = rank
        self.a = a
        self.d = d
        self.name = f"{family}{rank}"
        self._validate()
        # the simple roots in weight coordinates (the columns of a), and the
        # inverse Cartan matrix as integer rows over one common denominator
        self._alpha_w = tuple(Weight([row[j] for row in a]) for j in range(rank))
        # a^-1 = adj(B) diag(d) / det B for the symmetrized B = (d_i a_ij);
        # inverting B also proves it positive definite, i.e. a of finite
        # type.  The rows are cut to the least common denominator
        det, adj = _inverse([[d[i] * x for x in row] for i, row in enumerate(a)])
        num = [[x * d[j] for j, x in enumerate(row)] for row in adj]
        g = gcd(det, *(x for row in num for x in row))
        self._inv_den = det // g
        self._inv_num = tuple(tuple(x // g for x in row) for row in num)
        # the one owner of per-datum caches, filled lazily: reduced words by
        # w.rho (cartan), Lusztig form values (freeuq), and one module per
        # highest weight (hwmod): the exact module, or its GF(p) shadow until
        # the exact one replaces it.  Each module owns its own memos, of
        # extremal coefficients by weight and of the Feigin descent's path
        # values (hwmod.HWModule), and they live as long as it does
        self._pos_roots: tuple[RootVector, ...] | None = None
        self._rw_memo: dict = {}
        self._form_memo: dict = {}
        self._module_cache: dict = {}

    def _validate(self) -> None:
        n = self.rank
        a, d = self.a, self.d
        if len(a) != n or any(len(row) != n for row in a) or len(d) != n:
            raise ValueError("shape mismatch in root datum")
        for i in range(n):
            if a[i][i] != 2:
                raise ValueError("diagonal Cartan entries must be 2")
            if d[i] < 1:
                raise ValueError("symmetrizers must be positive")
            for j in range(n):
                if i != j and a[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise ValueError("Cartan matrix is not symmetrized by d")

    # 1-based accessors -----------------------------------------------------

    @property
    def index_set(self) -> range:
        return range(1, self.rank + 1)

    def aij(self, i: int, j: int) -> int:
        """<h_i, alpha_j>."""
        return self.a[i - 1][j - 1]

    def di(self, i: int) -> int:
        return self.d[i - 1]

    def alpha(self, i: int) -> RootVector:
        c = [0] * self.rank
        c[i - 1] = 1
        return RootVector(c)

    def alpha_weight(self, i: int) -> Weight:
        """alpha_i in weight coordinates."""
        return self._alpha_w[i - 1]

    def fundamental(self, i: int) -> Weight:
        c = [0] * self.rank
        c[i - 1] = 1
        return Weight(c)

    def rho(self) -> Weight:
        return Weight((1,) * self.rank)

    # pairings --------------------------------------------------------------

    def h_weight(self, i: int, lam: Weight) -> int:
        """<h_i, lam>."""
        return lam[i - 1]

    def h_root(self, i: int, nu: RootVector) -> int:
        """<h_i, nu>."""
        row = self.a[i - 1]
        return sum(row[j] * c for j, c in enumerate(nu) if c)

    def sym_pair(self, lam: Weight, nu: RootVector) -> int:
        """(lam, nu) for lam in the weight lattice, nu in the root lattice."""
        return sum(c * self.d[j] * lam[j] for j, c in enumerate(nu) if c)

    # lattice conversions ----------------------------------------------------

    def root_to_weight(self, nu: RootVector) -> Weight:
        return Weight([sum(map(mul, row, nu)) for row in self.a])

    def weight_to_root(self, lam: Weight) -> RootVector:
        """Express a weight in simple-root coordinates; it must lie in the
        root lattice."""
        den = self._inv_den
        out = []
        for row in self._inv_num:
            x = sum(map(mul, row, lam))
            if x % den:
                raise ValueError(f"{lam} is not in the root lattice")
            out.append(x // den)
        return RootVector(out)

    # reflections -------------------------------------------------------------

    def reflect_weight(self, i: int, lam: Weight) -> Weight:
        k = lam[i - 1]
        if k == 0:
            return lam
        return Weight([c - k * a for c, a in zip(lam, self._alpha_w[i - 1])])

    def reflect_root(self, i: int, nu: RootVector) -> RootVector:
        k = self.h_root(i, nu)
        if k == 0:
            return nu
        c = list(nu)
        c[i - 1] -= k
        return RootVector(c)

    def positive_roots(self) -> tuple[RootVector, ...]:
        """All positive roots, sorted by (height, coordinates)."""
        if self._pos_roots is None:
            roots = {self.alpha(i) for i in self.index_set}
            frontier = set(roots)
            while frontier:
                nxt = set()
                for beta in frontier:
                    for i in self.index_set:
                        g = self.reflect_root(i, beta)
                        if g.is_positive() and g not in roots:
                            roots.add(g)
                            nxt.add(g)
                frontier = nxt
            self._pos_roots = tuple(
                sorted(roots, key=lambda r: (r.height(), r.coords))
            )
        return self._pos_roots

    def __repr__(self) -> str:
        return f"RootDatum({self.name})"


def _inverse(rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det B, adj B) for a symmetric positive definite integer matrix B, so
    that B^-1 = adj B / det B, by fraction-free (Bareiss) Gauss-Jordan
    elimination of [B | I] without row swaps; every division is exact.  The
    pivot of step c is the leading principal minor of order c + 1, so by
    Sylvester's criterion a pivot <= 0 proves B is not positive definite:
    then ValueError, "not of finite type"."""
    n = len(rows)
    aug = [row + [int(r == c) for c in range(n)] for r, row in enumerate(rows)]
    prev = 1
    for c in range(n):
        pivot = aug[c][c]
        if pivot <= 0:
            raise ValueError("root datum is not of finite type")
        for r in range(n):
            if r != c:
                f = aug[r][c]
                aug[r] = [(pivot * x - f * y) // prev for x, y in zip(aug[r], aug[c])]
        prev = pivot
    return prev, [row[n:] for row in aug]


_SUPPORTED = {
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3),
    ("C", 2), ("C", 3),
    ("D", 4),
    ("G", 2),
}


def build_root_datum(family: str, rank: int | None = None) -> RootDatum:
    """Root datum for a supported finite type, e.g. ('A', 2) or just "A2".

    Returns the interned datum with the Bourbaki Cartan matrix and minimal
    symmetrizers.
    """
    if rank is None:
        name = family.strip().upper()
        digits = name[1:]
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"cannot parse Cartan type {family!r}")
        family, rank = name[0], int(digits)
    return _build_root_datum(family.upper(), rank)


@lru_cache(maxsize=None)
def _build_root_datum(family: str, rank: int) -> RootDatum:
    if (family, rank) not in _SUPPORTED:
        raise ValueError(f"unsupported Cartan type {family}{rank}")
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    if family == "D":
        edges = [(1, 2), (2, 3), (2, 4)]
        for i, j in edges:
            a[i - 1][j - 1] = a[j - 1][i - 1] = -1
        d = [1] * n
    elif family == "G":
        a[0][1], a[1][0] = -3, -1
        d = [1, 3]
    else:
        for i in range(n - 1):
            a[i][i + 1] = a[i + 1][i] = -1
        if family == "A":
            d = [1] * n
        elif family == "B":
            # last root short
            a[n - 1][n - 2] = -2
            d = [2] * (n - 1) + [1]
        else:  # C: last root long
            a[n - 2][n - 1] = -2
            d = [1] * (n - 1) + [2]
    return RootDatum(family, rank, tuple(tuple(r) for r in a), tuple(d))


# ---------------------------------------------------------------------------
# Weyl group machinery on words
# ---------------------------------------------------------------------------

def _check_letters(datum: RootDatum, word: tuple[int, ...]) -> None:
    """Raise ValueError on a letter outside the index set 1..rank, which
    reflect_weight, reading lam[i - 1], would wrap to another letter."""
    bad = next((i for i in word if not 1 <= i <= datum.rank), None)
    if bad is not None:
        raise ValueError(f"letter {bad} outside the index set of {datum.name}")


def weyl_act(datum: RootDatum, word: tuple[int, ...], lam: Weight) -> Weight:
    """Apply s_{i_1} ... s_{i_m} to a weight (rightmost letter acts first).
    Raises ValueError on a letter outside the index set."""
    _check_letters(datum, word)
    for i in reversed(word):
        lam = datum.reflect_weight(i, lam)
    return lam


def weyl_act_root(datum: RootDatum, word: tuple[int, ...], nu: RootVector) -> RootVector:
    for i in reversed(word):
        nu = datum.reflect_root(i, nu)
    return nu


def walk_word(
    datum: RootDatum, word: tuple[int, ...], lam: Weight
) -> tuple[tuple[int, ...], Weight]:
    """The exponents c_m = <h_{i_m}, s_{i_{m+1}} ... s_{i_l} lam> for m = 1..l,
    read off while lam walks through the word rightmost letter first, and
    the weight w lam where the walk ends.  Raises ValueError on a letter
    outside the index set."""
    _check_letters(datum, word)
    out = []
    for i in reversed(word):
        out.append(lam[i - 1])
        lam = datum.reflect_weight(i, lam)
    out.reverse()
    return tuple(out), lam


def word_exponents(datum: RootDatum, word: tuple[int, ...], lam: Weight) -> tuple[int, ...]:
    """The exponents of walk_word alone."""
    return walk_word(datum, word, lam)[0]


def is_reduced(datum: RootDatum, word: tuple[int, ...]) -> bool:
    """True when the word is reduced: every letter i_m lengthens the element
    s_{i_{m+1}} ... s_{i_l}, i.e. rho's exponent <h_{i_m}, s_{i_{m+1}} ...
    s_{i_l} rho> along the word is positive.  Raises ValueError on a letter
    outside the index set."""
    return all(c > 0 for c in word_exponents(datum, word, datum.rho()))


def length(datum: RootDatum, word: tuple[int, ...]) -> int:
    """Length of the group element: number of positive roots made negative."""
    n = 0
    for beta in datum.positive_roots():
        if not weyl_act_root(datum, word, beta).is_positive():
            n += 1
    return n


def dominant_conjugate(datum: RootDatum, mu: Weight) -> tuple[tuple[int, ...], Weight]:
    """The dominant weight in the Weyl orbit of mu, with the letters
    (i_1, ..., i_m) such that s_{i_m} ... s_{i_1} mu is it: reflect mu at
    its first negative coordinate until none is left.  For mu = w.rho the
    letters are the lexicographically smallest reduced word of w."""
    out: list[int] = []
    while True:
        i = next((j + 1 for j, c in enumerate(mu) if c < 0), None)
        if i is None:
            return tuple(out), mu
        out.append(i)
        mu = datum.reflect_weight(i, mu)


def reduced_words(datum: RootDatum, word: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All reduced words of the element w represented by ``word`` (which need
    not itself be reduced), sorted lexicographically.

    They are (i,) + tail for each left descent i of w, i.e. <h_i, w.rho> < 0,
    in increasing order, and tail a reduced word of s_i w; memoized by w.rho.
    Raises ValueError on a letter outside the index set, as weyl_act does."""
    memo = datum._rw_memo
    rho = datum.rho()

    def rec(mu: Weight) -> tuple[tuple[int, ...], ...]:
        if mu == rho:
            return ((),)
        got = memo.get(mu)
        if got is None:
            got = memo[mu] = tuple(
                (i,) + tail
                for i in datum.index_set
                if mu[i - 1] < 0
                for tail in rec(datum.reflect_weight(i, mu))
            )
        return got

    return rec(weyl_act(datum, word, rho))


def weyl_elements(
    datum: RootDatum, max_length: int | None = None
) -> list[tuple[int, ...]]:
    """One reduced word per Weyl group element with length <= max_length
    (every element when None), sorted by (length, word); the representative
    is the lexicographically smallest reduced word.

    Walks the orbit W.rho one length at a time: s_i w is longer than w iff
    <h_i, w.rho> > 0."""
    layer = [datum.rho()]
    seen = set(layer)
    out: list[tuple[int, ...]] = [()]
    while layer and (max_length is None or len(out[-1]) < max_length):
        nxt = []
        for mu in layer:
            for i in datum.index_set:
                if mu[i - 1] > 0:
                    nu = datum.reflect_weight(i, mu)
                    if nu not in seen:
                        seen.add(nu)
                        nxt.append(nu)
        out.extend(sorted(dominant_conjugate(datum, mu)[0] for mu in nxt))
        layer = nxt
    return out


def weyl_dim(datum: RootDatum, lam: Weight) -> int:
    """Dimension of the irreducible module of highest weight lam (dominant),
    by the product formula over positive roots."""
    if not lam.is_dominant():
        raise ValueError("highest weight must be dominant")
    rho = datum.rho()
    top = lam + rho
    num = den = 1
    for beta in datum.positive_roots():
        num *= datum.sym_pair(top, beta)
        den *= datum.sym_pair(rho, beta)
    if num % den:  # pragma: no cover - sanity net
        raise AssertionError("Weyl dimension came out non-integral")
    return num // den
