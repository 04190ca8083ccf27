"""Quantum tori attached to a word.

For a root datum and a word (i_1, ..., i_l) the torus has generators
t_1, ..., t_l with t_j t_k = q^{kappa_jk} t_k t_j for j < k, where
kappa_jk = (alpha_{i_j}, alpha_{i_k}).  Elements are kept in normal order
t_1^{e_1} ... t_l^{e_l}.  A monomial q^a t^e with an integer a is also kept
as the pair (e, a), whose product and inverse are integer arithmetic on
exponents (TorusPresentation.pair_product and pair_inverse).
"""

from __future__ import annotations

from .cartan import RootDatum, _check_letters
from .scalars import ScalarQ, S_ONE, add_term, scalar_str


__all__ = ["TorusPresentation", "TorusElement", "torus_str"]


class TorusPresentation:
    """The based quantum torus of a root datum and a word over its index set.

    It also keeps what cells computes from the word alone, once per
    presentation and on first use: the proof that the word is reduced, the
    Weyl walks of its prefixes, the predicted monomials and the minors, each
    as an (exponents, q-exponent) pair, and the Feigin descent's successor
    table of letters, positions and letter masks.  They live in _memo for as
    long as the presentation does."""

    __slots__ = ("datum", "letters", "kappa", "_memo")

    def __init__(self, datum: RootDatum, letters: tuple[int, ...]):
        _check_letters(datum, letters)
        self.datum = datum
        self.letters = tuple(letters)
        d, a = datum.d, datum.a
        self.kappa = tuple(
            tuple(d[ij - 1] * a[ij - 1][ik - 1] for ik in self.letters)
            for ij in self.letters
        )
        self._memo: dict = {}

    @property
    def nvars(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusPresentation):
            return NotImplemented
        return self.datum is other.datum and self.letters == other.letters

    __hash__ = None

    def reorder_power(self, e: tuple[int, ...], f: tuple[int, ...]) -> int:
        """Exponent of q produced by normal-ordering t^e * t^f."""
        kappa = self.kappa
        acc = 0
        for k in range(len(e)):
            ek = e[k]
            if ek:
                row = kappa[k]
                for j in range(k):
                    if f[j]:
                        acc -= row[j] * ek * f[j]
        return acc

    def pair_product(
        self, x: tuple[tuple[int, ...], int], y: tuple[tuple[int, ...], int]
    ) -> tuple[tuple[int, ...], int]:
        """(e, a) . (f, b) = (e + f, a + b + reorder_power(e, f)): the
        product q^a t^e . q^b t^f in normal order."""
        (e, a), (f, b) = x, y
        return tuple([u + v for u, v in zip(e, f)]), a + b + self.reorder_power(e, f)

    def pair_inverse(self, x: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
        """(e, a)^-1 = (-e, -a - reorder_power(e, -e)): as t^e t^-e =
        q^{reorder_power(e, -e)}, the inverse of q^a t^e in normal order."""
        e, a = x
        neg = tuple([-u for u in e])
        return neg, -a - self.reorder_power(e, neg)

    def zero(self) -> "TorusElement":
        return TorusElement(self, {})

    def generator(self, k: int) -> "TorusElement":
        """t_k (1-based k)."""
        if not 1 <= k <= self.nvars:
            raise ValueError(f"no generator t_{k}")
        e = [0] * self.nvars
        e[k - 1] = 1
        return TorusElement(self, {tuple(e): S_ONE})

    def monomial(self, e: tuple[int, ...], coeff: ScalarQ = S_ONE) -> "TorusElement":
        return TorusElement(self, {tuple(e): coeff})

    def __repr__(self) -> str:
        return f"TorusPresentation({self.datum.name}, {self.letters})"


class TorusElement:
    """Normal-ordered element: {exponent vector: ScalarQ coefficient}."""

    __slots__ = ("pres", "terms")

    def __init__(
        self,
        pres: TorusPresentation,
        terms: dict[tuple[int, ...], ScalarQ] | None = None,
    ):
        self.pres = pres
        self.terms = {}
        for e, c in (terms or {}).items():
            if len(e) != pres.nvars:
                raise ValueError("exponent vector length mismatch")
            if c.num.c:
                self.terms[tuple(e)] = c

    @classmethod
    def _raw(cls, pres, terms) -> "TorusElement":
        obj = object.__new__(cls)
        obj.pres = pres
        obj.terms = terms
        return obj

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusElement):
            return NotImplemented
        if self.pres != other.pres or self.terms.keys() != other.terms.keys():
            return False
        return all(c == other.terms[e] for e, c in self.terms.items())

    __hash__ = None

    def _require_same(self, other: "TorusElement") -> None:
        if self.pres != other.pres:
            raise ValueError("elements live in different tori")

    def __add__(self, other: "TorusElement") -> "TorusElement":
        self._require_same(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            add_term(out, e, c)
        return TorusElement._raw(self.pres, out)

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + (-other)

    def __neg__(self) -> "TorusElement":
        return TorusElement._raw(self.pres, {e: -c for e, c in self.terms.items()})

    def scaled(self, c: ScalarQ) -> "TorusElement":
        if not c.num.c:
            return TorusElement._raw(self.pres, {})
        return TorusElement._raw(self.pres, {e: x * c for e, x in self.terms.items()})

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        self._require_same(other)
        pres = self.pres
        out: dict[tuple[int, ...], ScalarQ] = {}
        for e, ce in self.terms.items():
            for f, cf in other.terms.items():
                g = tuple(x + y for x, y in zip(e, f))
                add_term(out, g, (ce * cf).mul_qpow(pres.reorder_power(e, f)))
        return TorusElement._raw(pres, out)

    def __str__(self) -> str:
        return torus_str(self)

    def __repr__(self) -> str:
        return f"TorusElement({torus_str(self)})"


def _term_str(e: tuple[int, ...], c: ScalarQ) -> str:
    tpart = " ".join(
        f"t{k + 1}" if x == 1 else f"t{k + 1}^{x}" for k, x in enumerate(e) if x
    )
    if not tpart:
        k = c.as_q_power()
        if k == 0:
            return "1"
        if k is not None:
            return f"q^{k}"
        return f"({scalar_str(c)})"
    if c.is_one():
        return tpart
    k = c.as_q_power()
    if k is not None:
        return f"q^{k} · {tpart}"
    return f"({scalar_str(c)}) · {tpart}"


def torus_str(x: TorusElement) -> str:
    """Deterministic text form, e.g. "q^1 · t1^-1" or "t2 t3"."""
    if not x.terms:
        return "0"
    return " + ".join(_term_str(e, x.terms[e]) for e in sorted(x.terms, reverse=True))
