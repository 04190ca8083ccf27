"""The negative half of the quantized enveloping algebra, presented freely.

Elements are Q(q)-linear combinations of words in the generators f_i, with
no Serre reduction: every downstream consumer factors through the twisted
bilinear form (whose radical contains the Serre ideal) or through a module
action, so a normal form is never needed.  The twisted derivation peels a
generator from the left; the form is defined by its recursion and memoized
per root datum.
"""

from __future__ import annotations

import itertools

from .cartan import RootDatum, RootVector
from .scalars import LaurentQ, ScalarQ, S_ONE, S_ZERO, add_term, qbinom, qfact


__all__ = [
    "FreeNegElement",
    "word_weight",
    "lusztig_form",
    "divided_monomial",
    "serre_element",
    "words_of_weight",
    "feigin_on_element",
]


class FreeNegElement:
    """Free-algebra element: {word over the 1-based index set: ScalarQ}."""

    __slots__ = ("datum", "terms")

    def __init__(self, datum: RootDatum, terms: dict[tuple[int, ...], ScalarQ] | None = None):
        self.datum = datum
        self.terms = {
            w: c for w, c in (terms or {}).items() if c.num.c
        }

    @classmethod
    def _raw(cls, datum: RootDatum, terms: dict) -> "FreeNegElement":
        obj = object.__new__(cls)
        obj.datum = datum
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls, datum: RootDatum) -> "FreeNegElement":
        return cls._raw(datum, {})

    @classmethod
    def one(cls, datum: RootDatum) -> "FreeNegElement":
        return cls._raw(datum, {(): S_ONE})

    @classmethod
    def generator(cls, datum: RootDatum, i: int) -> "FreeNegElement":
        if i not in datum.index_set:
            raise ValueError(f"no generator f_{i} in {datum.name}")
        return cls._raw(datum, {(i,): S_ONE})

    @classmethod
    def word(cls, datum: RootDatum, letters: tuple[int, ...], coeff: ScalarQ = S_ONE) -> "FreeNegElement":
        for i in letters:
            if i not in datum.index_set:
                raise ValueError(f"no generator f_{i} in {datum.name}")
        return cls._raw(datum, {tuple(letters): coeff} if coeff.num.c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeNegElement):
            return NotImplemented
        if self.datum is not other.datum or self.terms.keys() != other.terms.keys():
            return False
        return all(c == other.terms[w] for w, c in self.terms.items())

    __hash__ = None

    def _require_same(self, other: "FreeNegElement") -> None:
        if self.datum is not other.datum:
            raise ValueError("elements live over different root data")

    def __add__(self, other: "FreeNegElement") -> "FreeNegElement":
        self._require_same(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            add_term(out, w, c)
        return FreeNegElement._raw(self.datum, out)

    def __sub__(self, other: "FreeNegElement") -> "FreeNegElement":
        return self + (-other)

    def __neg__(self) -> "FreeNegElement":
        return FreeNegElement._raw(self.datum, {w: -c for w, c in self.terms.items()})

    def scaled(self, c: ScalarQ) -> "FreeNegElement":
        if not c.num.c:
            return FreeNegElement._raw(self.datum, {})
        return FreeNegElement._raw(self.datum, {w: x * c for w, x in self.terms.items()})

    def __mul__(self, other: "FreeNegElement") -> "FreeNegElement":
        """Concatenation product of the free algebra."""
        self._require_same(other)
        out: dict[tuple[int, ...], ScalarQ] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                add_term(out, wa + wb, ca * cb)
        return FreeNegElement._raw(self.datum, out)

    def homogeneous_parts(self) -> dict[RootVector, "FreeNegElement"]:
        """Split by weight; keys are the (antidominant) weights of the words."""
        parts: dict[RootVector, dict] = {}
        for w, c in self.terms.items():
            nu = word_weight(self.datum, w)
            parts.setdefault(nu, {})[w] = c
        return {
            nu: FreeNegElement._raw(self.datum, terms) for nu, terms in parts.items()
        }

    def __repr__(self) -> str:
        if not self.terms:
            return "FreeNegElement(0)"
        bits = []
        for w in sorted(self.terms):
            name = "*".join(f"f{i}" for i in w) if w else "1"
            bits.append(f"({self.terms[w]})*{name}")
        return "FreeNegElement(" + " + ".join(bits) + ")"


def word_weight(datum: RootDatum, word: tuple[int, ...]) -> RootVector:
    """Weight of f_{i_1} ... f_{i_m}: minus the sum of the letters' roots."""
    c = [0] * datum.rank
    for i in word:
        c[i - 1] -= 1
    return RootVector(tuple(c))


def _eprime_word(datum: RootDatum, i: int, word: tuple[int, ...]):
    """Left twisted derivation on a word: yields (q-power exponent, subword).

    e'_i(f_j x) = delta_ij x + q_i^{<h_i, -alpha_j>} f_j e'_i(x), so deleting
    the occurrence at position m costs q_i to the power -sum of a_{i, w_m'}
    over m' < m.
    """
    di = datum.di(i)
    arow = datum.a[i - 1]
    acc = 0
    out = []
    for m, j in enumerate(word):
        if j == i:
            out.append((di * acc, word[:m] + word[m + 1 :]))
        acc -= arow[j - 1]
    return out


def _form_factor(datum: RootDatum, i: int) -> ScalarQ:
    """1 / (1 - q_i^2), cached per datum."""
    memo = datum._form_memo
    got = memo.get(i)
    if got is None:
        got = ScalarQ(1) / ScalarQ(LaurentQ({0: 1, 2 * datum.di(i): -1}))
        memo[i] = got
    return got


def _form_words(datum: RootDatum, wx: tuple[int, ...], wy: tuple[int, ...]) -> ScalarQ:
    if len(wx) != len(wy):
        return S_ZERO
    if not wx:
        return S_ONE
    memo = datum._form_memo
    key = (wx, wy)
    got = memo.get(key)
    if got is not None:
        return got
    # (f_i x, y) = (x, e'_i(y)) / (1 - q_i^2), peeling the left letter of wx
    i = wx[0]
    rest = wx[1:]
    acc = S_ZERO
    for e, sub in _eprime_word(datum, i, wy):
        val = _form_words(datum, rest, sub)
        if val.num.c:
            acc = acc + val.mul_qpow(e)
    res = acc * _form_factor(datum, i)
    memo[key] = res
    return res


def lusztig_form(x: FreeNegElement, y: FreeNegElement) -> ScalarQ:
    """The symmetric bilinear form with (1,1) = 1 and
    (f_i x, y) = (x, e'_i(y)) / (1 - q_i^2)."""
    if x.datum is not y.datum:
        raise ValueError("form arguments live over different root data")
    datum = x.datum
    acc = S_ZERO
    for wx, cx in x.terms.items():
        for wy, cy in y.terms.items():
            val = _form_words(datum, wx, wy)
            if val.num.c:
                acc = acc + cx * cy * val
    return acc


def divided_monomial(
    datum: RootDatum, letters: tuple[int, ...], powers: tuple[int, ...]
) -> FreeNegElement:
    """f_{i_1}^{(a_1)} ... f_{i_l}^{(a_l)} as a single scaled word."""
    if len(letters) != len(powers):
        raise ValueError("letters and powers must align")
    word: list[int] = []
    den = LaurentQ(1)
    for i, a in zip(letters, powers):
        if a < 0:
            raise ValueError("divided powers need nonnegative exponents")
        word.extend([i] * a)
        if a > 1:
            den = den * qfact(a).subst(datum.di(i))
    coeff = S_ONE if den.is_one() else ScalarQ(LaurentQ(1), den)
    return FreeNegElement.word(datum, tuple(word), coeff)


def serre_element(datum: RootDatum, i: int, j: int) -> FreeNegElement:
    """The quantum Serre relator sum_k (-1)^k [1-a_ij choose k]_i f_i^k f_j f_i^{1-a_ij-k}."""
    if i == j:
        raise ValueError("Serre relator needs distinct indices")
    n = 1 - datum.aij(i, j)
    out = FreeNegElement.zero(datum)
    for k in range(n + 1):
        coeff = ScalarQ(qbinom(n, k).subst(datum.di(i)))
        if k % 2:
            coeff = -coeff
        w = (i,) * k + (j,) + (i,) * (n - k)
        out = out + FreeNegElement.word(datum, w, coeff)
    return out


def _word_permutations(pool: list[int]) -> list[tuple[int, ...]]:
    if not pool:
        return [()]
    out: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for k, i in enumerate(pool):
        if i in seen:
            continue
        seen.add(i)
        rest = pool[:k] + pool[k + 1 :]
        out.extend((i,) + tail for tail in _word_permutations(rest))
    return out


def words_of_weight(datum: RootDatum, nu: RootVector) -> list[tuple[int, ...]]:
    """All words in the f_i of weight nu (nu must be a nonpositive root
    vector), in lexicographic order."""
    if any(c > 0 for c in nu):
        return []
    pool: list[int] = []
    for j, c in enumerate(nu):
        pool.extend([j + 1] * (-c))
    return sorted(_word_permutations(pool))


def _compositions(n: int, parts: int):
    """Weak compositions of n into the given number of parts."""
    if parts == 0:
        if n == 0:
            yield ()
        return
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _content_solutions(
    letters: tuple[int, ...], content: list[int]
) -> list[tuple[int, ...]]:
    """Exponent vectors a with sum_{k: letters[k]=j} a_k = content[j-1]."""
    by_letter: dict[int, list[int]] = {}
    for k, i in enumerate(letters):
        by_letter.setdefault(i, []).append(k)
    for j, c in enumerate(content):
        if c and (j + 1) not in by_letter:
            return []
    groups = sorted(by_letter)
    choices = [
        list(_compositions(content[j - 1], len(by_letter[j]))) for j in groups
    ]
    out: list[tuple[int, ...]] = []
    for combo in itertools.product(*choices):
        a = [0] * len(letters)
        for j, comp in zip(groups, combo):
            for pos, val in zip(by_letter[j], comp):
                a[pos] = val
        out.append(tuple(a))
    return out


def feigin_on_element(pres, x: FreeNegElement):
    """Image of x under the Feigin map for the presentation's letter sequence:
    sum over exponent vectors a of matching content of
    q^{sum_k d_{i_k} a_k(a_k-1)/2} (x, f^{(a)}) t^a."""
    from .qtorus import TorusElement

    datum = pres.datum
    if x.datum is not datum:
        raise ValueError("element and presentation use different root data")
    letters = pres.letters
    terms: dict[tuple[int, ...], ScalarQ] = {}
    for nu, part in x.homogeneous_parts().items():
        content = [-c for c in nu]
        for a in _content_solutions(letters, content):
            val = lusztig_form(part, divided_monomial(datum, letters, a))
            if not val.num.c:
                continue
            tw = sum(datum.di(i) * (e * (e - 1) // 2) for i, e in zip(letters, a))
            add_term(terms, a, val.mul_qpow(tw))
    return TorusElement._raw(pres, terms)
