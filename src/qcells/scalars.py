"""Exact scalar arithmetic over the rational function field Q(q).

Everything downstream (bilinear forms, module matrices, torus coefficients)
runs on the two classes here, so the representation is chosen for tight
loops: a Laurent polynomial is dense, the exponent ``lo`` of its first term
and the tuple ``c`` of its Python int coefficients from there on, trimmed
at both ends, and a general scalar is a reduced fraction of those with the
denominator normalized to an honest polynomial.  Products, sums, shifts,
exact division and the gcd all work on those tuples as they are, so no
operation converts between forms.  No floats anywhere; equality of
canonical forms is structural equality.

Reducing a fraction takes a gcd in Z[q].  It is read from one integer gcd
at an evaluation point xi (Char, Geddes & Gonnet's GCDHEU, J. Symb. Comp.
7, 1989): the candidate and its cofactors come out of exact divisions, and
the candidate is accepted only under a bound that proves it is the gcd
(_heu_gcd).  A candidate that fails is retried at a larger xi a few times,
then the Euclidean pseudo-remainder gcd (_dgcd) decides.  So the gcd is
certified, never a specialization.  Sums with unequal denominators run the
gcd on the denominators only, by Henrici's rule (ScalarQ.__add__).

The path values of the Feigin descent do not depend on the reduced word,
so the words of one Weyl element reduce the same fractions again and
again.  Both callers of the gcd, ScalarQ._make and ScalarQ.__add__, reach
it through _cofactors, one least-recently-used cache of _COFACTORS_MAX
entries keyed by the two coefficient tuples.  The exponents lo stay outside
it, so operands that differ by a power of q share an entry, and its entries
are tuples, which no caller can change.  The gcd is a pure function of its
operands, so the cache changes no result.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from operator import add


__all__ = [
    "LaurentQ",
    "ScalarQ",
    "add_term",
    "qint",
    "qfact",
    "qbinom",
    "gauss_product",
    "laurent_str",
    "scalar_str",
]


# ---------------------------------------------------------------------------
# dense integer polynomials (index = exponent, trimmed): the coefficient
# sequences of LaurentQ, for gcd and division
# ---------------------------------------------------------------------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _dcontent(a: list[int]) -> int:
    g = 0
    for x in a:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def _dprem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b over Z (result a with deg < deg b)."""
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    while a and len(a) - 1 >= db:
        la = a[-1]
        off = len(a) - 1 - db
        for i in range(len(a)):
            a[i] *= lb
        for i in range(len(b)):
            a[off + i] -= la * b[i]
        _trim(a)
    return a


def _dgcd(a: list[int], b: list[int]) -> list[int]:
    """gcd in Z[q] including integer content, positive leading coefficient."""
    if not a:
        b = b[:]
        return [-x for x in b] if b and b[-1] < 0 else b
    if not b:
        a = a[:]
        return [-x for x in a] if a[-1] < 0 else a
    ca, cb = _dcontent(a), _dcontent(b)
    g0 = gcd(ca, cb)
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    while b:
        r = _dprem(a, b)
        a, b = b, r
        if b:
            c = _dcontent(b)
            if c > 1:
                b = [x // c for x in b]
    if a[-1] < 0:
        a = [-x for x in a]
    if g0 != 1:
        a = [x * g0 for x in a]
    return a


def _ddiv_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact division in Z[q], of lists or tuples; raises if the remainder
    does not vanish."""
    if not a:
        return []
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        raise ArithmeticError("inexact polynomial division")
    a = list(a)
    lb = b[-1]
    out = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        top = a[db + k]
        if top == 0:
            continue
        c, r = divmod(top, lb)
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[k] = c
        for i in range(db + 1):
            a[k + i] -= c * b[i]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return _trim(out)


def _eval(a: list[int], x: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _digits(v: int, x: int) -> list[int]:
    """The symmetric x-adic digits of v > 0, lowest first: the polynomial H
    with coefficients in (-x/2, x/2] and H(x) = v.  Its top digit is
    positive."""
    half = x // 2
    out = []
    while v:
        d = v % x
        if d > half:
            d -= x
        out.append(d)
        v = (v - d) // x
    return out


# Evaluation points tried before the Euclidean gcd decides.
_HEU_TRIES = 6


def _heu_gcd(A: list[int], B: list[int]) -> "tuple[list[int], list[int], list[int]] | None":
    """(h, A/h, B/h) with h = gcd(A, B), for primitive A and B of positive
    degree, or None when no evaluation point gives a certified candidate.

    At a point xi, gamma = gcd(A(xi), B(xi)) and H = _digits(gamma, xi), so
    H(xi) = gamma.  The candidate is h = H / c with c = cont(H) (H's top
    digit is positive, so h has a positive leading coefficient).  The exact
    divisions A' = A/h and B' = B/h are the cofactors, and h is accepted
    when

        xi >= c + 2 + min(|A'|, |B'|)        (|.| the max norm).

    Proof that h is then the gcd.  As gamma = c h(xi) != 0 and
    A(xi) = h(xi) A'(xi), B(xi) = h(xi) B'(xi), gcd(A'(xi), B'(xi)) = c.
    A and B are primitive, so their gcd is h C for some C in Z[q] dividing
    A' and B'; say C is not constant.  Its roots are roots of A' and of B',
    so by Cauchy's bound they have modulus below R = 1 + min(|A'|, |B'|).
    Then |C(xi)| >= prod (xi - |root|) > (xi - R)^deg C >= (c + 1)^deg C
    >= c + 1, yet C(xi) divides gcd(A'(xi), B'(xi)) = c: a contradiction.
    So C is a unit, and h = gcd(A, B).

    The first point, 2 min(|A|, |B|) + 29, and its growth follow SymPy's
    dup_zz_heu_gcd.  A zero gamma, an inexact division or a failed bound
    moves to the next point, raised to the bound when that was what failed.
    """
    x = 2 * min(max(map(abs, A)), max(map(abs, B))) + 29
    for _ in range(_HEU_TRIES):
        need = 0
        gamma = gcd(_eval(A, x), _eval(B, x))
        if gamma:
            H = _digits(gamma, x)
            c = _dcontent(H)
            h = [d // c for d in H]
            try:
                qa = _ddiv_exact(A, h) if len(h) > 1 else A
                qb = _ddiv_exact(B, h) if len(h) > 1 else B
            except ArithmeticError:
                pass
            else:
                need = c + 2 + min(max(map(abs, qa)), max(map(abs, qb)))
                if x >= need:
                    return h, qa, qb
        x = max(73794 * x * isqrt(isqrt(x)) // 27011, need)
    return None


def _gcd_cofactors(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a/g, b/g) for nonzero a and b, lists or tuples, with
    g = _dgcd(a, b): integer content included and a positive leading
    coefficient.  Each part is a list or a tuple.  The gcd of the primitive
    parts comes from _heu_gcd, or from _dgcd when that gives up."""
    ca, cb = _dcontent(a), _dcontent(b)
    g0 = gcd(ca, cb)
    A = [x // ca for x in a] if ca != 1 else a
    B = [x // cb for x in b] if cb != 1 else b
    if len(A) == 1 or len(B) == 1:
        h, qa, qb = [1], A, B
    else:
        got = _heu_gcd(A, B)
        if got is None:
            h = _dgcd(A, B)
            got = h, _ddiv_exact(A, h), _ddiv_exact(B, h)
        h, qa, qb = got
    ka, kb = ca // g0, cb // g0
    return (
        [x * g0 for x in h] if g0 != 1 else h,
        [x * ka for x in qa] if ka != 1 else qa,
        [x * kb for x in qb] if kb != 1 else qb,
    )


# Entries of the _cofactors cache: a C3 sweep of length <= 8 makes 14,040
# _cofactors calls on 1,132 distinct operand pairs, and 512 entries serve
# 12,731 of them (90.7%).
_COFACTORS_MAX = 512


@lru_cache(maxsize=_COFACTORS_MAX)
def _cofactors(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """_gcd_cofactors(a, b) as three tuples, for nonzero coefficient tuples
    a and b, remembered for the last _COFACTORS_MAX pairs."""
    return tuple(map(tuple, _gcd_cofactors(a, b)))


# ---------------------------------------------------------------------------
# Laurent polynomials in q over Z
# ---------------------------------------------------------------------------

def _laurent(lo: int, a: list[int]) -> "LaurentQ":
    """q^lo * a(q) for a dense coefficient list a, trimmed at both ends."""
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    if not n:
        return _L_ZERO
    i = 0
    while not a[i]:
        i += 1
    if i or n != len(a):
        a = a[i:n]
    return LaurentQ._raw(lo + i, tuple(a))


def _sum(la: int, a: tuple[int, ...], lb: int, b: "tuple[int, ...] | list[int]") -> "LaurentQ":
    """q^la a(q) + q^lb b(q), for nonzero dense a and b."""
    if lb < la:
        la, a, lb, b = lb, b, la, a
    out = list(a)
    off = lb - la
    end = off + len(b)
    if end > len(out):
        out += [0] * (end - len(out))
    out[off:end] = map(add, out[off:end], b)
    return _laurent(la, out)


class LaurentQ:
    """Laurent polynomial in q with integer coefficients, stored dense.

    ``c`` is the tuple of coefficients of q^lo, q^(lo+1), ..., with nonzero
    first and last entries, and ``lo`` the exponent of the first one; zero
    is lo = 0, c = ().  Each polynomial has one such form, so equality is
    equality of (lo, c).  The gcd and division kernels above take c as it
    is.
    """

    __slots__ = ("lo", "c")

    def __init__(self, coeffs: dict[int, int] | int = 0):
        if isinstance(coeffs, int):
            self.lo, self.c = 0, ((coeffs,) if coeffs else ())
            return
        live = {e: c for e, c in coeffs.items() if c}
        lo = min(live, default=0)
        self.lo = lo
        self.c = tuple(live.get(e, 0) for e in range(lo, max(live, default=-1) + 1))

    @classmethod
    def _raw(cls, lo: int, c: tuple[int, ...]) -> "LaurentQ":
        obj = object.__new__(cls)
        obj.lo = lo
        obj.c = c
        return obj

    @classmethod
    def q_power(cls, e: int) -> "LaurentQ":
        return cls._raw(e, (1,))

    def items(self) -> list[tuple[int, int]]:
        """The (exponent, coefficient) pairs of the nonzero terms, by
        increasing exponent."""
        return [(e, x) for e, x in enumerate(self.c, self.lo) if x]

    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        return self.c == (1,) and not self.lo

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentQ):
            return self.c == other.c and self.lo == other.lo
        if isinstance(other, int):
            return self.c == ((other,) if other else ()) and not self.lo
        return NotImplemented

    __hash__ = None

    def __neg__(self) -> "LaurentQ":
        return LaurentQ._raw(self.lo, tuple([-x for x in self.c]))

    def __add__(self, other: "LaurentQ") -> "LaurentQ":
        if not self.c:
            return other
        if not other.c:
            return self
        return _sum(self.lo, self.c, other.lo, other.c)

    def __sub__(self, other: "LaurentQ") -> "LaurentQ":
        if not other.c:
            return self
        if not self.c:
            return -other
        return _sum(self.lo, self.c, other.lo, [-x for x in other.c])

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _L_ZERO
            if other == 1:
                return self
            return LaurentQ._raw(self.lo, tuple([x * other for x in self.c]))
        a, b = self.c, other.c
        if not a or not b:
            return _L_ZERO
        lo = self.lo + other.lo
        if len(b) < len(a):
            a, b = b, a
        if len(a) == 1:
            ca = a[0]
            return LaurentQ._raw(lo, b if ca == 1 else tuple([x * ca for x in b]))
        # Dense convolution over the nonzero terms of the longer factor.  The
        # product of trimmed factors is trimmed: its end coefficients are the
        # products of theirs.
        live = [(k, x) for k, x in enumerate(b) if x]
        out = [0] * (len(a) + len(b) - 1)
        for ka, ca in enumerate(a):
            if ca:
                for k, x in live:
                    out[ka + k] += ca * x
        return LaurentQ._raw(lo, tuple(out))

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentQ":
        """Multiply by q^k."""
        if k == 0 or not self.c:
            return self
        return LaurentQ._raw(self.lo + k, self.c)

    def subst(self, d: int) -> "LaurentQ":
        """Substitute q -> q^d, for d >= 1."""
        if d < 1:
            raise ValueError(f"subst needs d >= 1, got {d}")
        if d == 1 or not self.c:
            return self
        out = [0] * ((len(self.c) - 1) * d + 1)
        out[::d] = self.c
        return LaurentQ._raw(self.lo * d, tuple(out))

    def exact_div(self, other: "LaurentQ") -> "LaurentQ":
        """Exact division; raises ArithmeticError when not divisible.  The
        quotient of trimmed polynomials is trimmed: its constant term times
        other's is self's."""
        if not self.c:
            return _L_ZERO
        return LaurentQ._raw(self.lo - other.lo, tuple(_ddiv_exact(self.c, other.c)))

    def to_scalar(self) -> "ScalarQ":
        return ScalarQ._raw(self, _L_ONE)

    def __str__(self) -> str:
        return laurent_str(self)

    def __repr__(self) -> str:
        return f"LaurentQ({laurent_str(self)!r})"


_L_ZERO = LaurentQ._raw(0, ())
_L_ONE = LaurentQ._raw(0, (1,))


# ---------------------------------------------------------------------------
# the field Q(q)
# ---------------------------------------------------------------------------

class ScalarQ:
    """Element of Q(q) as a reduced fraction of integer (Laurent) polynomials.

    Canonical form: ``den`` is a polynomial with nonzero constant term and
    positive leading coefficient, so its ``lo`` is 0; gcd(num, den) = 1 in
    Z[q] (integer content included); and ``num`` carries any overall power
    of q.  Equality of canonical forms is structural, so ``__eq__`` just
    compares the coefficient tuples and num's ``lo``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: "LaurentQ | int" = 0, den: "LaurentQ | int" = 1):
        if isinstance(num, int):
            num = LaurentQ(num)
        if isinstance(den, int):
            den = LaurentQ(den)
        obj = ScalarQ._make(num, den)
        self.num = obj.num
        self.den = obj.den

    @classmethod
    def _raw(cls, num: LaurentQ, den: LaurentQ) -> "ScalarQ":
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def _make(cls, num: LaurentQ, den: LaurentQ) -> "ScalarQ":
        """Canonicalize the raw fraction num / den.

        Both sides are divided by their gcd in Z[q], content included; the
        quotients are the cofactors _cofactors returns with the gcd, so no
        second division runs.  The gcd is certified (see _heu_gcd).  The
        cofactors of trimmed polynomials are trimmed, as the gcd divides
        their nonzero constant terms."""
        b = den.c
        if not b:
            raise ZeroDivisionError("zero denominator in Q(q)")
        a = num.c
        if not a:
            return S_ZERO
        lo = num.lo - den.lo
        if b == (1,):
            return cls._raw(num if lo == num.lo else LaurentQ._raw(lo, a), _L_ONE)
        _, a, b = _cofactors(a, b)
        if b[-1] < 0:
            a = tuple([-x for x in a])
            b = tuple([-x for x in b])
        return cls._raw(LaurentQ._raw(lo, a), LaurentQ._raw(0, b))

    @classmethod
    def q_power(cls, e: int) -> "ScalarQ":
        return cls._raw(LaurentQ._raw(e, (1,)), _L_ONE)

    def is_zero(self) -> bool:
        return not self.num.c

    def is_one(self) -> bool:
        return self.num.c == (1,) and not self.num.lo and self.den.c == (1,)

    def __bool__(self) -> bool:
        return bool(self.num.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, ScalarQ):
            return (
                self.num.c == other.num.c
                and self.num.lo == other.num.lo
                and self.den.c == other.den.c
            )
        if isinstance(other, int):
            return self.den.c == (1,) and self.num == other
        return NotImplemented

    __hash__ = None

    def __neg__(self) -> "ScalarQ":
        return ScalarQ._raw(-self.num, self.den)

    def __add__(self, other: "ScalarQ") -> "ScalarQ":
        """The canonical sum; unequal denominators add by Henrici's rule
        (Knuth, TAOCP vol. 2, 4.5.1).

        With g = gcd(d1, d2) and its cofactors e1 = d1/g, e2 = d2/g:

        * g = 1: (n1 d2 + n2 d1) / (d1 d2) is canonical as it stands, since
          a prime dividing d1 and the numerator divides n1 d2, yet it
          divides neither n1 nor d2.  No further gcd runs.
        * otherwise t = n1 e2 + n2 e1, and t/g reduces to t'/g'.  The sum is
          t' / (g' e1 e2), again canonical: a prime dividing e1 and t
          divides n1 e2, so gcd(t, e1) = gcd(t, e2) = 1, and gcd(t', g') = 1.

        t is not zero, as the canonical forms of the two terms differ in
        their denominators."""
        n1, n2 = self.num, other.num
        if not n1.c:
            return other
        if not n2.c:
            return self
        d1, d2 = self.den, other.den
        if d1.c == d2.c:
            s = n1 + n2
            if d1.c == (1,):
                return ScalarQ._raw(s, _L_ONE)
            return ScalarQ._make(s, d1)
        g, c1, c2 = _cofactors(d1.c, d2.c)
        if g == (1,):
            return ScalarQ._raw(n1 * d2 + n2 * d1, d1 * d2)
        e1 = LaurentQ._raw(0, c1)
        e2 = LaurentQ._raw(0, c2)
        x = ScalarQ._make(n1 * e2 + n2 * e1, LaurentQ._raw(0, g))
        return ScalarQ._raw(x.num, x.den * e1 * e2)

    def __sub__(self, other: "ScalarQ") -> "ScalarQ":
        return self + (-other)

    def __mul__(self, other: "ScalarQ") -> "ScalarQ":
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if not n1.c or not n2.c:
            return S_ZERO
        if d2.c == (1,):
            if d1.c == (1,):
                return ScalarQ._raw(n1 * n2, _L_ONE)
            # n1 and d1 are coprime, so only n2 and d1 can share a factor
            y = ScalarQ._make(n2, d1)
            return ScalarQ._raw(n1 * y.num, y.den)
        if d1.c == (1,):
            x = ScalarQ._make(n1, d2)
            return ScalarQ._raw(x.num * n2, x.den)
        # cross-reduce so the final product is already canonical
        x = ScalarQ._make(n1, d2)
        y = ScalarQ._make(n2, d1)
        num = x.num * y.num
        den = x.den * y.den
        return ScalarQ._raw(num, den)

    def inverse(self) -> "ScalarQ":
        """q^-lo d / a for self = q^lo a / d, which is canonical once the
        leading coefficient of a is made positive: a is trimmed, so its
        constant term is nonzero."""
        num = self.num
        a, d = num.c, self.den.c
        if not a:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        if a[-1] < 0:
            a = tuple([-x for x in a])
            d = tuple([-x for x in d])
        return ScalarQ._raw(LaurentQ._raw(-num.lo, d), LaurentQ._raw(0, a))

    def __truediv__(self, other: "ScalarQ") -> "ScalarQ":
        return self * other.inverse()

    def mul_qpow(self, k: int) -> "ScalarQ":
        """Multiply by q^k (stays canonical, no gcd work)."""
        if k == 0:
            return self
        return ScalarQ._raw(self.num.shift(k), self.den)

    def as_q_power(self) -> "int | None":
        """Exponent k when the value is exactly q^k, else None."""
        if self.num.c == (1,) and self.den.c == (1,):
            return self.num.lo
        return None

    def __str__(self) -> str:
        return scalar_str(self)

    def __repr__(self) -> str:
        return f"ScalarQ({scalar_str(self)!r})"


S_ZERO = ScalarQ._raw(_L_ZERO, _L_ONE)
S_ONE = ScalarQ._raw(_L_ONE, _L_ONE)


def add_term(terms: dict, key, c: ScalarQ) -> None:
    """terms[key] += c in a term dict, which never stores a zero: the key is
    dropped when the sum is zero, and a zero c is not stored."""
    got = terms.get(key)
    s = c if got is None else got + c
    if s.num.c:
        terms[key] = s
    elif got is not None:
        del terms[key]


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

def qint(n: int) -> LaurentQ:
    """Balanced q-integer [n] = (q^n - q^{-n}) / (q - q^{-1})."""
    if n == 0:
        return _L_ZERO
    if n < 0:
        return -qint(-n)
    return LaurentQ._raw(1 - n, tuple([1, 0] * (n - 1) + [1]))


def qfact(n: int) -> LaurentQ:
    """Balanced q-factorial [n]! for n >= 0."""
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    out = _L_ONE
    for k in range(2, n + 1):
        out = out * qint(k)
    return out


def qbinom(n: int, k: int) -> LaurentQ:
    """Balanced q-binomial: 1 for k = 0, [n][n-1]...[n-k+1]/[k]! for k > 0.

    Defined for every integer n; the quotient is always a Laurent polynomial
    and the division is checked to be exact.
    """
    if k < 0:
        raise ValueError("q-binomial needs k >= 0")
    if k == 0:
        return _L_ONE
    num = _L_ONE
    for j in range(k):
        num = num * qint(n - j)
    if not num.c:
        return _L_ZERO
    return num.exact_div(qfact(k))


def gauss_product(a: int) -> tuple[list[LaurentQ], list[LaurentQ]]:
    """Both sides of the q-binomial product identity, as polynomials in a
    central variable z with LaurentQ coefficients (index = power of z).

    lhs[t] = q^{t(a-1)} [a]! / ([t]! [a-t]!),   rhs = prod_{j=0}^{a-1} (1 + q^{2j} z).
    """
    if a < 0:
        raise ValueError("needs a >= 0")
    lhs = [qbinom(a, t).shift(t * (a - 1)) for t in range(a + 1)]
    rhs = [_L_ONE]
    for j in range(a):
        w = LaurentQ.q_power(2 * j)
        nxt = [rhs[0]]
        for t in range(1, len(rhs)):
            nxt.append(rhs[t] + w * rhs[t - 1])
        nxt.append(w * rhs[-1])
        rhs = nxt
    return lhs, rhs


# ---------------------------------------------------------------------------
# text form: sum of signed monomials "c*q^e", exponents decreasing;
# a genuine fraction renders as "(num)/(den)"
# ---------------------------------------------------------------------------

def laurent_str(x: LaurentQ) -> str:
    if not x.c:
        return "0"
    parts: list[str] = []
    for e, c in reversed(x.items()):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif mag == 1:
            body = f"q^{e}"
        else:
            body = f"{mag}*q^{e}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"-{body}" if c < 0 else f"+{body}")
    return "".join(parts)


def scalar_str(x: "ScalarQ | LaurentQ") -> str:
    if isinstance(x, LaurentQ):
        return laurent_str(x)
    if x.den.c == (1,):
        return laurent_str(x.num)
    return f"({laurent_str(x.num)})/({laurent_str(x.den)})"
